import os
from pathlib import Path

# before numpy loads its BLAS: in-process tests compute with one BLAS
# thread, as the package pins for a run and as the child processes inherit
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dsffs.fed_core import ClientUpdate, aggregate  # noqa: E402
from dsffs.sparse_net import SparseLayer, SparseNetwork, forward
from reference_sgd import softmax_cross_entropy


REPO = Path(__file__).resolve().parent.parent


def child_env() -> dict[str, str]:
    """The environment for a child process that runs this checkout's code.

    It is this process's environment, with `src` first on PYTHONPATH. The
    package pins the BLAS thread pools to one thread unless the environment
    sets them, since how the matmuls split their work moves the last digits
    of the reported strengths.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), env.get("PYTHONPATH", "")])
    return env


def build_net(weight_mats, masks=None, biases=None, targets=None) -> SparseNetwork:
    """SparseNetwork from explicit per-layer arrays (mask defaults to w != 0)."""
    layers = []
    for k, w in enumerate(weight_mats):
        w = np.array(w, dtype=float)
        m = np.array(masks[k], dtype=bool) if masks is not None else (w != 0.0)
        b = np.array(biases[k], dtype=float) if biases is not None else np.zeros(w.shape[1])
        w = w * m
        layers.append(SparseLayer(w, m, b))
    nnz = [layer.nnz() for layer in layers]
    total = sum(layer.rows * layer.cols for layer in layers)
    sparsity = 1.0 - sum(nnz) / total
    densities = [layer.nnz() / (layer.rows * layer.cols) for layer in layers]
    return SparseNetwork(layers, sparsity, densities, targets if targets is not None else nnz)


def fold(clients) -> list[tuple[np.ndarray, np.ndarray]]:
    """Fold the updates of (n_m, net) pairs into zeroed sums in list order, as a round does."""
    clients = list(clients)
    total = float(sum(n for n, _ in clients))
    sums = [(np.zeros_like(layer.weights), np.zeros_like(layer.bias))
            for layer in clients[0][1].layers]
    for n_m, net in clients:
        aggregate(sums, n_m / total, ClientUpdate.of(net))
    return sums


def loss_of(net, X, y) -> float:
    logits, _ = forward(net, X)
    loss, _ = softmax_cross_entropy(logits, y)
    return loss


def fd_weight_gradients(net, X, y, h=1e-5):
    """Central-difference gradients at every live weight and every bias."""
    w_grads, b_grads = [], []
    for layer in net.layers:
        gw = np.zeros_like(layer.weights)
        for i, j in zip(*np.nonzero(layer.mask)):
            orig = layer.weights[i, j]
            layer.weights[i, j] = orig + h
            up = loss_of(net, X, y)
            layer.weights[i, j] = orig - h
            dn = loss_of(net, X, y)
            layer.weights[i, j] = orig
            gw[i, j] = (up - dn) / (2 * h)
        gb = np.zeros_like(layer.bias)
        for j in range(layer.cols):
            orig = layer.bias[j]
            layer.bias[j] = orig + h
            up = loss_of(net, X, y)
            layer.bias[j] = orig - h
            dn = loss_of(net, X, y)
            layer.bias[j] = orig
            gb[j] = (up - dn) / (2 * h)
        w_grads.append(gw)
        b_grads.append(gb)
    return w_grads, b_grads


def max_rel_err(a, b, floor=1e-5) -> float:
    a, b = np.asarray(a), np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max()) if a.size else 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
