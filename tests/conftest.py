import os
from pathlib import Path

# first, so that numpy loads its BLAS under the package's one-thread pin:
# in-process tests compute as a run does, and child processes inherit it
import dsffs  # noqa: F401  isort: skip

import numpy as np
import pytest

from dsffs.data import Dataset, PartitionedDataset
from dsffs.fed_core import ClientUpdate, aggregate, plan_run, run_training
from dsffs.sparse_net import SparseLayer, SparseNetwork, forward
from reference_sgd import softmax_cross_entropy


REPO = Path(__file__).resolve().parent.parent


def child_env() -> dict[str, str]:
    """The environment for a child process that runs this checkout's code.

    It is this process's environment, with `src` first on PYTHONPATH and no
    empty entry, which would put the child's working directory on
    `sys.path`. The package pins the BLAS thread pools to one thread unless
    the environment sets them, since how the matmuls split their work moves
    the last digits of the reported strengths.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def build_net(weight_mats, masks=None, biases=None, targets=None) -> SparseNetwork:
    """SparseNetwork from explicit per-layer arrays (mask defaults to w != 0)."""
    layers = []
    for k, w in enumerate(weight_mats):
        w = np.array(w, dtype=float)
        m = np.array(masks[k], dtype=bool) if masks is not None else (w != 0.0)
        b = np.array(biases[k], dtype=float) if biases is not None else np.zeros(w.shape[1])
        w = np.where(m, w, 0.0)
        layers.append(SparseLayer(w, m, b))
    nnz = [layer.nnz() for layer in layers]
    total = sum(layer.rows * layer.cols for layer in layers)
    sparsity = 1.0 - sum(nnz) / total
    densities = [layer.nnz() / (layer.rows * layer.cols) for layer in layers]
    return SparseNetwork(layers, sparsity, densities, targets if targets is not None else nnz)


def conns(triples) -> set:
    """(layer, row, col) rows, an array or a list, as a set of int tuples."""
    return {tuple(int(v) for v in t) for t in triples}


def plan_and_train(config, parts):
    """Plan a run of `config` on `parts`, then train it."""
    return run_training(plan_run(config, parts))


def tiny_partition(n_per_shard=12, d=6, c=2, seed=0, m=2, duplicate=False):
    """m shards of n_per_shard random rows each, then a 10-row test split."""
    rng = np.random.default_rng(seed)
    n = n_per_shard * m + 10
    X = rng.normal(size=(n, d))
    y = rng.integers(0, c, size=n).astype(np.int64)
    if duplicate:  # identical shard contents at distinct indices
        X[n_per_shard:2 * n_per_shard] = X[:n_per_shard]
        y[n_per_shard:2 * n_per_shard] = y[:n_per_shard]
    ds = Dataset(X, y)
    shards = [np.arange(k * n_per_shard, (k + 1) * n_per_shard) for k in range(m)]
    test = np.arange(m * n_per_shard, n)
    return PartitionedDataset(ds, shards, test)


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
