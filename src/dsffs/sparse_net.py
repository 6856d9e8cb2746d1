"""Sparse multilayer perceptron with explicit connection masks.

Weights live in dense buffers; a boolean mask of the same shape says which
connections actually exist. Everything off-mask is pinned to exactly +0.0,
so plain dense matmuls compute the sparse forward/backward pass. The
backward pass returns the gradient at every position, inactive ones
included, which the gradient-magnitude regrowth steps consume.

Optimizer state is sparse: momentum exists only for live connections,
held at each layer's sorted flat live index (`new_velocity`). Call
`mask_velocity` after any mask change and before the next `sgd_step`. A
step reads and writes live weights only; it never writes an inactive one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """A requested configuration cannot be realized."""


class SparseLayer:
    """One fully connected layer with a boolean connection mask.

    `rows` is the fan-in, `cols` the fan-out. Invariant: weights[i, j] may
    be nonzero only where mask[i, j] is True.
    """

    __slots__ = ("rows", "cols", "weights", "mask", "bias")

    def __init__(self, weights: np.ndarray, mask: np.ndarray, bias: np.ndarray):
        if weights.shape != mask.shape:
            raise ValueError("weights and mask shapes differ")
        if bias.shape != (weights.shape[1],):
            raise ValueError("bias length must equal fan-out")
        self.weights = weights
        self.mask = mask
        self.bias = bias
        self.rows, self.cols = weights.shape

    def nnz(self) -> int:
        return int(np.count_nonzero(self.mask))

    def copy(self) -> "SparseLayer":
        return SparseLayer(self.weights.copy(), self.mask.copy(), self.bias.copy())


class SparseNetwork:
    """Stack of SparseLayers sharing one global connection budget.

    `nnz_targets` holds the per-layer connection counts fixed at
    initialization; topology updates swap connections but keep these
    counts, so total nnz is conserved across training.
    """

    def __init__(self, layers, sparsity, layer_densities, nnz_targets):
        self.layers: list[SparseLayer] = list(layers)
        self.sparsity = float(sparsity)
        self.layer_densities = [float(h) for h in layer_densities]
        self.nnz_targets = [int(t) for t in nnz_targets]
        # bumped on every weight/mask mutation; lets backward() reject a
        # cache taken before the network changed
        self.version = 0

    def layer_nnz(self) -> list[int]:
        return [layer.nnz() for layer in self.layers]

    def nnz(self) -> int:
        return sum(self.layer_nnz())

    def dense_param_count(self) -> int:
        return sum(layer.rows * layer.cols for layer in self.layers)

    def touch(self) -> None:
        self.version += 1

    def copy(self) -> "SparseNetwork":
        return SparseNetwork([layer.copy() for layer in self.layers], self.sparsity,
                             self.layer_densities, self.nnz_targets)

    def validate(self) -> None:
        """Check the mask/weight consistency invariant; raise on violation."""
        for l, layer in enumerate(self.layers):
            off = layer.weights[~layer.mask]
            if off.size and np.any(off != 0.0):
                raise AssertionError(f"layer {l}: nonzero weight at masked-off position")


def init_er_topology(layer_dims, sparsity: float, seed: int) -> SparseNetwork:
    """Build a random sparse MLP with Erdos-Renyi layer allocation.

    Per-layer density is proportional to (fan_in + fan_out) / (fan_in *
    fan_out), with the scale calibrated so the total connection count is
    (1 - sparsity) of the dense parameter count. Layers whose allocation
    reaches 1.0 are made dense and the surplus budget is redistributed over
    the remaining layers. Every row and every column is seeded with one
    connection before the rest of the budget lands uniformly at random: a
    unit with empty fan-in and zero bias would sit exactly on the ReLU kink
    and never learn, and an input row born empty would count as a feature
    dropped without ever being scored. Live weights are zero-mean normals
    scaled by fan-in; biases start at zero.
    """
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2:
        raise ConfigError("need at least an input and an output dimension")
    if any(d < 1 for d in dims):
        raise ConfigError("layer dimensions must be positive")
    if not 0.0 <= sparsity < 1.0:
        raise ConfigError(f"sparsity must be in [0, 1), got {sparsity}")

    shapes = list(zip(dims[:-1], dims[1:]))
    params = [r * c for r, c in shapes]
    budget = (1.0 - sparsity) * sum(params)

    # calibrate the ER scale; cap saturated layers at density 1 and retry
    raw = [(r + c) / (r * c) for r, c in shapes]
    is_dense = [False] * len(shapes)
    eps = 0.0
    while True:
        free = [i for i in range(len(shapes)) if not is_dense[i]]
        if not free:
            break
        remaining = budget - sum(params[i] for i in range(len(shapes)) if is_dense[i])
        eps = remaining / sum(raw[i] * params[i] for i in free)
        saturated = [i for i in free if eps * raw[i] >= 1.0]
        if not saturated:
            break
        for i in saturated:
            is_dense[i] = True

    densities = [1.0 if is_dense[i] else eps * raw[i] for i in range(len(shapes))]
    targets = [
        params[i] if is_dense[i] else int(round(densities[i] * params[i]))
        for i in range(len(shapes))
    ]
    for i, (r, c) in enumerate(shapes):
        if targets[i] < max(r, c):
            raise ConfigError(
                f"sparsity {sparsity} leaves layer {i} ({r}x{c}) with "
                f"{targets[i]} connections, fewer than one per unit"
            )

    rng = np.random.default_rng(seed)
    layers = []
    for i, (r, c) in enumerate(shapes):
        mask = np.zeros((r, c), dtype=bool)
        # column seeds spread over distinct rows, then cover leftover rows;
        # the seed count is exactly max(r, c)
        perm = rng.permutation(r)
        mask[perm[np.arange(c) % r], np.arange(c)] = True
        empty_rows = np.flatnonzero(~mask.any(axis=1))
        if len(empty_rows):
            mask[empty_rows, rng.integers(0, c, size=len(empty_rows))] = True
        extra = targets[i] - int(mask.sum())
        if extra > 0:
            rest = np.flatnonzero(~mask.ravel())
            mask.ravel()[rng.choice(rest, size=extra, replace=False)] = True
        weights = rng.normal(0.0, math.sqrt(2.0 / r), size=(r, c))
        weights[~mask] = 0.0
        layers.append(SparseLayer(weights, mask, np.zeros(c)))
    return SparseNetwork(layers, sparsity, densities, targets)


@dataclass
class ForwardCache:
    """Intermediates from one forward pass, consumed by backward()."""

    inputs: list[np.ndarray]   # activation feeding each layer; inputs[0] is the batch
    zs: list[np.ndarray]       # pre-activations per layer
    version: int


def forward(net: SparseNetwork, batch: np.ndarray):
    """Run the masked network on a batch; returns (logits, cache).

    Hidden layers apply ReLU; the last layer is linear (softmax lives in
    the loss).
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != net.layers[0].rows:
        raise ValueError(
            f"batch must be 2-D with width {net.layers[0].rows}, got {batch.shape}"
        )
    inputs, zs = [], []
    a = batch
    last = len(net.layers) - 1
    for l, layer in enumerate(net.layers):
        inputs.append(a)
        z = a @ layer.weights + layer.bias
        zs.append(z)
        a = z if l == last else np.maximum(z, 0.0)
    return a, ForwardCache(inputs, zs, net.version)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row maximum for stability."""
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


@dataclass
class Gradients:
    """Per-layer gradients of the mean cross-entropy loss.

    `weights[l]` is dense: at live positions it is the true gradient of the
    sparse model; at inactive ones it treats each absent weight as a free
    parameter currently at zero. `sgd_step` reads only the live positions.
    """

    weights: list[np.ndarray]
    bias: list[np.ndarray]


def backward(net: SparseNetwork, cache: ForwardCache, labels: np.ndarray) -> Gradients:
    """Backprop through the cached forward pass."""
    if cache.version != net.version:
        raise ValueError("stale cache: network changed since forward()")
    labels = np.asarray(labels)
    n = cache.inputs[0].shape[0]
    if labels.shape != (n,):
        raise ValueError("labels do not match the cached batch")

    n_layers = len(net.layers)
    delta = softmax(cache.zs[-1])
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    weights, bias = [None] * n_layers, [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        weights[l] = cache.inputs[l].T @ delta
        bias[l] = delta.sum(axis=0)
        if l > 0:
            # propagate through live connections only; weights are already
            # zero off-mask so the plain matmul is the sparse product
            delta = (delta @ net.layers[l].weights.T) * (cache.zs[l - 1] > 0.0)
    return Gradients(weights, bias)


def new_velocity(net: SparseNetwork):
    """Zeroed momentum for the live connections of each layer.

    One (idx, vw, vb) per layer: `idx` is the mask's sorted flat row-major
    live index, `vw` the momentum of those connections (same length), `vb`
    the bias momentum. Inactive connections have no momentum; after any
    mask change, `mask_velocity` must move it before the next step.
    """
    velocity = []
    for layer in net.layers:
        idx = np.flatnonzero(layer.mask)
        velocity.append((idx, np.zeros(len(idx)), np.zeros_like(layer.bias)))
    return velocity


def sgd_step(net, grads: Gradients, lr: float, momentum: float = 0.0,
             velocity=None, prox=None):
    """One SGD(+momentum) update of the live connections.

    Gathers gradient and weights at each layer's live index, updates them
    as vectors and scatters the weights back; inactive weights are never
    written, so they stay +0.0 whatever the gradient holds there. `velocity`
    must match the current masks (see `mask_velocity`).

    `prox` is an optional (mu, anchor_network) pair; when present,
    mu * (w - w_anchor) is added to the weight gradient at live positions.
    Returns the velocity for reuse on the next call.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if velocity is None:
        velocity = new_velocity(net)
    for l, layer in enumerate(net.layers):
        idx, vw, vb = velocity[l]
        # a view: raises rather than write the update into a copy
        flat = layer.weights.reshape(-1, copy=False)
        w = flat[idx]
        vw *= momentum
        if prox is not None and prox[0] != 0.0:
            mu, anchor = prox
            t = w - anchor.layers[l].weights.ravel()[idx]
            t *= mu
            vw += np.add(t, grads.weights[l].ravel()[idx], out=t)
        else:
            vw += grads.weights[l].ravel()[idx]
        w -= lr * vw
        flat[idx] = w
        vb *= momentum
        vb += grads.bias[l]
        layer.bias -= lr * vb
    net.touch()
    return velocity


def mask_velocity(net: SparseNetwork, velocity) -> None:
    """Move momentum onto the current masks, in place.

    Call after any mask change and before the next `sgd_step`. Connections
    still live keep their momentum, regrown ones start at zero and pruned
    ones drop theirs.
    """
    for l, layer in enumerate(net.layers):
        idx, vw, vb = velocity[l]
        full = np.zeros(layer.mask.size)
        full[idx] = vw
        idx = np.flatnonzero(layer.mask)
        velocity[l] = (idx, full[idx], vb)
