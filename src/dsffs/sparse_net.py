"""Sparse multilayer perceptron with explicit connection masks.

Weights live in dense buffers; a boolean mask of the same shape says which
connections actually exist. Everything off-mask is pinned to exactly 0.0,
so plain dense matmuls compute the sparse forward/backward pass. The
backward pass also produces the gradient at *inactive* positions, which is
what the gradient-magnitude regrowth steps consume.
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

    def enforce_mask(self) -> None:
        self.weights[~self.mask] = 0.0

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

    @property
    def density(self) -> float:
        return 1.0 - self.sparsity

    def dims(self) -> list[int]:
        return [self.layers[0].rows] + [layer.cols for layer in self.layers]

    def layer_nnz(self) -> list[int]:
        return [layer.nnz() for layer in self.layers]

    def nnz(self) -> int:
        return sum(self.layer_nnz())

    def dense_param_count(self) -> int:
        return sum(layer.rows * layer.cols for layer in self.layers)

    def touch(self) -> None:
        self.version += 1

    def copy(self) -> "SparseNetwork":
        dup = SparseNetwork(
            [layer.copy() for layer in self.layers],
            self.sparsity,
            self.layer_densities,
            self.nnz_targets,
        )
        return dup

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
    batch_size: int


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
    return a, ForwardCache(inputs, zs, net.version, batch.shape[0])


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of softmax(logits) against integer labels."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-300).mean())
    return loss, probs


@dataclass
class Gradients:
    """Per-layer gradients of the mean cross-entropy loss.

    `masked` is the true gradient of the sparse model (zero off-mask);
    `dense` extends it to every position, treating each absent weight as a
    free parameter currently at zero. Invariant: masked[l] == dense[l] *
    mask[l].
    """

    masked: list[np.ndarray]
    dense: list[np.ndarray]
    bias: list[np.ndarray]


def backward(net: SparseNetwork, cache: ForwardCache, labels: np.ndarray) -> Gradients:
    """Backprop through the cached forward pass."""
    if cache.version != net.version:
        raise ValueError("stale cache: network changed since forward()")
    labels = np.asarray(labels)
    if labels.shape != (cache.batch_size,):
        raise ValueError("labels do not match the cached batch")

    n_layers = len(net.layers)
    _, probs = softmax_cross_entropy(cache.zs[-1], labels)
    delta = probs
    delta[np.arange(cache.batch_size), labels] -= 1.0
    delta /= cache.batch_size

    dense = [None] * n_layers
    bias = [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        dense[l] = cache.inputs[l].T @ delta
        bias[l] = delta.sum(axis=0)
        if l > 0:
            # propagate through live connections only; weights are already
            # zero off-mask so the plain matmul is the sparse product
            delta = (delta @ net.layers[l].weights.T) * (cache.zs[l - 1] > 0.0)
    masked = [dense[l] * net.layers[l].mask for l in range(n_layers)]
    return Gradients(masked, dense, bias)


def new_velocity(net: SparseNetwork):
    """Zeroed momentum buffers matching the network's layers."""
    return [
        (np.zeros_like(layer.weights), np.zeros_like(layer.bias))
        for layer in net.layers
    ]


def sgd_step(net, grads: Gradients, lr: float, momentum: float = 0.0,
             velocity=None, prox=None):
    """One SGD(+momentum) update touching live connections only.

    `prox` is an optional (mu, anchor_network) pair; when present,
    mu * (w - w_anchor) is added to the weight gradient at live positions.
    Returns the velocity buffers for reuse on the next call.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if velocity is None:
        velocity = new_velocity(net)
    for l, layer in enumerate(net.layers):
        g = grads.masked[l]
        if prox is not None:
            mu, anchor = prox
            if mu != 0.0:
                g = g + mu * (layer.weights - anchor.layers[l].weights) * layer.mask
        vw, vb = velocity[l]
        vw *= momentum
        vw += g
        layer.weights -= lr * vw
        layer.weights[~layer.mask] = 0.0
        vb *= momentum
        vb += grads.bias[l]
        layer.bias -= lr * vb
    net.touch()
    return velocity


def mask_velocity(net: SparseNetwork, velocity) -> None:
    """Zero momentum at positions no longer in the mask (after topology updates)."""
    for layer, (vw, _) in zip(net.layers, velocity):
        vw *= layer.mask
