"""Sparse multilayer perceptron with explicit connection masks.

Weights live in dense buffers; a boolean mask of the same shape says which
connections actually exist. Everything off-mask is pinned to exactly +0.0,
so plain dense matmuls compute the sparse forward/backward pass. The
backward pass returns the gradient at every position, inactive ones
included, which the gradient-magnitude regrowth steps consume.

Optimizer state is sparse (`new_velocity`): per layer, the sorted flat
live index, the momentum of those connections, and a copy of their
weights, which a step updates and scatters back; a step never writes an
inactive weight. The copy is read again whenever `net.version` moves, so
an edit followed by `touch()` is seen. Under FedProx the anchor's live
weights are read once per live index and anchor version. Call
`mask_velocity` after any mask change and before the next `sgd_step`.
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


def er_allocation(dims: list[int], sparsity: float) -> tuple[list[float], list[int]]:
    """Per-layer (densities, connection targets) of the Erdos-Renyi allocation.

    Per-layer density is proportional to (fan_in + fan_out) / (fan_in *
    fan_out), with the scale calibrated so the total connection count is
    (1 - sparsity) of the dense parameter count. Layers whose allocation
    reaches 1.0 are made dense and the surplus budget is redistributed over
    the remaining layers.
    """
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
    return densities, targets


def init_er_topology(layer_dims, sparsity: float, seed: int) -> SparseNetwork:
    """Build a random sparse MLP on the `er_allocation` connection targets.

    Every row and every column is seeded with one connection before the
    rest of a layer's target lands uniformly at random: a unit with empty
    fan-in and zero bias would sit exactly on the ReLU kink and never
    learn, and an input row born empty would count as a feature dropped
    without ever being scored. Live weights are zero-mean normals scaled by
    fan-in; biases start at zero.
    """
    dims = [int(d) for d in layer_dims]
    densities, targets = er_allocation(dims, sparsity)
    rng = np.random.default_rng(seed)
    layers = []
    for i, (r, c) in enumerate(zip(dims[:-1], dims[1:])):
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


@dataclass(eq=False)
class LayerState:
    """One layer's SGD state, valid while the layer's mask stands."""

    idx: np.ndarray             # the mask's sorted flat row-major live index
    vw: np.ndarray              # momentum of the live connections, in idx order
    vb: np.ndarray              # bias momentum
    w: np.ndarray | None = None  # live weights, flat[idx], as the last step left them
    a: np.ndarray | None = None  # the FedProx anchor's weights at idx


@dataclass(eq=False)
class SGDState:
    """Per-layer SGD state plus what its cached copies were read from."""

    layers: list[LayerState]
    version: int | None = None    # net.version at which every `w` was read or written
    anchor: tuple | None = None   # (anchor network, its version) every `a` was read from


def new_velocity(net: SparseNetwork) -> SGDState:
    """Zeroed momentum for the live connections of each layer.

    Inactive connections have no momentum; after any mask change,
    `mask_velocity` must move it before the next step. Nothing is cached
    yet: the first step reads the live weights (and the anchor's). A
    state belongs to the network it was made for.
    """
    layers = []
    for layer in net.layers:
        idx = np.flatnonzero(layer.mask)
        layers.append(LayerState(idx, np.zeros(len(idx)), np.zeros_like(layer.bias)))
    return SGDState(layers)


def sgd_step(net, grads: Gradients, lr: float, momentum: float = 0.0,
             velocity: SGDState | None = None, prox=None) -> SGDState:
    """One SGD(+momentum) update of the live connections.

    Gathers the gradient at each layer's live index, updates the cached
    live weights as a vector and scatters them back; inactive weights are
    never written, so they stay +0.0 whatever the gradient holds there.
    The cached weights are read from the network again when `net.version`
    differs from the one the state last saw. `velocity` must match the
    current masks (see `mask_velocity`).

    `prox` is an optional (mu, anchor_network) pair; when present,
    mu * (w - w_anchor) is added to the weight gradient at live positions.
    The anchor's live weights are read again only when the live index,
    the anchor object or its version changes. Returns the state for reuse
    on the next call.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if velocity is None:
        velocity = new_velocity(net)
    if velocity.version != net.version:
        for layer, s in zip(net.layers, velocity.layers):
            s.w = layer.weights.ravel()[s.idx]
    mu = 0.0
    if prox is not None and prox[0] != 0.0:
        mu, anchor = prox
        if velocity.anchor != (anchor, anchor.version):
            for a_layer, s in zip(anchor.layers, velocity.layers):
                s.a = a_layer.weights.ravel()[s.idx]
            velocity.anchor = (anchor, anchor.version)
    for l, (layer, s) in enumerate(zip(net.layers, velocity.layers)):
        # a view: raises rather than write the update into a copy
        flat = layer.weights.reshape(-1, copy=False)
        s.vw *= momentum
        if mu != 0.0:
            t = s.w - s.a
            t *= mu
            s.vw += np.add(t, grads.weights[l].ravel()[s.idx], out=t)
        else:
            s.vw += grads.weights[l].ravel()[s.idx]
        s.w -= lr * s.vw
        flat[s.idx] = s.w
        s.vb *= momentum
        s.vb += grads.bias[l]
        layer.bias -= lr * s.vb
    net.touch()
    velocity.version = net.version
    return velocity


def mask_velocity(net: SparseNetwork, velocity: SGDState) -> None:
    """Move momentum onto the current masks, in place.

    Call after any mask change and before the next `sgd_step`. Connections
    still live keep their momentum, regrown ones start at zero and pruned
    ones drop theirs. The cached live weights and anchor values are
    dropped; the next step reads them at the new index.
    """
    for layer, s in zip(net.layers, velocity.layers):
        full = np.zeros(layer.mask.size)
        full[s.idx] = s.vw
        s.idx = np.flatnonzero(layer.mask)
        s.vw = full[s.idx]
        s.w = s.a = None
    velocity.version = velocity.anchor = None
