"""Input-layer feature selection dynamics.

An input neuron's strength is the L1 norm of its live weights; weak
neurons are progressively disconnected on a round-indexed schedule until
only a reduced pool remains, from which the top-K strongest are reported
as the selected features. Within each update the input layer also churns
connections (magnitude prune, gradient regrow) like the hidden layers,
conserving its connection count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dst_update import TopologyDelta, cut, grow, smallest, smallest_sparing_last
from .sparse_net import SparseLayer, SparseNetwork


def _ceil(x: float) -> int:
    # guard against float fuzz promoting an exact integer to the next one
    return int(math.ceil(round(x, 9)))


@dataclass
class InputSchedule:
    """Round-indexed plan for shrinking the connected input-neuron set.

    Over rounds 1..r_remove a total of T neurons are net-removed, where
    T = max(0, ceil((1 - zeta) * D - K)), leaving D - T connected at the
    end (about zeta*D + K). `history` records the realized per-round
    removal counts; its running sum is the cumulative removal count used
    by the per-round formulas.
    """

    D: int
    K: int
    zeta: float
    beta: float
    r_max: int
    history: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.D < 1 or self.K < 1:
            raise ValueError("D and K must be positive")
        if self.K > self.D:
            raise ValueError(f"cannot select {self.K} features out of {self.D}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if not 0.0 <= self.zeta < 1.0:
            raise ValueError(f"zeta must be in [0, 1), got {self.zeta}")
        if self.r_max < 1:
            raise ValueError("r_max must be at least 1")
        self.r_remove = _ceil(self.beta * self.r_max)
        self.T = max(0, _ceil((1.0 - self.zeta) * self.D - self.K))

    @property
    def T_r(self) -> int:
        """Neurons net-removed in all recorded rounds so far."""
        return sum(self.history)

    def record(self, n_remove: int) -> None:
        self.history.append(int(n_remove))


@dataclass(frozen=True)
class ScheduleCounts:
    """Neuron counts for one update: pruned, net-removed, regrown."""

    n_p: int
    n_remove: int
    n_g: int

    def churn(self) -> "ScheduleCounts":
        """Steady-state variant: equal prune/regrow, no net removal."""
        return ScheduleCounts(self.n_g, 0, self.n_g)


def compute_schedule(sched: InputSchedule, r: int) -> ScheduleCounts:
    """Counts for round r (1-based). Requires history for rounds < r.

    Removal spreads the outstanding budget evenly over the rounds left
    before r_remove, taking the exact remainder at r_remove itself so the
    realized removals sum to T. The regrowth count is a linearly decaying
    fraction of the removed pool, and every count is capped so the
    connected-neuron count stays at or above K.
    """
    if not 1 <= r <= sched.r_max:
        raise ValueError(f"round {r} outside 1..{sched.r_max}")
    if len(sched.history) != r - 1:
        raise ValueError(
            f"schedule history has {len(sched.history)} rounds, expected {r - 1}"
        )
    t_r = sched.T_r
    if r < sched.r_remove:
        n_remove = _ceil((sched.T - t_r) / (sched.r_remove - r))
    elif r == sched.r_remove:
        n_remove = sched.T - t_r
    else:
        n_remove = 0
    n_g = min(_ceil(sched.zeta * (1.0 - r / sched.r_max) * t_r), t_r)
    headroom = sched.D - t_r - n_remove - sched.K
    n_g = max(0, min(n_g, headroom))
    n_p = n_remove + n_g if r <= sched.r_remove else n_g
    return ScheduleCounts(n_p, n_remove, n_g)


@dataclass
class InputLayerState:
    """Connectivity bookkeeping for the input layer of one network.

    `connected[i]` mirrors whether mask row i has any live entry;
    `permanently_removed` marks neurons excluded from regrowth for good;
    `strengths` holds the row strengths as of the last `refresh` (training
    moves the weights, so a prune refreshes them first).
    """

    connected: np.ndarray
    permanently_removed: np.ndarray
    strengths: np.ndarray

    @classmethod
    def from_layer(cls, layer: SparseLayer, permanently_removed=None) -> "InputLayerState":
        removed = (
            np.zeros(layer.rows, dtype=bool)
            if permanently_removed is None
            else np.asarray(permanently_removed, dtype=bool).copy()
        )
        state = cls(np.zeros(layer.rows, dtype=bool), removed, np.zeros(layer.rows))
        state.refresh(layer)
        return state

    def refresh(self, layer: SparseLayer) -> None:
        self.connected = layer.mask.any(axis=1)
        self.strengths = row_strengths(layer)


def row_strengths(layer: SparseLayer) -> np.ndarray:
    """L1 norm of each input row's live weights (off-mask weights are 0)."""
    return np.abs(layer.weights).sum(axis=1)


def neuron_strength(layer: SparseLayer, i: int) -> float:
    """Strength of input neuron i: sum of |weight| over its live connections."""
    if not 0 <= i < layer.rows:
        raise IndexError(f"neuron index {i} outside 0..{layer.rows - 1}")
    return float(np.abs(layer.weights[i][layer.mask[i]]).sum())


@dataclass
class InputUpdate:
    """One input-layer prune (and later regrow) in progress."""

    delta: TopologyDelta
    # rows fully disconnected this update, in ascending pre-prune strength
    pruned_neurons: list[int]
    # rows reconnected by the regrow step
    reconnected_neurons: list[int] = field(default_factory=list)


def prune_input(net: SparseNetwork, state: InputLayerState,
                counts: ScheduleCounts, zeta: float) -> InputUpdate:
    """Disconnect the weakest input neurons, then the weakest connections.

    First the counts.n_p connected, non-removed neurons with the lowest
    strength lose all their connections (ties toward the lowest index).
    Then floor(zeta * remaining) live input connections of smallest
    |weight| are dropped; a row's last connection is spared where possible
    so neuron connectivity stays exactly the neuron-level accounting.
    Both stages are partial selections with the contract of
    `dst_update.smallest` and `dst_update.smallest_sparing_last` (axis=1):
    exact counts, (score, row, col) order, O(n) plus O(k log k).
    """
    layer = net.layers[0]
    state.refresh(layer)
    delta = TopologyDelta()

    prunable = np.flatnonzero(state.connected & ~state.permanently_removed)
    n_p = counts.n_p
    if n_p > len(prunable):
        warnings.warn(
            f"asked to prune {n_p} input neurons but only {len(prunable)} "
            "are prunable; pruning all of them",
            RuntimeWarning,
        )
    victims = prunable[smallest(state.strengths[prunable], n_p, ordered=True)]
    rows, cols = np.nonzero(layer.mask[victims])
    cut(layer, 0, victims[rows] * layer.cols + cols, delta)
    state.connected[victims] = False

    if zeta > 0.0:
        # cap by the headroom of still-connected rows against the layer
        # target so the paired regrowth can always restore the count
        capacity = int(np.count_nonzero(state.connected)) * layer.cols
        k = min(int(zeta * layer.nnz()), max(0, capacity - net.nnz_targets[0]))
        if k > 0:
            cut(layer, 0, smallest_sparing_last(np.abs(layer.weights), layer.mask, k, axis=1),
                delta)
            state.connected = layer.mask.any(axis=1)

    net.touch()
    return InputUpdate(delta, victims.tolist())


def regrow_input(net: SparseNetwork, state: InputLayerState,
                 counts: ScheduleCounts, input_dense_grad: np.ndarray,
                 update: InputUpdate) -> InputUpdate:
    """Reconnect neurons and connections after prune_input().

    The counts.n_remove lowest-strength neurons pruned this update become
    permanently removed. Among the remaining disconnected, non-removed
    neurons, the counts.n_g with the largest row-max |gradient| are
    reconnected through their single best inactive position (weight 0).
    Finally inactive positions on connected rows are activated in
    descending |gradient| until the layer is back at its connection
    target. Connection top-up never reuses a position pruned in this same
    update; neuron reconnection may (the whole row was just cleared, and
    the single strongest position wins regardless of its history). Both
    picks are `dst_update.smallest` on negated scores.
    """
    layer = net.layers[0]
    delta = update.delta

    n_rm = min(counts.n_remove, len(update.pruned_neurons))
    if n_rm < counts.n_remove:
        warnings.warn(
            f"only {n_rm} of {counts.n_remove} neuron removals realized this update",
            RuntimeWarning,
        )
    state.permanently_removed[update.pruned_neurons[:n_rm]] = True

    # neuron reconnection: best row-max |gradient| wins, ties by index
    pool = np.flatnonzero(~state.connected & ~state.permanently_removed)
    n_g = counts.n_g
    if n_g > len(pool):
        warnings.warn(
            f"asked to reconnect {n_g} input neurons but only {len(pool)} "
            "are disconnected and regrowable; reconnecting all",
            RuntimeWarning,
        )
    if n_g > 0 and len(pool):
        grad_abs = np.abs(input_dense_grad[pool])
        best_cols = np.argmax(grad_abs, axis=1)  # first max = lowest column
        pick = smallest(-grad_abs[np.arange(len(pool)), best_cols], n_g)
        grow(layer, 0, pool[pick] * layer.cols + best_cols[pick], delta)
        state.connected[pool[pick]] = True
        update.reconnected_neurons.extend(pool[pick].tolist())

    # connection top-up on connected rows, back to the layer target
    need = net.nnz_targets[0] - layer.nnz()
    if need > 0:
        eligible = ~layer.mask & ~delta.pruned_mask(0, layer.mask.shape)
        eligible &= state.connected[:, None]
        cand = np.flatnonzero(eligible)
        if len(cand) < need:
            warnings.warn(
                f"input layer: only {len(cand)} positions available to regrow "
                f"{need}; connection count will recover on a later update",
                RuntimeWarning,
            )
        grow(layer, 0, cand[smallest(-np.abs(np.take(input_dense_grad, cand)), need)], delta)

    net.touch()
    return update


@dataclass
class SelectionResult:
    """Final feature ranking: indices into the original dataset columns."""

    indices: list[int]
    strengths: list[float]
    requested: int
    shortfall: bool


def select_features(net: SparseNetwork, state: InputLayerState, k: int) -> SelectionResult:
    """Top-k connected input neurons by strength, descending; ties by index."""
    layer = net.layers[0]
    state.refresh(layer)
    connected = np.nonzero(state.connected)[0]
    order = np.lexsort((connected, -state.strengths[connected]))
    take = min(k, len(connected))
    shortfall = take < k
    if shortfall:
        warnings.warn(
            f"only {len(connected)} input neurons connected, fewer than the "
            f"{k} requested features",
            RuntimeWarning,
        )
    chosen = connected[order[:take]]
    return SelectionResult(
        [int(i) for i in chosen],
        [float(state.strengths[i]) for i in chosen],
        k,
        shortfall,
    )
