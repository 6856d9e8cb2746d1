"""Input-layer feature selection dynamics.

An input neuron's strength is the L1 norm of its live weights; weak
neurons are progressively disconnected until only a reduced pool remains,
from which the top-K strongest are reported as the selected features. How
many go and come back in each round is a plan, `removal_plan`, fixed
before round 1 by (D, K, zeta, beta, rounds) alone; which neurons go is
decided by strength as training runs. Only this neuron stage is specific
to the input layer: within each update its connections churn through the
same `dst_update` prune and regrow as every other layer, which conserves
its connection count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dst_update import (
    TopologyDelta,
    churn_count,
    cut,
    grow,
    prune_layer_by_magnitude,
    regrow_layer_by_gradient,
    smallest,
)
from .sparse_net import SparseNetwork


def _ceil(x: float) -> int:
    # guard against float fuzz promoting an exact integer to the next one
    return int(math.ceil(round(x, 9)))


@dataclass(frozen=True)
class ScheduleCounts:
    """Neuron counts for one update: net-removed and regrown."""

    n_remove: int
    n_g: int

    @property
    def n_p(self) -> int:
        """Pruned: each is removed for good or balanced by a regrown one."""
        return self.n_remove + self.n_g

    def churn(self) -> "ScheduleCounts":
        """Steady-state variant: equal prune/regrow, no net removal."""
        return ScheduleCounts(0, self.n_g)


@dataclass(frozen=True)
class RemovalPlan:
    """The neuron schedule of a whole run; see removal_plan."""

    T: int                              # neurons net-removed over the run
    r_remove: int                       # the round that removes the last of them
    counts: tuple[ScheduleCounts, ...]  # round r's counts at index r - 1

    @property
    def history(self) -> list[int]:
        """Neurons net-removed in each round; they sum to T."""
        return [c.n_remove for c in self.counts]


def removal_plan(D: int, K: int, zeta: float, beta: float, rounds: int) -> RemovalPlan:
    """Every round's counts, a pure function of (D, K, zeta, beta, rounds).

    Rounds 1..r_remove, r_remove = ceil(beta * rounds), net-remove
    T = max(0, ceil((1 - zeta) * D - K)) neurons, leaving D - T (about
    zeta*D + K): each spreads the outstanding budget evenly over the rounds
    left, and r_remove takes the exact remainder. Regrowth is a linearly
    decaying fraction of the neurons removed so far, and every count is
    capped so at least K neurons stay connected.
    """
    # at least round 1, or a beta * rounds that rounds to 0 would leave no
    # round to remove the budget in
    r_remove = max(1, _ceil(beta * rounds))
    T = max(0, _ceil((1.0 - zeta) * D - K))
    counts, t_r = [], 0
    for r in range(1, rounds + 1):
        if r < r_remove:
            n_remove = _ceil((T - t_r) / (r_remove - r))
        elif r == r_remove:
            n_remove = T - t_r
        else:
            n_remove = 0
        n_g = min(_ceil(zeta * (1.0 - r / rounds) * t_r), t_r)
        headroom = D - t_r - n_remove - K
        counts.append(ScheduleCounts(n_remove, max(0, min(n_g, headroom))))
        t_r += n_remove
    return RemovalPlan(T, r_remove, tuple(counts))


def row_strengths(weights: np.ndarray) -> np.ndarray:
    """L1 norm of each input row's live weights (off-mask weights are 0)."""
    return np.abs(weights).sum(axis=1)


@dataclass
class InputUpdate:
    """One input-layer prune (and later regrow) in progress."""

    delta: TopologyDelta
    # rows fully disconnected this update, in ascending pre-prune strength
    pruned_neurons: list[int]


def prune_input(net: SparseNetwork, removed: np.ndarray,
                counts: ScheduleCounts, zeta: float) -> InputUpdate:
    """Disconnect the weakest input neurons, then churn the connections.

    First the counts.n_p connected neurons not in the boolean `removed`
    row mask with the lowest strength lose all their connections (ties
    toward the lowest index; a partial selection with the contract of
    `dst_update.smallest`). Then the connection stage is the one every
    layer runs, `dst_update.prune_layer_by_magnitude` with axis=1: it
    drops floor(zeta * remaining) live connections of smallest |weight|,
    capped by the headroom of the still-connected rows so the paired
    regrowth can restore the count. It spares each row's last connection
    unless the quota exceeds the live connections beyond one per
    connected row; then rows' last connections go too, and those rows
    end disconnected but neither pruned neurons nor removed.
    """
    layer = net.layers[0]
    delta = TopologyDelta()

    connected = layer.mask.any(axis=1)
    prunable = np.flatnonzero(connected & ~removed)
    n_p = counts.n_p
    if n_p > len(prunable):
        warnings.warn(
            f"asked to prune {n_p} input neurons but only {len(prunable)} "
            "are prunable; pruning all of them",
            RuntimeWarning,
        )
    victims = prunable[smallest(row_strengths(layer.weights)[prunable], n_p, ordered=True)]
    rows, cols = np.nonzero(layer.mask[victims])
    cut(net, 0, victims[rows] * layer.cols + cols, delta)
    connected[victims] = False

    prune_layer_by_magnitude(net, 0, churn_count(net, 0, zeta, connected), delta, axis=1)
    return InputUpdate(delta, victims.tolist())


def regrow_input(net: SparseNetwork, removed: np.ndarray,
                 counts: ScheduleCounts, input_dense_grad: np.ndarray,
                 update: InputUpdate) -> InputUpdate:
    """Reconnect neurons and connections after prune_input().

    The counts.n_remove lowest-strength neurons pruned this update are
    marked in the boolean `removed` row mask, for good. Among the
    remaining disconnected neurons not in `removed`, the counts.n_g with
    the largest row-max |gradient| are reconnected through their single
    best inactive position (weight 0), picked by `dst_update.smallest` on
    negated scores. Finally the connections are topped up on connected
    rows back to the layer target by the regrow every layer runs,
    `dst_update.regrow_layer_by_gradient`, which never reuses a position
    pruned in this same update; neuron reconnection may (the whole row was
    just cleared, and the single strongest position wins regardless of
    its history).

    Fewer than n_remove pruned neurons, or fewer than n_g regrowable
    ones, happen only when prune_input picked fewer than n_p and warned:
    with all n_p picked, the n_g not removed stay in the pool.
    """
    layer = net.layers[0]
    delta = update.delta

    removed[update.pruned_neurons[:counts.n_remove]] = True

    # neuron reconnection: best row-max |gradient| wins, ties by index
    connected = layer.mask.any(axis=1)
    pool = np.flatnonzero(~connected & ~removed)
    if counts.n_g > 0:
        grad_abs = np.abs(input_dense_grad[pool])
        best_cols = np.argmax(grad_abs, axis=1)  # first max = lowest column
        pick = smallest(-grad_abs[np.arange(len(pool)), best_cols], counts.n_g)
        grow(net, 0, pool[pick] * layer.cols + best_cols[pick], delta)
        connected[pool[pick]] = True

    regrow_layer_by_gradient(net, 0, input_dense_grad, delta, rows=connected)
    return update


@dataclass
class SelectionResult:
    """Final feature ranking: indices into the original dataset columns."""

    indices: list[int]
    strengths: list[float]
    requested: int
    shortfall: bool


def select_features(net: SparseNetwork, k: int) -> SelectionResult:
    """Top-k connected input neurons by strength, descending; ties by index."""
    layer = net.layers[0]
    strengths = row_strengths(layer.weights)
    connected = np.flatnonzero(layer.mask.any(axis=1))
    shortfall = len(connected) < k
    if shortfall:
        warnings.warn(
            f"only {len(connected)} input neurons connected, fewer than the "
            f"{k} requested features",
            RuntimeWarning,
        )
    chosen = connected[smallest(-strengths[connected], k, ordered=True)]
    return SelectionResult(
        [int(i) for i in chosen],
        [float(strengths[i]) for i in chosen],
        k,
        shortfall,
    )
