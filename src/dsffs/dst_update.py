"""Connection churn for every layer: magnitude pruning + gradient regrowth.

Each update is a paired prune/regrow that swaps the weakest live
connections for the inactive positions with the largest gradient
magnitude, keeping every layer at its fixed connection count. The hidden
layers, plain-DST layer 0 and the input layer under feature selection all
churn through `prune_layer_by_magnitude` and `regrow_layer_by_gradient`;
feature selection adds only its neuron stage (`input_selector`).

Every topology pick in the package but one goes through `smallest` or
`smallest_sparing_last`: exactly min(k, n) picks, NaN and inf included;
the first k in (score, row, col) order (largest-first picks negate the
score); with protection, each row's or column's last member in that order
goes only after all others. Cost: an O(n) partition plus O(k log k) to
order the winners, not a full sort and a per-connection loop. The
exception is `input_selector.regrow_input`, which picks each reconnected
row's column with `np.argmax` (the first maximum, so the lowest column).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .sparse_net import SparseNetwork


def smallest(scores: np.ndarray, k: int, ordered: bool = False) -> np.ndarray:
    """Indices of the first min(k, n) entries of 1-D `scores` in (score, index) order.

    NaN ranks above every number. The indices come ascending, or in
    (score, index) order with `ordered`, which costs the O(k log k) sort.
    """
    n = len(scores)
    k = max(0, min(int(k), n))
    if k in (0, n):
        pick = np.arange(k)
    else:
        pick = np.argpartition(scores, k - 1)[:k]
        kth = scores[pick[-1]]
        # the partition settles ties at the k-th value arbitrarily; when
        # some fall outside the pick, the lowest-index ones go in instead
        tied = np.isnan(scores) if np.isnan(kth) else scores == kth
        tied_in = tied[pick]
        n_in = np.count_nonzero(tied_in)
        if np.count_nonzero(tied) > n_in:
            pick = np.concatenate([pick[~tied_in], np.flatnonzero(tied)[:n_in]])
        pick.sort()
    return pick[np.argsort(scores[pick], kind="stable")] if ordered else pick


def smallest_sparing_last(live: np.ndarray, flat: np.ndarray, shape: tuple[int, int],
                          k: int, axis: int) -> np.ndarray:
    """Flat indices of the min(k, n) smallest live entries of a 2-D layer.

    `flat` is the layer's live index, np.flatnonzero(mask) for a layer of
    `shape`, and `live` the scores aligned with it, so a caller scores the
    live entries only. They are ordered by (score, row, col), NaN above
    every number. The last live entry of each group (each row for
    axis=1, each column for axis=0) goes only once every other live entry
    has: first the k smallest non-last entries, then, if those are fewer
    than k, the last entries in order. A group's last entry is its largest
    score, ties going to the largest column of a row or the largest row of
    a column.
    """
    n_cols = shape[1]
    group = flat // n_cols if axis == 1 else flat % n_cols
    n_groups = shape[1 - axis]
    top = np.full(n_groups, -np.inf)
    # np.maximum propagates NaN, so a group holding one tops out at NaN
    with np.errstate(invalid="ignore"):
        np.maximum.at(top, group, live)
    at_top = (live == top[group]) | np.isnan(live)
    # in row-major order the largest position among a group's top scores
    # is its last member
    last = np.full(n_groups, -1)
    np.maximum.at(last, group[at_top], np.flatnonzero(at_top))
    is_last = np.zeros(len(flat), dtype=bool)
    is_last[last[last >= 0]] = True

    others = np.flatnonzero(~is_last)
    pick = others[smallest(live[others], k)]
    if len(pick) < k:
        lasts = np.flatnonzero(is_last)
        pick = np.concatenate([pick, lasts[smallest(live[lasts], k - len(pick))]])
    return flat[pick]


@dataclass
class TopologyDelta:
    """Connections one prune/regrow update removed and added.

    `pruned` and `regrown` are (n, 3) integer arrays of (layer, row, col).
    """

    pruned: np.ndarray = field(default_factory=lambda: np.empty((0, 3), dtype=np.intp))
    regrown: np.ndarray = field(default_factory=lambda: np.empty((0, 3), dtype=np.intp))


def _triples(l: int, width: int, flat: np.ndarray) -> np.ndarray:
    rows, cols = np.divmod(flat, width)
    return np.column_stack([np.full_like(rows, l), rows, cols])


def cut(net: SparseNetwork, l: int, flat: np.ndarray, delta: TopologyDelta) -> None:
    """Deactivate layer `l` at flat row-major positions `flat`, zeroing them.

    Bumps the network version, so callers need not `touch()` after it.
    """
    layer = net.layers[l]
    np.put(layer.mask, flat, False)
    np.put(layer.weights, flat, 0.0)
    delta.pruned = np.concatenate([delta.pruned, _triples(l, layer.cols, flat)])
    net.touch()


def grow(net: SparseNetwork, l: int, flat: np.ndarray, delta: TopologyDelta) -> None:
    """Activate layer `l` at flat row-major positions `flat` with weight zero.

    Bumps the network version, so callers need not `touch()` after it.
    """
    layer = net.layers[l]
    np.put(layer.mask, flat, True)
    np.put(layer.weights, flat, 0.0)
    delta.regrown = np.concatenate([delta.regrown, _triples(l, layer.cols, flat)])
    net.touch()


def prune_layer_by_magnitude(net: SparseNetwork, l: int, count: int,
                             delta: TopologyDelta, axis: int = 0) -> None:
    """Mask off the `count` weakest live connections of layer `l`.

    Candidates are taken in ascending (|weight|, row, col). The last
    connection of each column (axis=0) or row (axis=1) in that order is
    spared unless the quota cannot be met otherwise (see the module
    docstring).
    """
    if count <= 0:
        return
    layer = net.layers[l]
    flat = np.flatnonzero(layer.mask)
    # abs of the gathered live weights, not of the whole layer
    live = np.take(layer.weights, flat)
    np.abs(live, out=live)
    cut(net, l, smallest_sparing_last(live, flat, layer.mask.shape, count, axis), delta)


def regrow_layer_by_gradient(net: SparseNetwork, l: int, dense_grad: np.ndarray,
                             delta: TopologyDelta, rows: np.ndarray | None = None) -> None:
    """Activate inactive positions of layer `l` with the largest |gradient|.

    Enough positions are regrown to bring the layer back to its connection
    target (normally exactly the number just pruned), in descending
    (|gradient|, then ascending row, col). Positions pruned in this same
    update are ineligible, and so are rows outside the boolean `rows`
    mask when one is given; new connections start at weight zero.
    """
    layer = net.layers[l]
    need = net.nnz_targets[l] - layer.nnz()
    if need <= 0:
        return
    eligible = ~layer.mask
    _, pruned_rows, pruned_cols = delta.pruned[delta.pruned[:, 0] == l].T
    eligible[pruned_rows, pruned_cols] = False
    if rows is not None:
        eligible &= rows[:, None]
    cand = np.flatnonzero(eligible)
    if len(cand) < need:
        warnings.warn(
            f"layer {l}: only {len(cand)} positions available to regrow "
            f"{need}; connection count will recover on a later update",
            RuntimeWarning,
        )
    scores = np.take(dense_grad, cand)
    np.negative(np.abs(scores, out=scores), out=scores)
    grow(net, l, cand[smallest(scores, need)], delta)


def churn_count(net: SparseNetwork, l: int, fraction: float,
                rows: np.ndarray | None = None) -> int:
    """Connections layer `l` can prune and still regrow back to target.

    floor(fraction * nnz), capped by the inactive headroom against the
    layer target (zero for a dense layer, which has nowhere to grow). With
    a boolean `rows` mask, only those rows count as room to regrow. The
    cap leaves the paired regrowth enough candidate positions only when
    the rows can hold the target at all: when they cannot (layer 0 once
    the removal schedule has left too few inputs, under selection with
    Q >= 2, as in the `k_features: 3` desk run of `test_golden.py`), the
    count is zero and `regrow_layer_by_gradient` can come up short and warn.
    """
    layer = net.layers[l]
    n_rows = layer.rows if rows is None else int(np.count_nonzero(rows))
    headroom = n_rows * layer.cols - net.nnz_targets[l]
    return max(0, min(int(fraction * layer.nnz()), headroom))


def magnitude_prune_hidden(net: SparseNetwork, fraction: float) -> TopologyDelta:
    """Prune floor(fraction * nnz) weakest connections of every non-input layer."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"prune fraction must be in (0, 1), got {fraction}")
    delta = TopologyDelta()
    for l in range(1, len(net.layers)):
        prune_layer_by_magnitude(net, l, churn_count(net, l, fraction), delta)
    return delta


def gradient_regrow_hidden(net: SparseNetwork, dense_grads: list,
                           delta: TopologyDelta) -> TopologyDelta:
    """Regrow every non-input layer back to its target by dense-gradient magnitude."""
    for l in range(1, len(net.layers)):
        regrow_layer_by_gradient(net, l, dense_grads[l], delta)
    return delta
