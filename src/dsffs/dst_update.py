"""Hidden-layer topology dynamics: magnitude pruning + gradient regrowth.

Each update is a paired prune/regrow that swaps the weakest live
connections for the inactive positions with the largest gradient
magnitude, keeping every layer at its fixed connection count.

Every topology pick in the package goes through `smallest` or
`smallest_sparing_last`: exactly min(k, n) picks, NaN and inf included;
the first k in (score, row, col) order (largest-first picks negate the
score); with protection, each row's or column's last member in that order
goes only after all others. Cost: an O(n) partition plus O(k log k) to
order the winners, not a full sort and a per-connection loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .sparse_net import SparseNetwork, Gradients


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
        if np.isnan(kth):
            tied, tied_in = np.isnan(scores), np.isnan(scores[pick])
        else:
            tied, tied_in = scores == kth, scores[pick] == kth
        n_in = np.count_nonzero(tied_in)
        if np.count_nonzero(tied) > n_in:
            pick = np.concatenate([pick[~tied_in], np.flatnonzero(tied)[:n_in]])
        pick.sort()
    return pick[np.argsort(scores[pick], kind="stable")] if ordered else pick


def _group_lasts(flat: np.ndarray, live: np.ndarray, width: int) -> np.ndarray:
    """Positions in `flat` (ascending row-major indices, `width` wide) of each
    row's last entry: its largest `live` score (NaN above all), ties going to
    the largest column."""
    if not len(flat):
        return flat
    starts = np.flatnonzero(np.diff(flat // width, prepend=-1))
    top = np.repeat(np.maximum.reduceat(live, starts), np.diff(starts, append=len(flat)))
    at_top = (live == top) | (np.isnan(live) & np.isnan(top))
    return np.maximum.reduceat(np.where(at_top, np.arange(len(flat)), -1), starts)


def smallest_sparing_last(scores: np.ndarray, mask: np.ndarray, k: int,
                          axis: int) -> np.ndarray:
    """Flat indices of the min(k, nnz) smallest live entries of 2-D `scores`.

    Live entries are those of `mask`, ordered by (score, row, col). The
    last live entry of each group (each row for axis=1, each column for
    axis=0) goes only once every other live entry has: first the k
    smallest non-last entries, then, if those are fewer than k, the last
    entries in order.
    """
    n_rows, n_cols = mask.shape
    flat = np.flatnonzero(mask)
    live = np.take(scores, flat)
    if axis == 1:
        last = _group_lasts(flat, live, n_cols)
    else:
        # columns are the rows of the transpose; map their lasts back
        flat_t = np.flatnonzero(mask.T)
        cols, rows = np.divmod(flat_t, n_rows)
        by_col = rows * n_cols + cols
        lasts_t = _group_lasts(flat_t, np.take(scores, by_col), n_rows)
        last = np.searchsorted(flat, by_col[lasts_t])
    is_last = np.zeros(len(flat), dtype=bool)
    is_last[last] = True

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

    def pruned_mask(self, l: int, shape) -> np.ndarray:
        """Boolean mask of the positions of layer `l` pruned in this update."""
        out = np.zeros(shape, dtype=bool)
        mine = self.pruned[self.pruned[:, 0] == l]
        out[mine[:, 1], mine[:, 2]] = True
        return out


def _triples(l: int, width: int, flat: np.ndarray) -> np.ndarray:
    rows, cols = np.divmod(flat, width)
    return np.column_stack([np.full_like(rows, l), rows, cols])


def cut(layer, l: int, flat: np.ndarray, delta: TopologyDelta) -> None:
    """Deactivate layer `l` at flat row-major positions `flat`, zeroing them."""
    np.put(layer.mask, flat, False)
    np.put(layer.weights, flat, 0.0)
    delta.pruned = np.concatenate([delta.pruned, _triples(l, layer.cols, flat)])


def grow(layer, l: int, flat: np.ndarray, delta: TopologyDelta) -> None:
    """Activate layer `l` at flat row-major positions `flat` with weight zero."""
    np.put(layer.mask, flat, True)
    np.put(layer.weights, flat, 0.0)
    delta.regrown = np.concatenate([delta.regrown, _triples(l, layer.cols, flat)])


def prune_layer_by_magnitude(net: SparseNetwork, l: int, count: int,
                             delta: TopologyDelta,
                             protect_columns: bool = True) -> None:
    """Mask off the `count` weakest live connections of layer `l`.

    Candidates are taken in ascending (|weight|, row, col). With
    `protect_columns`, a column's last connection in that order is spared
    unless the quota cannot be met otherwise (see the module docstring).
    """
    layer = net.layers[l]
    if count <= 0:
        return
    mags = np.abs(layer.weights)
    if protect_columns:
        pick = smallest_sparing_last(mags, layer.mask, count, axis=0)
    else:
        live = np.flatnonzero(layer.mask)
        pick = live[smallest(np.take(mags, live), count)]
    cut(layer, l, pick, delta)


def regrow_layer_by_gradient(net: SparseNetwork, l: int, dense_grad: np.ndarray,
                             delta: TopologyDelta) -> None:
    """Activate inactive positions of layer `l` with the largest |gradient|.

    Enough positions are regrown to bring the layer back to its connection
    target (normally exactly the number just pruned), in descending
    (|gradient|, then ascending row, col). Positions pruned in this same
    update are ineligible; new connections start at weight zero.
    """
    layer = net.layers[l]
    need = net.nnz_targets[l] - layer.nnz()
    if need <= 0:
        return
    cand = np.flatnonzero(~layer.mask & ~delta.pruned_mask(l, layer.mask.shape))
    if len(cand) < need:
        warnings.warn(
            f"layer {l}: only {len(cand)} positions available to regrow "
            f"{need}; connection count will recover on a later update",
            RuntimeWarning,
        )
    grow(layer, l, cand[smallest(-np.abs(np.take(dense_grad, cand)), need)], delta)


def churn_count(net: SparseNetwork, l: int, fraction: float) -> int:
    """Connections layer `l` can prune and still regrow back to target.

    floor(fraction * nnz), capped by the inactive headroom against the
    layer target so the paired regrowth always has enough candidate
    positions (zero for a dense layer, which has nowhere to grow).
    """
    layer = net.layers[l]
    headroom = layer.rows * layer.cols - net.nnz_targets[l]
    return max(0, min(int(fraction * layer.nnz()), headroom))


def magnitude_prune_hidden(net: SparseNetwork, fraction: float) -> TopologyDelta:
    """Prune floor(fraction * nnz) weakest connections of every non-input layer."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"prune fraction must be in (0, 1), got {fraction}")
    delta = TopologyDelta()
    for l in range(1, len(net.layers)):
        if net.layers[l].nnz() == 0:
            warnings.warn(f"layer {l} has no connections; skipping prune", RuntimeWarning)
            continue
        prune_layer_by_magnitude(net, l, churn_count(net, l, fraction), delta)
    net.touch()
    return delta


def gradient_regrow_hidden(net: SparseNetwork, dense_grads: Gradients | list,
                           delta: TopologyDelta) -> TopologyDelta:
    """Regrow every non-input layer back to its connection target."""
    grads = dense_grads.dense if isinstance(dense_grads, Gradients) else dense_grads
    for l in range(1, len(net.layers)):
        regrow_layer_by_gradient(net, l, grads[l], delta)
    net.touch()
    return delta
