"""Slow reference topology updates: full sort, then one connection at a time.

These are the original sort-then-loop routines the package replaced with
partial selections (dsffs.dst_update.smallest and smallest_sparing_last).
They mutate the network the same way and record (layer, row, col) tuples
in plain lists, and serve as the oracle of tests/test_selection.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dsffs.sparse_net import ConfigError


@dataclass
class ListDelta:
    pruned: list = field(default_factory=list)
    regrown: list = field(default_factory=list)


def smallest(scores, k):
    """First k indices of 1-D `scores` in (score, index) order."""
    return np.lexsort((np.arange(len(scores)), scores))[:max(0, k)]


def smallest_sparing_last(scores, mask, k, axis):
    """Flat indices picked by the walk that spares each group's last live entry."""
    rows_i, cols_j = np.nonzero(mask)
    order = np.lexsort((cols_j, rows_i, scores[rows_i, cols_j]))
    group = rows_i if axis == 1 else cols_j
    live = mask.sum(axis=axis)
    chosen, deferred = [], []
    for idx in order:
        if len(chosen) == k:
            break
        g = group[idx]
        if live[g] <= 1:
            deferred.append(idx)
            continue
        chosen.append(idx)
        live[g] -= 1
    for idx in deferred:
        if len(chosen) == k:
            break
        chosen.append(idx)
    return [int(rows_i[i]) * mask.shape[1] + int(cols_j[i]) for i in chosen]


def prune_layer_by_magnitude(net, l, count, delta, protect_columns=True):
    layer = net.layers[l]
    if count <= 0:
        return
    rows_i, cols_j = np.nonzero(layer.mask)
    mags = np.abs(layer.weights[rows_i, cols_j])
    order = np.lexsort((cols_j, rows_i, mags))

    chosen: list[int] = []
    if protect_columns:
        col_live = layer.mask.sum(axis=0)
        deferred: list[int] = []
        for idx in order:
            if len(chosen) == count:
                break
            j = cols_j[idx]
            if col_live[j] <= 1:
                deferred.append(idx)
                continue
            chosen.append(idx)
            col_live[j] -= 1
        for idx in deferred:
            if len(chosen) == count:
                break
            chosen.append(idx)
    else:
        chosen = list(order[:count])

    for idx in chosen:
        i, j = int(rows_i[idx]), int(cols_j[idx])
        layer.mask[i, j] = False
        layer.weights[i, j] = 0.0
        delta.pruned.append((l, i, j))


def regrow_layer_by_gradient(net, l, dense_grad, delta):
    layer = net.layers[l]
    need = net.nnz_targets[l] - layer.nnz()
    if need <= 0:
        return
    eligible = ~layer.mask
    for (ll, i, j) in delta.pruned:
        if ll == l:
            eligible[i, j] = False
    cand_i, cand_j = np.nonzero(eligible)
    need = min(need, len(cand_i))
    scores = np.abs(dense_grad[cand_i, cand_j])
    order = np.lexsort((cand_j, cand_i, -scores))
    for idx in order[:need]:
        i, j = int(cand_i[idx]), int(cand_j[idx])
        layer.mask[i, j] = True
        layer.weights[i, j] = 0.0
        delta.regrown.append((l, i, j))


def _refresh(state, layer):
    state.connected = layer.mask.any(axis=1)
    state.strengths = (np.abs(layer.weights) * layer.mask).sum(axis=1)


def prune_input(net, state, counts, zeta):
    """Returns (delta, victims) after the neuron and connection stages."""
    layer = net.layers[0]
    _refresh(state, layer)
    delta = ListDelta()

    prunable = np.nonzero(state.connected & ~state.permanently_removed)[0]
    n_p = min(counts.n_p, len(prunable))
    order = np.lexsort((prunable, state.strengths[prunable]))
    victims = [int(i) for i in prunable[order[:n_p]]]
    for i in victims:
        for j in np.nonzero(layer.mask[i])[0]:
            delta.pruned.append((0, i, int(j)))
        layer.mask[i, :] = False
        layer.weights[i, :] = 0.0

    if zeta > 0.0:
        rows_i, cols_j = np.nonzero(layer.mask)
        capacity = int(layer.mask.any(axis=1).sum()) * layer.cols
        k = min(int(zeta * len(rows_i)), max(0, capacity - net.nnz_targets[0]))
        if k > 0:
            mags = np.abs(layer.weights[rows_i, cols_j])
            conn_order = np.lexsort((cols_j, rows_i, mags))
            row_live = layer.mask.sum(axis=1)
            chosen: list[int] = []
            deferred: list[int] = []
            for idx in conn_order:
                if len(chosen) == k:
                    break
                i = rows_i[idx]
                if row_live[i] <= 1:
                    deferred.append(idx)
                    continue
                chosen.append(idx)
                row_live[i] -= 1
            for idx in deferred:
                if len(chosen) == k:
                    break
                chosen.append(idx)
            for idx in chosen:
                i, j = int(rows_i[idx]), int(cols_j[idx])
                layer.mask[i, j] = False
                layer.weights[i, j] = 0.0
                delta.pruned.append((0, i, j))

    _refresh(state, layer)
    return delta, victims


def regrow_input(net, state, counts, input_dense_grad, delta, victims):
    layer = net.layers[0]
    n_rm = min(counts.n_remove, len(victims))
    for i in victims[:n_rm]:
        state.permanently_removed[i] = True

    pruned_here = np.zeros_like(layer.mask)
    for (l, i, j) in delta.pruned:
        if l == 0:
            pruned_here[i, j] = True

    _refresh(state, layer)
    pool = np.nonzero(~state.connected & ~state.permanently_removed)[0]
    n_g = min(counts.n_g, len(pool))
    if n_g > 0:
        grad_abs = np.abs(input_dense_grad)
        best_cols = np.argmax(grad_abs[pool], axis=1)
        scores = grad_abs[pool, best_cols]
        pick = np.lexsort((pool, -scores))[:n_g]
        for k in pick:
            i, j = int(pool[k]), int(best_cols[k])
            layer.mask[i, j] = True
            layer.weights[i, j] = 0.0
            delta.regrown.append((0, i, j))

    _refresh(state, layer)
    need = net.nnz_targets[0] - layer.nnz()
    if need > 0:
        eligible = (~layer.mask) & (~pruned_here) & state.connected[:, None]
        cand_i, cand_j = np.nonzero(eligible)
        need = min(need, len(cand_i))
        g = np.abs(input_dense_grad[cand_i, cand_j])
        order = np.lexsort((cand_j, cand_i, -g))
        for idx in order[:need]:
            i, j = int(cand_i[idx]), int(cand_j[idx])
            layer.mask[i, j] = True
            layer.weights[i, j] = 0.0
            delta.regrown.append((0, i, j))
    _refresh(state, layer)


def keep_topk(agg_layer, kept, target, allowed_rows, adjust, adjust_rate):
    w_abs = np.abs(agg_layer.weights)
    allowed = allowed_rows[:, None] & ~kept

    deficit = target - int(kept.sum())
    if deficit > 0:
        cand_i, cand_j = np.nonzero(allowed)
        if len(cand_i) < deficit:
            raise ConfigError("cannot restore the layer connection target")
        order = np.lexsort((cand_j, cand_i, -w_abs[cand_i, cand_j]))
        for idx in order[:deficit]:
            kept[cand_i[idx], cand_j[idx]] = True
            allowed[cand_i[idx], cand_j[idx]] = False

    if adjust and adjust_rate > 0.0:
        budget = int(adjust_rate * target)
        if budget > 0:
            kept_i, kept_j = np.nonzero(kept)
            kept_order = np.lexsort((kept_j, kept_i, w_abs[kept_i, kept_j]))
            cand_i, cand_j = np.nonzero(allowed)
            cand_order = np.lexsort((cand_j, cand_i, -w_abs[cand_i, cand_j]))
            n_swaps = min(budget, len(kept_order), len(cand_order))
            for k in range(n_swaps):
                ki, kj = kept_i[kept_order[k]], kept_j[kept_order[k]]
                ci, cj = cand_i[cand_order[k]], cand_j[cand_order[k]]
                if w_abs[ci, cj] <= w_abs[ki, kj]:
                    break
                kept[ki, kj] = False
                kept[ci, cj] = True
    return kept
