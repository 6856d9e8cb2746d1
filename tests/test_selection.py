"""Partial-selection helpers and their call sites against the slow reference.

Every rewritten topology routine must pick exactly the positions the
original sort-then-loop code picked (tests/reference_topology.py), ties,
NaN and inf included.
"""

import warnings
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_topology as ref
from dsffs.dst_update import (
    TopologyDelta,
    prune_layer_by_magnitude,
    regrow_layer_by_gradient,
    smallest,
    smallest_sparing_last,
)
from dsffs.fed_core import _keep_topk
from dsffs.input_selector import ScheduleCounts, prune_input, regrow_input, select_features
from dsffs.sparse_net import ConfigError, SparseLayer, SparseNetwork

# few distinct values, so ties are common; NaN and inf stand for a diverging run
VALUES = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 2.0, np.inf, np.nan])
PROPERTY = settings(max_examples=150, deadline=None)


def scores_1d(n):
    return hnp.arrays(np.float64, n, elements=VALUES)


@st.composite
def layers(draw, max_rows=7, max_cols=6):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    mask = draw(hnp.arrays(np.bool_, (rows, cols)))
    signs = draw(hnp.arrays(np.bool_, (rows, cols)))
    mags = draw(hnp.arrays(np.float64, (rows, cols), elements=VALUES))
    weights = np.where(signs, -mags, mags)
    weights[~mask] = 0.0
    return SparseLayer(weights, mask, np.zeros(cols))


def network(layer, extra_target=0):
    nnz = layer.nnz()
    density = nnz / (layer.rows * layer.cols)
    return SparseNetwork([layer.copy()], 1.0 - density, [density], [nnz + extra_target])


def conns(triples) -> set:
    return {tuple(int(v) for v in t) for t in triples}


def same_layer(a: SparseLayer, b: SparseLayer) -> bool:
    return (np.array_equal(a.mask, b.mask)
            and np.array_equal(a.weights, b.weights, equal_nan=True))


class TestSmallest:
    @PROPERTY
    @given(st.data())
    def test_matches_full_sort(self, data):
        scores = data.draw(st.integers(0, 30).flatmap(scores_1d))
        k = data.draw(st.integers(-1, len(scores) + 2))
        expected = ref.smallest(scores, k)
        assert smallest(scores, k, ordered=True).tolist() == expected.tolist()
        assert smallest(scores, k).tolist() == sorted(expected.tolist())

    def test_all_equal_scores_go_in_index_order(self):
        assert smallest(np.full(6, 0.5), 3, ordered=True).tolist() == [0, 1, 2]

    def test_k_zero_and_k_beyond_n(self):
        scores = np.array([3.0, 1.0, 2.0])
        assert smallest(scores, 0).tolist() == []
        assert smallest(scores, 3, ordered=True).tolist() == [1, 2, 0]
        assert smallest(scores, 10, ordered=True).tolist() == [1, 2, 0]

    def test_exact_count_with_nan_and_inf(self):
        scores = np.array([np.nan, np.inf, 1.0, np.nan, -np.inf, np.nan])
        for k in range(len(scores) + 1):
            assert len(smallest(scores, k)) == k
        assert smallest(scores, 4, ordered=True).tolist() == [4, 2, 1, 0]


def sparing_last(scores, mask, k, axis):
    """smallest_sparing_last on the live entries of 2-D `scores`."""
    flat = np.flatnonzero(mask)
    return smallest_sparing_last(np.take(scores, flat), flat, mask.shape, k, axis)


class TestSmallestSparingLast:
    @PROPERTY
    @given(st.data())
    def test_matches_walk(self, data):
        layer = data.draw(layers())
        # signed weights carry -inf, which meets the -inf seed of the
        # per-group top score
        scores = data.draw(st.sampled_from([np.abs(layer.weights), layer.weights]))
        axis = data.draw(st.sampled_from([0, 1]))
        k = data.draw(st.integers(0, layer.nnz() + 2))
        got = sparing_last(scores, layer.mask, k, axis)
        assert len(got) == min(k, layer.nnz())
        expected = ref.smallest_sparing_last(scores, layer.mask, k, axis)
        assert sorted(got.tolist()) == sorted(expected)

    def test_groups_with_one_member_are_spared_first(self):
        # every column has one live entry, so every entry is a column's last
        mask = np.eye(3, dtype=bool)
        scores = np.diag([0.3, 0.1, 0.2])
        assert sorted(sparing_last(scores, mask, 2, axis=0).tolist()) == [4, 8]

    def test_top_up_from_deferred(self):
        # 2x2 dense, columns protected: two non-last entries, then the
        # smaller of the two column lasts
        scores = np.array([[0.1, 0.4], [0.3, 0.2]])
        mask = np.ones((2, 2), dtype=bool)
        got = sparing_last(scores, mask, 3, axis=0)
        assert sorted(got.tolist()) == sorted(ref.smallest_sparing_last(scores, mask, 3, 0))
        assert sorted(got.tolist()) == [0, 2, 3]

    def test_exact_count_with_nan(self):
        scores = np.array([[np.nan, 1.0], [np.nan, np.nan]])
        mask = np.ones((2, 2), dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for axis in (0, 1):
                for k in range(5):
                    assert len(sparing_last(scores, mask, k, axis)) == min(k, 4)


class TestCallSites:
    @PROPERTY
    @given(layers(), st.integers(0, 12), st.sampled_from([0, 1]))
    def test_prune_layer_by_magnitude(self, layer, count, axis):
        new, old = network(layer), network(layer)
        delta, ref_delta = TopologyDelta(), ref.ListDelta()
        prune_layer_by_magnitude(new, 0, count, delta, axis=axis)
        if axis == 0:
            ref.prune_layer_by_magnitude(old, 0, count, ref_delta)
        else:
            # rows protected: the walk input selection's connection stage ran
            for flat in ref.smallest_sparing_last(np.abs(layer.weights), layer.mask, count, 1):
                i, j = divmod(flat, layer.cols)
                old.layers[0].mask[i, j] = False
                old.layers[0].weights[i, j] = 0.0
                ref_delta.pruned.append((0, i, j))
        assert same_layer(new.layers[0], old.layers[0])
        assert conns(delta.pruned) == conns(ref_delta.pruned)
        assert len(delta.pruned) == len(ref_delta.pruned)

    @PROPERTY
    @given(st.data())
    def test_prune_then_regrow_layer(self, data):
        layer = data.draw(layers())
        count = data.draw(st.integers(0, layer.nnz()))
        extra = data.draw(st.integers(0, 3))
        grad = data.draw(hnp.arrays(np.float64, layer.mask.shape, elements=VALUES))
        new, old = network(layer, extra), network(layer, extra)
        delta, ref_delta = TopologyDelta(), ref.ListDelta()
        prune_layer_by_magnitude(new, 0, count, delta)
        ref.prune_layer_by_magnitude(old, 0, count, ref_delta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            regrow_layer_by_gradient(new, 0, grad, delta)
        ref.regrow_layer_by_gradient(old, 0, grad, ref_delta)
        assert same_layer(new.layers[0], old.layers[0])
        assert conns(delta.regrown) == conns(ref_delta.regrown)

    @PROPERTY
    @given(st.data())
    def test_input_prune_and_regrow(self, data):
        layer = data.draw(layers(max_rows=9, max_cols=5))
        removed = data.draw(hnp.arrays(np.bool_, layer.rows))
        # every pruned neuron is removed or balanced by a regrown one
        n_p = data.draw(st.integers(0, layer.rows + 1))
        n_remove = data.draw(st.integers(0, n_p))
        counts = ScheduleCounts(n_remove, n_p - n_remove)
        zeta = data.draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
        extra = data.draw(st.integers(0, 3))
        grad = data.draw(hnp.arrays(np.float64, layer.mask.shape, elements=VALUES))

        new, old = network(layer, extra), network(layer, extra)
        new_removed = removed.copy()
        ref_state = SimpleNamespace(permanently_removed=removed.copy())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            update = prune_input(new, new_removed, counts, zeta)
            ref_delta, victims = ref.prune_input(old, ref_state, counts, zeta)
            assert update.pruned_neurons == victims
            assert same_layer(new.layers[0], old.layers[0])
            assert conns(update.delta.pruned) == conns(ref_delta.pruned)
            regrow_input(new, new_removed, counts, grad, update)
        ref.regrow_input(old, ref_state, counts, grad, ref_delta, victims)
        assert same_layer(new.layers[0], old.layers[0])
        assert conns(update.delta.regrown) == conns(ref_delta.regrown)
        assert np.array_equal(new_removed, ref_state.permanently_removed)
        assert np.array_equal(new.layers[0].mask.any(axis=1), ref_state.connected)

    @PROPERTY
    @given(layers(max_rows=9), st.integers(1, 11))
    def test_select_features_matches_lexsort(self, layer, k):
        strengths = np.abs(layer.weights).sum(axis=1)
        connected = np.flatnonzero(layer.mask.any(axis=1))
        expected = connected[np.lexsort((connected, -strengths[connected]))[:k]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = select_features(network(layer), k)
        assert got.indices == expected.tolist()
        assert np.array_equal(got.strengths, strengths[expected], equal_nan=True)
        assert got.shortfall == (len(connected) < k)

    @PROPERTY
    @given(st.data())
    def test_keep_topk(self, data):
        layer = data.draw(layers())
        kept = data.draw(hnp.arrays(np.bool_, layer.mask.shape))
        allowed_rows = data.draw(hnp.arrays(np.bool_, layer.rows))
        kept &= allowed_rows[:, None]
        target = int(kept.sum()) + data.draw(st.integers(0, 4))
        adjust = data.draw(st.booleans())
        rate = data.draw(st.sampled_from([0.0, 0.3, 0.6, 0.99]))
        outcomes = []
        # the reference takes the layer, _keep_topk its weights
        for keep, arg in ((_keep_topk, layer.weights), (ref.keep_topk, layer)):
            try:
                outcomes.append(keep(arg, kept.copy(), target, allowed_rows, adjust, rate))
            except ConfigError:
                outcomes.append(None)
        new, old = outcomes
        if old is None:
            assert new is None
        else:
            assert np.array_equal(new, old)
            assert int(new.sum()) == target


def test_prune_on_all_equal_weights_matches_reference():
    # every weight equal: the lowest (row, col) positions go first
    layer = SparseLayer(np.full((3, 3), 0.5), np.ones((3, 3), dtype=bool), np.zeros(3))
    new, old = network(layer, 0), network(layer, 0)
    delta, ref_delta = TopologyDelta(), ref.ListDelta()
    prune_layer_by_magnitude(new, 0, 4, delta)
    ref.prune_layer_by_magnitude(old, 0, 4, ref_delta)
    assert conns(delta.pruned) == conns(ref_delta.pruned)
