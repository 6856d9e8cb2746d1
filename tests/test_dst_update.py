import warnings

import numpy as np
import pytest

from dsffs.dst_update import (
    TopologyDelta,
    churn_count,
    gradient_regrow_hidden,
    magnitude_prune_hidden,
    prune_layer_by_magnitude,
)

from conftest import build_net, conns


def two_layer(hidden_w, hidden_mask=None, cols=None):
    """Net whose layer 1 is the array under test (layer 0 is a 1x-stub)."""
    hidden_w = np.array(hidden_w, dtype=float)
    stub = np.ones((1, hidden_w.shape[0]))
    return build_net([stub, hidden_w],
                     masks=None if hidden_mask is None else
                     [np.ones_like(stub, dtype=bool), np.array(hidden_mask, bool)])


class TestMagnitudePrune:
    def test_prunes_smallest_magnitude(self):
        net = two_layer([[0.9, -0.5], [0.1, 0.3], [0.0, 0.0]],
                        hidden_mask=[[1, 1], [1, 1], [0, 0]])
        delta = magnitude_prune_hidden(net, 0.25)  # floor(0.25 * 4) = 1
        assert delta.pruned.tolist() == [[1, 1, 0]]
        assert not net.layers[1].mask[1, 0]
        assert net.layers[1].weights[1, 0] == 0.0

    def test_floor_zero_is_noop(self):
        net = two_layer([[0.9, -0.5], [0.1, 0.3], [0.0, 0.0]],
                        hidden_mask=[[1, 1], [1, 1], [0, 0]])
        before = net.layers[1].mask.copy()
        delta = magnitude_prune_hidden(net, 0.2)  # floor(0.8) = 0
        assert delta.pruned.tolist() == []
        assert np.array_equal(net.layers[1].mask, before)

    def test_tie_break_lexicographic_exhaustive(self):
        # all |w| equal on a dense 2x2: the lexicographically first half goes
        net = two_layer([[0.5, -0.5], [0.5, 0.5]])
        delta = TopologyDelta()
        prune_layer_by_magnitude(net, 1, 2, delta)
        assert sorted(delta.pruned.tolist()) == [[1, 0, 0], [1, 0, 1]]
        # exhaustive over every 4-permutation of distinct magnitudes: the
        # smallest goes, then the smaller of the other column's two, since
        # column protection holds back the last of the first one's column
        from itertools import permutations
        for perm in permutations([0.1, 0.2, 0.3, 0.4]):
            w = np.array(perm).reshape(2, 2)
            net = two_layer(w)
            delta = TopologyDelta()
            prune_layer_by_magnitude(net, 1, 2, delta)
            pruned = {(i, j) for (_, i, j) in delta.pruned}
            i, j = divmod(int(np.argmin(w)), 2)
            expected = {(i, j), (int(np.argmin(w[:, 1 - j])), 1 - j)}
            assert pruned == expected

    def test_last_column_connection_protected(self):
        # 0.01 is the smallest but also column 0's only connection
        net = two_layer([[0.01, 1.0], [0.0, 2.0], [0.0, 3.0]],
                        hidden_mask=[[1, 1], [0, 1], [0, 1]])
        delta = magnitude_prune_hidden(net, 0.26)  # floor(0.26 * 4) = 1
        assert delta.pruned.tolist() == [[1, 0, 1]]
        assert net.layers[1].mask[0, 0]

    def test_empty_layer_is_a_no_op(self):
        # churn_count is 0 on an empty layer, so there is nothing to skip
        net = two_layer([[0.0, 0.0]], hidden_mask=[[0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delta = magnitude_prune_hidden(net, 0.5)
        assert delta.pruned.tolist() == []
        assert not net.layers[1].mask.any()

    def test_rejects_bad_fraction(self):
        net = two_layer([[1.0, 2.0]])
        for bad in (1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                magnitude_prune_hidden(net, bad)
        # a zero fraction is a zero count: on a layer with churn headroom,
        # nothing is pruned and no byte changes
        net = two_layer([[0.9, -0.5], [0.1, 0.3], [0.0, 0.0]],
                        hidden_mask=[[1, 1], [1, 1], [0, 0]])
        before = [(layer.mask.tobytes(), layer.weights.tobytes()) for layer in net.layers]
        delta = magnitude_prune_hidden(net, 0.0)
        assert delta.pruned.tolist() == [] and delta.regrown.tolist() == []
        assert [(layer.mask.tobytes(), layer.weights.tobytes())
                for layer in net.layers] == before

    def test_dense_layer_has_no_churn_headroom(self):
        net = two_layer([[1.0, 2.0], [3.0, 4.0]])
        assert churn_count(net, 1, 0.5) == 0
        delta = magnitude_prune_hidden(net, 0.5)
        assert delta.pruned.tolist() == []


class TestGradientRegrow:
    def test_regrows_largest_gradient(self):
        net = two_layer([[1.0, 0.0], [0.0, 2.0]], hidden_mask=[[1, 0], [0, 1]],
                        )
        net.nnz_targets[1] = 3
        delta = TopologyDelta()
        grads = [np.zeros((1, 2)), np.array([[0.0, 0.7], [0.2, 0.0]])]
        gradient_regrow_hidden(net, grads, delta)
        assert delta.regrown.tolist() == [[1, 0, 1]]
        assert net.layers[1].mask[0, 1]
        assert net.layers[1].weights[0, 1] == 0.0

    def test_nothing_pruned_nothing_regrown(self):
        net = two_layer([[1.0, 0.0], [0.0, 2.0]], hidden_mask=[[1, 0], [0, 1]])
        delta = TopologyDelta()
        grads = [np.zeros((1, 2)), np.ones((2, 2))]
        gradient_regrow_hidden(net, grads, delta)
        assert delta.regrown.tolist() == []

    def test_just_pruned_positions_ineligible(self):
        net = two_layer([[1.0, 0.0], [0.0, 2.0]], hidden_mask=[[1, 0], [0, 1]])
        net.nnz_targets[1] = 3
        delta = TopologyDelta(pruned=np.array([[1, 0, 1]]))
        grads = [np.zeros((1, 2)), np.array([[0.0, 9.9], [0.4, 0.0]])]
        gradient_regrow_hidden(net, grads, delta)
        assert delta.regrown.tolist() == [[1, 1, 0]]

    def test_nnz_conserved_over_random_instances(self):
        # 3x3 layer, 4 active, prune 2 / regrow 2, brute-force recount
        for seed in range(100):
            rng = np.random.default_rng(seed)
            mask = np.zeros(9, dtype=bool)
            mask[rng.choice(9, size=4, replace=False)] = True
            mask = mask.reshape(3, 3)
            w = rng.normal(size=(3, 3)) * mask
            net = two_layer(w, hidden_mask=mask)
            assert net.layers[1].nnz() == 4
            delta = magnitude_prune_hidden(net, 0.5)  # floor(0.5*4) = 2
            assert len(delta.pruned) == 2
            grads = [np.zeros((1, 3)), rng.normal(size=(3, 3))]
            gradient_regrow_hidden(net, grads, delta)
            assert len(delta.regrown) == 2
            recount = int(sum(bool(net.layers[1].mask[i, j])
                              for i in range(3) for j in range(3)))
            assert recount == 4
            assert not conns(delta.pruned) & conns(delta.regrown)
            net.validate()

    def test_regrown_weights_start_at_zero(self, rng):
        mask = rng.random((4, 4)) < 0.5
        mask[0, 0] = True
        w = rng.normal(size=(4, 4)) * mask
        net = two_layer(w, hidden_mask=mask)
        delta = magnitude_prune_hidden(net, 0.4)
        grads = [np.zeros((1, 4)), rng.normal(size=(4, 4))]
        gradient_regrow_hidden(net, grads, delta)
        for (_, i, j) in delta.regrown:
            assert net.layers[1].weights[i, j] == 0.0

    def test_deterministic(self, rng):
        mask = rng.random((5, 4)) < 0.6
        w = rng.normal(size=(5, 4)) * mask
        g = rng.normal(size=(5, 4))
        results = []
        for _ in range(2):
            net = two_layer(w.copy(), hidden_mask=mask.copy())
            delta = magnitude_prune_hidden(net, 0.3)
            gradient_regrow_hidden(net, [np.zeros((1, 5)), g], delta)
            results.append((delta.pruned.tolist(), delta.regrown.tolist(),
                            net.layers[1].mask.copy()))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]
        assert np.array_equal(results[0][2], results[1][2])
