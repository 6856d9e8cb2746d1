import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsffs.input_selector import (
    InputSchedule,
    ScheduleCounts,
    compute_schedule,
    prune_input,
    regrow_input,
    row_strengths,
    select_features,
)

from conftest import build_net


def input_net(w, mask=None, hidden=None):
    """Net whose layer 0 is the array under test plus a small second layer."""
    w = np.array(w, dtype=float)
    if hidden is None:
        hidden = np.ones((w.shape[1], 2))
    return build_net([w, hidden],
                     masks=None if mask is None else
                     [np.array(mask, bool), np.ones_like(hidden, dtype=bool)])


class TestNeuronStrength:
    """A neuron's strength is the L1 norm of its live input-layer row (row_strengths)."""

    def test_l1_sum(self):
        net = input_net([[0.5, -0.3, 0.2], [0.0, 0.0, 0.0]])
        assert row_strengths(net.layers[0])[0] == pytest.approx(1.0)

    def test_disconnected_row_is_zero(self):
        net = input_net([[0.5, 0.1], [0.0, 0.0]], mask=[[1, 1], [0, 0]])
        assert row_strengths(net.layers[0])[1] == 0.0

    def test_absolute_value(self):
        net = input_net([[-2.0]])
        assert row_strengths(net.layers[0])[0] == pytest.approx(2.0)

    def test_index_bounds(self):
        strengths = row_strengths(input_net([[1.0]]).layers[0])
        assert strengths.shape == (1,)
        with pytest.raises(IndexError):
            strengths[1]


class TestSchedule:
    def config(self):
        return InputSchedule(784, 150, 0.2, 0.65, 400)

    def test_budget_arithmetic(self):
        s = self.config()
        assert s.r_remove == 260
        assert s.T == 478

    def test_round_one(self):
        s = self.config()
        c = compute_schedule(s, 1)
        assert (c.n_p, c.n_remove, c.n_g) == (2, 2, 0)

    def test_round_two(self):
        s = self.config()
        s.record(2)
        c = compute_schedule(s, 2)
        assert (c.n_p, c.n_remove, c.n_g) == (3, 2, 1)

    def test_degenerate_when_k_covers_everything(self):
        s = InputSchedule(100, 90, 0.2, 0.65, 50)  # K >= (1-zeta)*D
        assert s.T == 0
        for r in range(1, 51):
            c = compute_schedule(s, r)
            assert c.n_remove == 0
            s.record(c.n_remove)

    def test_removals_sum_to_budget(self):
        s = self.config()
        realized = []
        for r in range(1, 401):
            c = compute_schedule(s, r)
            realized.append(c.n_remove)
            s.record(c.n_remove)
            assert s.T_r <= s.T
        assert sum(realized) == 478
        assert all(n == 0 for n in realized[260:])
        assert s.D - s.T == 306

    def test_round_out_of_range(self):
        s = self.config()
        with pytest.raises(ValueError):
            compute_schedule(s, 0)
        with pytest.raises(ValueError):
            compute_schedule(s, 401)

    def test_history_must_match(self):
        s = self.config()
        with pytest.raises(ValueError, match="history"):
            compute_schedule(s, 3)

    def test_regrowth_capped_by_removed_pool(self):
        s = InputSchedule(100, 10, 0.9, 0.5, 10)
        s.history = [1]
        c = compute_schedule(s, 2)
        assert c.n_g <= 1

    def test_connected_never_below_k(self):
        # adversarial small config: caps must keep D - T_r - n_p >= K
        s = InputSchedule(20, 8, 0.2, 0.5, 10)
        for r in range(1, 11):
            c = compute_schedule(s, r)
            assert s.D - s.T_r - c.n_p >= s.K
            s.record(c.n_remove)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_schedule_exact_for_any_parameters(self, data):
        D = data.draw(st.integers(1, 1000))
        K = data.draw(st.integers(1, D))
        zeta = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        beta = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        s = InputSchedule(D, K, zeta, beta, data.draw(st.integers(1, 80)))
        for r in range(1, s.r_max + 1):
            c = compute_schedule(s, r)
            assert c.n_p >= c.n_remove >= 0 and c.n_g >= 0
            if r > s.r_remove:
                assert c.n_remove == 0
            s.record(c.n_remove)
            assert s.D - s.T_r >= s.K
        assert s.T_r == s.T

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            InputSchedule(10, 20, 0.2, 0.65, 10)   # K > D
        with pytest.raises(ValueError):
            InputSchedule(10, 5, 0.2, 1.0, 10)     # beta out of range
        with pytest.raises(ValueError):
            InputSchedule(10, 5, 1.0, 0.5, 10)     # zeta out of range


def brute_force_prune(weights, mask, removed, n_p, zeta):
    """Naive reimplementation of the input prune rules (loops and sorted())."""
    w = np.array(weights, dtype=float)
    m = np.array(mask, dtype=bool)
    d, cols = m.shape
    strengths = [sum(abs(w[i, j]) for j in range(cols) if m[i, j]) for i in range(d)]
    prunable = [i for i in range(d) if m[i].any() and not removed[i]]
    victims = sorted(prunable, key=lambda i: (strengths[i], i))[:n_p]
    for i in victims:
        m[i, :] = False
        w[i, :] = 0.0
    active = [(i, j) for i in range(d) for j in range(cols) if m[i, j]]
    k = int(zeta * len(active))
    by_weight = sorted(active, key=lambda ij: (abs(w[ij]), ij[0], ij[1]))
    live_per_row = {i: int(m[i].sum()) for i in range(d)}
    chosen, deferred = [], []
    for ij in by_weight:
        if len(chosen) == k:
            break
        if live_per_row[ij[0]] <= 1:
            deferred.append(ij)
            continue
        chosen.append(ij)
        live_per_row[ij[0]] -= 1
    chosen += deferred[: k - len(chosen)]
    for ij in chosen:
        m[ij] = False
        w[ij] = 0.0
    return w, m, victims


class TestPruneInput:
    def test_lowest_strength_neuron_disconnected(self):
        net = input_net([[0.9], [0.1], [0.5]])
        removed = np.zeros(net.layers[0].rows, dtype=bool)
        prune_input(net, removed, ScheduleCounts(0, 1), zeta=0.0)
        assert not net.layers[0].mask[1].any()
        assert net.layers[0].mask[0].any() and net.layers[0].mask[2].any()

    def test_zeta_zero_only_neuron_pruning(self):
        net = input_net([[0.9, 0.8], [0.1, 0.2], [0.5, 0.4]])
        removed = np.zeros(net.layers[0].rows, dtype=bool)
        before = net.layers[0].nnz()
        update = prune_input(net, removed, ScheduleCounts(1, 0), zeta=0.0)
        assert net.layers[0].nnz() == before - 2  # only row 1's two connections
        assert update.pruned_neurons == [1]

    def test_matches_brute_force_simulator(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            mask = rng.random((10, 6)) < 0.5
            w = rng.normal(size=(10, 6)) * mask
            removed = np.zeros(10, dtype=bool)
            removed[rng.integers(0, 10)] = mask[rng.integers(0, 10)].any() and False
            net = input_net(w, mask=mask, hidden=np.ones((6, 2)))
            prune_input(net, removed.copy(), ScheduleCounts(1, 1), zeta=0.2)
            bw, bm, victims = brute_force_prune(w, mask, removed, 2, 0.2)
            assert np.array_equal(net.layers[0].mask, bm)
            assert np.array_equal(net.layers[0].weights, bw)

    def test_shortfall_warns(self):
        net = input_net([[0.5], [0.0]], mask=[[1], [0]])
        removed = np.zeros(net.layers[0].rows, dtype=bool)
        with pytest.warns(RuntimeWarning, match="prunable"):
            prune_input(net, removed, ScheduleCounts(2, 0), zeta=0.0)


class TestRegrowInput:
    def test_reconnects_highest_gradient_column(self):
        net = input_net([[0.7, 0.2], [0.0, 0.0]], mask=[[1, 1], [0, 0]])
        net.nnz_targets[0] = 3
        removed = np.zeros(net.layers[0].rows, dtype=bool)
        from dsffs.input_selector import InputUpdate
        from dsffs.dst_update import TopologyDelta
        update = InputUpdate(TopologyDelta(), [])
        grads = np.array([[0.0, 0.0], [0.1, 0.8]])
        regrow_input(net, removed, ScheduleCounts(0, 1), grads, update)
        assert net.layers[0].mask[1, 1]
        assert net.layers[0].weights[1, 1] == 0.0
        assert net.layers[0].nnz() == 3

    def test_ng_zero_restores_connections_only(self):
        rng = np.random.default_rng(3)
        mask = rng.random((8, 5)) < 0.6
        mask[0] = True  # keep at least one clearly connected row
        w = rng.normal(size=(8, 5)) * mask
        net = input_net(w, mask=mask, hidden=np.ones((5, 2)))
        removed = np.zeros(net.layers[0].rows, dtype=bool)
        target = net.layers[0].nnz()
        update = prune_input(net, removed, ScheduleCounts(0, 0), zeta=0.3)
        regrow_input(net, removed, ScheduleCounts(0, 0),
                     rng.normal(size=(8, 5)), update)
        assert net.layers[0].nnz() == target

    def test_round_trip_preserves_nnz(self):
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            mask = rng.random((12, 7)) < 0.45
            w = rng.normal(size=(12, 7)) * mask
            net = input_net(w, mask=mask, hidden=np.ones((7, 2)))
            removed = np.zeros(net.layers[0].rows, dtype=bool)
            target = net.layers[0].nnz()
            counts = ScheduleCounts(1, 1)
            update = prune_input(net, removed, counts, zeta=0.2)
            regrow_input(net, removed, counts, rng.normal(size=(12, 7)), update)
            assert net.layers[0].nnz() == target
            net.validate()

    def test_permanent_removal_matches_lowest_strength(self):
        net = input_net([[0.9, 0.9], [0.1, 0.1], [0.5, 0.5], [0.2, 0.2]])
        removed = np.zeros(net.layers[0].rows, dtype=bool)
        counts = ScheduleCounts(1, 1)
        update = prune_input(net, removed, counts, zeta=0.0)
        assert update.pruned_neurons == [1, 3]  # ascending strength
        # the dense layer has no free position off the pruned ones
        with pytest.warns(RuntimeWarning, match="layer 0: only 0 positions available"):
            regrow_input(net, removed, counts, np.ones((4, 2)), update)
        assert removed[1]                       # weakest stays out for good
        assert not removed[3]
        assert net.layers[0].mask[3].any()      # the other was regrown
        assert not net.layers[0].mask[1].any()

    def test_same_epoch_pruned_positions_not_regrown(self):
        # connection churn never reuses a just-pruned position; only a
        # reconnected neuron's fresh single entry point may coincide
        for seed in range(30):
            rng = np.random.default_rng(seed)
            mask = rng.random((9, 5)) < 0.5
            w = rng.normal(size=(9, 5)) * mask
            net = input_net(w, mask=mask, hidden=np.ones((5, 2)))
            removed = np.zeros(net.layers[0].rows, dtype=bool)
            counts = ScheduleCounts(1, 1)
            update = prune_input(net, removed, counts, zeta=0.25)
            regrow_input(net, removed, counts, rng.normal(size=(9, 5)), update)
            overlap = (set(map(tuple, update.delta.pruned.tolist()))
                       & set(map(tuple, update.delta.regrown.tolist())))
            # such a neuron was cleared whole this update and is connected again
            assert all(i in update.pruned_neurons and net.layers[0].mask[i].any()
                       for (_, i, _j) in overlap)

    def test_permanently_removed_never_reconnected(self):
        rng = np.random.default_rng(5)
        mask = rng.random((10, 4)) < 0.6
        w = rng.normal(size=(10, 4)) * mask
        net = input_net(w, mask=mask, hidden=np.ones((4, 2)))
        removed = np.zeros(10, dtype=bool)
        # from the fourth removal on, the rows left cannot regrow to the target
        with pytest.warns(RuntimeWarning, match="layer 0: only .* positions available"):
            for step in range(5):
                counts = ScheduleCounts(1, 1)
                update = prune_input(net, removed, counts, zeta=0.2)
                regrow_input(net, removed, counts, rng.normal(size=(10, 4)), update)
                assert not net.layers[0].mask[removed].any()
        assert int(removed.sum()) == 5


class TestSelectFeatures:
    def test_top_k_by_strength(self):
        net = input_net([[0.1], [0.9], [0.5]])
        sel = select_features(net, 2)
        assert sel.indices == [1, 2]
        assert sel.strengths == pytest.approx([0.9, 0.5])
        assert not sel.shortfall

    def test_k_equals_connected(self):
        net = input_net([[0.1], [0.9], [0.5]])
        sel = select_features(net, 3)
        assert sel.indices == [1, 2, 0]

    def test_tie_break_lowest_index(self):
        net = input_net([[0.5], [0.5], [0.5]])
        sel = select_features(net, 2)
        assert sel.indices == [0, 1]

    def test_shortfall_flag(self):
        net = input_net([[0.5], [0.0]], mask=[[1], [0]])
        with pytest.warns(RuntimeWarning):
            sel = select_features(net, 2)
        assert sel.indices == [0]
        assert sel.shortfall

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(8)
        mask = rng.random((15, 6)) < 0.5
        w = rng.normal(size=(15, 6)) * mask
        net = input_net(w, mask=mask, hidden=np.ones((6, 2)))
        sel_a = select_features(net, 5)
        net.layers[0].weights *= 3.7
        sel_b = select_features(net, 5)
        assert sel_a.indices == sel_b.indices
