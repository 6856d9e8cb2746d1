import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsffs import fed_core
from dsffs.data import PartitionedDataset, generate_synthetic, partition_noniid
from dsffs.fed_core import (
    ClientUpdate,
    FedConfig,
    ServerState,
    _shared_mask_drift,
    local_train,
    plan_run,
    resparsify_and_reconcile,
    run_training,
)
from dsffs.input_selector import ScheduleCounts, removal_plan, row_strengths
from dsffs.metrics import inference_flops, upload_cost_bits
from dsffs.sparse_net import ConfigError, init_er_topology

from conftest import build_net, fold, plan_and_train, tiny_partition


def brute_force_average(client_nets, weights):
    """Dense weighted average with zero fill, computed the slow way."""
    out = []
    total = sum(weights)
    for l in range(len(client_nets[0].layers)):
        shape = client_nets[0].layers[l].weights.shape
        acc = np.zeros(shape)
        for i in range(shape[0]):
            for j in range(shape[1]):
                s = 0.0
                for net, n_m in zip(client_nets, weights):
                    if net.layers[l].mask[i, j]:
                        s += n_m * net.layers[l].weights[i, j]
                acc[i, j] = s / total
        out.append(acc)
    return out


class TestAggregate:
    def test_single_client_identity(self):
        net = init_er_topology([6, 4, 3], 0.5, seed=1)
        out = fold([(17, net)])
        for (w, b), layer in zip(out, net.layers):
            assert np.array_equal(w, layer.weights)
            assert np.array_equal(b, layer.bias)

    def test_weighted_mean_at_shared_position(self):
        a = build_net([[[2.0]]])
        b = build_net([[[4.0]]])
        out = fold([(1, a), (3, b)])
        assert out[0][0][0, 0] == pytest.approx(3.5, abs=1e-15)

    def test_zero_fill_for_missing_position(self):
        a = build_net([[[4.0]]])
        b = build_net([[[0.0]]], masks=[[[0]]])
        out = fold([(1, a), (1, b)])
        assert out[0][0][0, 0] == pytest.approx(2.0, abs=1e-15)

    def test_matches_brute_force_oracle(self):
        for trial in range(50):
            rng = np.random.default_rng(trial)
            n_clients = int(rng.integers(1, 4))
            dims = [int(rng.integers(2, 5)), int(rng.integers(2, 5))]
            nets, weights = [], []
            for _ in range(n_clients):
                mask = rng.random((dims[0], dims[1])) < 0.6
                w = rng.normal(size=(dims[0], dims[1])) * mask
                nets.append(build_net([w], masks=[mask]))
                weights.append(int(rng.integers(1, 100)))
            out = fold(list(zip(weights, nets)))
            oracle = brute_force_average(nets, weights)
            assert np.max(np.abs(out[0][0] - oracle[0])) <= 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        nets = []
        for _ in range(3):
            mask = rng.random((5, 4)) < 0.5
            nets.append(build_net([rng.normal(size=(5, 4)) * mask], masks=[mask]))
        a = fold([(1, nets[0]), (2, nets[1]), (3, nets[2])])
        b = fold([(3, nets[2]), (1, nets[0]), (2, nets[1])])
        assert np.allclose(a[0][0], b[0][0], atol=1e-12)

    @pytest.mark.parametrize("n_clients", [1, 3])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_fold_matches_the_dense_sum_byte_for_byte(self, n_clients, data):
        # live weights include exactly -0.0 and +0.0: whatever a client
        # sends, the sums are the dense sample-weighted sums, bit for bit
        shapes = data.draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 4)),
                                    min_size=1, max_size=3))
        weight = st.one_of(st.sampled_from([-0.0, 0.0]),
                           st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True))
        clients = []
        for _ in range(n_clients):
            mats, masks, biases = [], [], []
            for r, c in shapes:
                mats.append(data.draw(st.lists(st.lists(weight, min_size=c, max_size=c),
                                               min_size=r, max_size=r)))
                masks.append(data.draw(st.lists(st.lists(st.booleans(), min_size=c,
                                                         max_size=c), min_size=r, max_size=r)))
                biases.append(data.draw(st.lists(weight, min_size=c, max_size=c)))
            net = build_net(mats, masks=masks, biases=biases)
            clients.append((data.draw(st.integers(1, 500)), net))
        out = fold(clients)
        total = float(sum(n for n, _ in clients))
        for l, (w, b) in enumerate(out):
            ref_w, ref_b = np.zeros_like(w), np.zeros_like(b)
            for n_m, net in clients:
                ref_w += n_m / total * net.layers[l].weights
                ref_b += n_m / total * net.layers[l].bias
            assert w.tobytes() == ref_w.tobytes()
            assert b.tobytes() == ref_b.tobytes()

    def test_built_net_holds_positive_zero_off_its_mask(self):
        # off its mask a network holds +0.0, never -0.0, whatever the given value
        net = build_net([[[-2.0, 3.0], [-0.0, -1e-300]]], masks=[[[0, 1], [0, 0]]])
        off = net.layers[0].weights[~net.layers[0].mask]
        assert off.tobytes() == np.zeros(3).tobytes()

    def test_empty_rejected(self):
        # every round folds at least one client: a round of none is
        # rejected before round 1, as is a draw of more clients than shards
        for cpr in (0, 3):
            cfg = FedConfig(hidden_dims=[4], clients_per_round=cpr, rounds=1)
            with pytest.raises(ConfigError, match=rf"clients_per_round must be in 1\.\.2, "
                                                  f"got {cpr}"):
                plan_run(cfg, tiny_partition())


class TestSharedMaskDrift:
    @staticmethod
    def boolean_index_drift(client_net, global_net):
        """The drift as a boolean index over a full difference matrix."""
        total = 0.0
        for lc, lg in zip(client_net.layers, global_net.layers):
            diff = (lc.weights - lg.weights)[lc.mask & lg.mask]
            total += float((diff * diff).sum())
        return math.sqrt(total)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_boolean_index(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [(40, 12), (12, 6), (6, 3)]

        def net():
            return build_net([rng.normal(size=s) for s in shapes],
                             masks=[rng.random(s) < 0.4 for s in shapes])

        client, broadcast = net(), net()
        got = _shared_mask_drift(ClientUpdate.of(client), broadcast)
        assert got > 0.0
        assert got.hex() == self.boolean_index_drift(client, broadcast).hex()

    def test_empty_intersection(self):
        rng = np.random.default_rng(7)
        mask = rng.random((9, 4)) < 0.5
        client = build_net([rng.normal(size=(9, 4))], masks=[mask])
        broadcast = build_net([rng.normal(size=(9, 4))], masks=[~mask])
        assert _shared_mask_drift(ClientUpdate.of(client), broadcast) == 0.0
        assert self.boolean_index_drift(client, broadcast) == 0.0


def make_server(dims, sparsity, seed, plan=None):
    """A server before round 1; unless `plan` says otherwise, no input is removed."""
    net = init_er_topology(dims, sparsity, seed)
    if plan is None:
        plan = removal_plan(dims[0], dims[0], 0.2, 0.5, 10)  # K = D: T = 0
    return ServerState(net, plan, np.zeros(dims[0], dtype=bool))


# D=6, K=2, zeta=0.4: T = ceil(0.6 * 6 - 2) = 2, all removed in round 1 of 2
REMOVE_TWO_IN_ROUND_ONE = removal_plan(6, 2, 0.4, 0.5, 2)


class TestResparsify:
    def config(self, **kw):
        base = dict(hidden_dims=[4], rounds=10, sparsity=0.5, k_features=2, seed=0)
        base.update(kw)
        return FedConfig(**base)

    def test_identical_masks_noop(self):
        server = make_server([6, 4, 3], 0.5, seed=3)
        client = server.global_model.copy()
        client.layers[1].weights[client.layers[1].mask] += 0.25
        agg = fold([(1, client), (1, client.copy())])
        handed = [w.copy() for w, _ in agg]  # resparsify takes over the aggregated arrays
        out = resparsify_and_reconcile(server, agg, self.config(), r=1)
        for lo, lc, w in zip(out.layers, client.layers, handed):
            assert np.array_equal(lo.mask, lc.mask)
            assert np.array_equal(lo.weights, w)

    def test_nnz_restored_every_round(self):
        rng = np.random.default_rng(4)
        server = make_server([8, 6, 3], 0.6, seed=4)
        targets = list(server.global_model.nnz_targets)
        for r in range(1, 6):
            clients = []
            for _ in range(3):
                c = server.global_model.copy()
                for layer in c.layers:  # clients drift and churn their masks
                    live = np.argwhere(layer.mask)
                    if len(live) > 1:
                        i, j = live[rng.integers(len(live))]
                        layer.mask[i, j] = False
                        layer.weights[i, j] = 0.0
                        off = np.argwhere(~layer.mask)
                        i2, j2 = off[rng.integers(len(off))]
                        layer.mask[i2, j2] = True
                        layer.weights[i2, j2] = rng.normal()
                clients.append((int(rng.integers(1, 50)), c))
            agg = fold(clients)
            out = resparsify_and_reconcile(server, agg, self.config(), r=r)
            assert out.layer_nnz() == targets
            out.validate()
            server.global_model = out

    def test_disjoint_removals_reconciled_by_strength(self):
        # two clients disconnect disjoint neuron pairs; with a removal
        # budget of 2 the server must drop exactly the two weakest rows of
        # the aggregate, verified against a brute-force strength ranking
        server = make_server([6, 4, 3], 0.5, seed=5, plan=REMOVE_TWO_IN_ROUND_ONE)
        assert server.schedule.history == [2, 0]
        base = server.global_model
        removals = [(0, 1), (2, 3)]
        clients = []
        for pair in removals:
            c = base.copy()
            for i in pair:
                c.layers[0].mask[i, :] = False
                c.layers[0].weights[i, :] = 0.0
            clients.append((1, c))
        agg = fold(clients)
        expected = sorted(
            range(6), key=lambda i: (row_strengths(agg[0][0])[i], i)
        )[:2]
        out = resparsify_and_reconcile(server, agg, self.config(), r=1)
        assert sorted(np.nonzero(server.global_removed)[0]) == sorted(expected)
        assert not out.layers[0].mask[server.global_removed].any()

    def test_previous_removals_stay_removed(self):
        server = make_server([6, 4, 3], 0.5, seed=6, plan=REMOVE_TWO_IN_ROUND_ONE)
        server.global_removed[4] = True
        server.global_model.layers[0].mask[4, :] = False
        server.global_model.layers[0].weights[4, :] = 0.0
        agg = fold([(1, server.global_model.copy())])
        out = resparsify_and_reconcile(server, agg, self.config(), r=1)
        assert server.global_removed[4]
        assert int(server.global_removed.sum()) == 2
        assert not out.layers[0].mask[4].any()

    def test_adjustment_round_admits_stronger_candidates(self):
        server = make_server([4, 3, 2], 0.5, seed=7)
        cfg = self.config(adjust_every=1, adjust_rate=0.4)
        client = server.global_model.copy()
        layer = client.layers[1]
        # move one connection to a spot the previous mask lacks, with a
        # large weight: an adjustment round must admit it
        live = np.argwhere(layer.mask)
        off = np.argwhere(~layer.mask)
        li, lj = live[0]
        oi, oj = off[0]
        layer.mask[li, lj] = False
        layer.weights[li, lj] = 0.0
        layer.mask[oi, oj] = True
        layer.weights[oi, oj] = 50.0
        agg = fold([(1, client)])
        out = resparsify_and_reconcile(server, [(w.copy(), b.copy()) for w, b in agg], cfg, r=1)
        assert out.layers[1].mask[oi, oj]
        cfg_noadj = self.config(adjust_every=10, adjust_rate=0.4)
        out2 = resparsify_and_reconcile(server, agg, cfg_noadj, r=1)
        assert not out2.layers[1].mask[oi, oj]  # off-cadence: mask held fixed


def sent_nnz(update):
    """Per layer, the connections a client's update carries."""
    return [len(idx) for idx, _, _ in update.layers]


class TestLocalTrain:
    def cfg(self, **kw):
        base = dict(hidden_dims=[5], rounds=4, sparsity=0.5,
                    k_features=2, local_epochs=2, batch_size=4, seed=0,
                    lr=0.05, zeta=0.2, beta=0.5)
        base.update(kw)
        return FedConfig(**base)

    def setup_one(self, config, parts):
        """(the initial network, the plan of `config` on `parts`)."""
        plan = plan_run(config, parts)
        return init_er_topology(plan.dims, config.sparsity, config.seed), plan

    def train(self, net, plan, r):
        """Client 0's round-r update from `net`, nothing removed yet."""
        return local_train(plan, r, 0, net, np.zeros(6, dtype=bool))

    def test_zero_epochs_returns_model_unchanged(self):
        parts = tiny_partition()
        config = self.cfg(local_epochs=0)
        net, plan = self.setup_one(config, parts)
        out = self.train(net, plan, 1)
        for (idx, values, bias), ln in zip(out.layers, net.layers):
            # the broadcast's live positions, its weights there and its bias
            assert np.array_equal(idx, np.flatnonzero(ln.mask))
            assert values.tobytes() == np.take(ln.weights, idx).tobytes()
            assert bias.tobytes() == ln.bias.tobytes()

    def train_counting_prunes(self, monkeypatch, net, plan, r):
        """(the client's update, per layer the connections its last epoch pruned).

        Every epoch before the last must end its regrowth on the targets.
        """
        pruned = []        # the pruned (layer, row, col) triples of each prune call
        nnz_at_remap = []  # layer_nnz when the momentum moves, after a regrowth
        real_input, real_hidden, real_remap = (
            fed_core.prune_input, fed_core.magnitude_prune_hidden, fed_core.mask_velocity)

        def prune_input(*args):
            update = real_input(*args)
            pruned.append(update.delta.pruned)
            return update

        def prune_hidden(*args):
            delta = real_hidden(*args)
            pruned.append(delta.pruned)
            return delta

        def remap(net, velocity):
            nnz_at_remap.append(net.layer_nnz())
            return real_remap(net, velocity)

        monkeypatch.setattr(fed_core, "prune_input", prune_input)
        monkeypatch.setattr(fed_core, "magnitude_prune_hidden", prune_hidden)
        monkeypatch.setattr(fed_core, "mask_velocity", remap)
        out = self.train(net, plan, r)
        epochs = plan.config.local_epochs
        assert len(pruned) == 2 * epochs
        assert nnz_at_remap == [net.nnz_targets] * (epochs - 1)
        last = np.concatenate(pruned[-2:])
        return out, np.bincount(last[:, 0], minlength=len(net.layers)).tolist()

    def test_returned_nnz_is_target_minus_last_prune(self, monkeypatch):
        # the last epoch stops at its prunes; the positions a regrowth
        # would add back hold weight 0 either way
        parts = tiny_partition()
        config = self.cfg()
        net, plan = self.setup_one(config, parts)
        for r in range(1, 4):
            out, last_pruned = self.train_counting_prunes(monkeypatch, net, plan, r)
            assert all(last_pruned)
            assert sent_nnz(out) == [t - p for t, p in zip(net.nnz_targets, last_pruned)]

    def test_broadcast_model_not_mutated(self):
        parts = tiny_partition()
        config = self.cfg()
        net, plan = self.setup_one(config, parts)
        snapshot = [(l.weights.copy(), l.mask.copy(), l.bias.copy()) for l in net.layers]
        self.train(net, plan, 1)
        for layer, (w, m, b) in zip(net.layers, snapshot):
            assert np.array_equal(layer.weights, w)
            assert np.array_equal(layer.mask, m)
            assert np.array_equal(layer.bias, b)

    def test_huge_mu_pins_weights_to_anchor(self):
        # proximal dominance: with mu = 1e6 (and a step small enough that
        # lr * mu stays in the stable range) the returned weights cannot
        # leave the anchor's neighborhood
        parts = tiny_partition()
        config = self.cfg(mu=1e6, lr=1e-6, zeta=0.0, feature_selection=False)
        net, plan = self.setup_one(config, parts)
        out = self.train(net, plan, 1)
        for (idx, values, _), ln in zip(out.layers, net.layers):
            shared = np.take(ln.mask, idx)
            assert np.max(np.abs(values[shared] - np.take(ln.weights, idx[shared]))) < 1e-3

    @pytest.mark.parametrize("selection", [True, False])
    @pytest.mark.parametrize("local_epochs", [1, 2, 3])
    def test_last_epoch_makes_no_gradient_and_regrows_nothing(self, monkeypatch, selection,
                                                              local_epochs):
        # every epoch but the last re-evaluates the gradient once after its
        # steps and regrows from it; the last ends at its prunes
        parts = tiny_partition(n_per_shard=10)
        config = self.cfg(local_epochs=local_epochs, batch_size=4,
                          feature_selection=selection)
        net, plan = self.setup_one(config, parts)
        calls = dict.fromkeys(["forward", "backward", "regrow_input",
                               "regrow_layer_by_gradient", "gradient_regrow_hidden"], 0)
        for name in calls:
            def spy(*args, _name=name, _real=getattr(fed_core, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(fed_core, name, spy)
        self.train(net, plan, 1)
        steps = local_epochs * math.ceil(10 / 4)
        regrows = local_epochs - 1
        assert calls == {
            "forward": steps + regrows,
            "backward": steps + regrows,
            "regrow_input": regrows if selection else 0,
            "regrow_layer_by_gradient": 0 if selection else regrows,
            "gradient_regrow_hidden": regrows,
        }

    def test_full_batch_fallback(self, monkeypatch):
        parts = tiny_partition(n_per_shard=3)
        config = self.cfg(batch_size=64)
        net, plan = self.setup_one(config, parts)
        out, last_pruned = self.train_counting_prunes(monkeypatch, net, plan, 1)
        assert all(last_pruned)
        assert sent_nnz(out) == [t - p for t, p in zip(net.nnz_targets, last_pruned)]


class TestRunTraining:
    def cfg(self, **kw):
        base = dict(hidden_dims=[8], rounds=1, sparsity=0.5,
                    k_features=3, local_epochs=1, batch_size=8, seed=1,
                    lr=0.05, zeta=0.2, beta=0.5)
        base.update(kw)
        return FedConfig(**base)

    def test_smoke_single_round(self):
        parts = tiny_partition()
        server, metrics, sel = plan_and_train(self.cfg(), parts)
        assert len(metrics) == 1
        assert metrics[0].global_nnz == sum(server.global_model.nnz_targets)
        assert len(sel.indices) == 3

    def test_deterministic_reruns(self):
        parts = tiny_partition()
        cfg = self.cfg(rounds=3)
        a = plan_and_train(cfg, parts)
        b = plan_and_train(self.cfg(rounds=3), parts)
        assert [m.csv_row() for m in a[1]] == [m.csv_row() for m in b[1]]
        assert a[2].indices == b[2].indices
        assert a[2].strengths == b[2].strengths

    def test_workers_do_not_change_results(self):
        parts = tiny_partition(m=4)
        a = plan_and_train(self.cfg(rounds=2, workers=1), parts)
        b = plan_and_train(self.cfg(rounds=2, workers=4), parts)
        assert [m.csv_row() for m in a[1]] == [m.csv_row() for m in b[1]]
        assert a[2].indices == b[2].indices

    @pytest.mark.parametrize("source", ["sched_getaffinity", "cpu_count"])
    def test_default_pool_has_no_more_threads_than_cpus(self, monkeypatch, source):
        # workers=None: one thread per client, capped at the CPUs this
        # process may run on; os.cpu_count() where affinity is unknown
        parts = tiny_partition(m=4)
        threads = []
        real = fed_core.local_train

        def spy(*args):
            threads.append(threading.get_ident())
            return real(*args)

        if source == "sched_getaffinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(fed_core, "local_train", spy)
        plan_and_train(self.cfg(rounds=2), parts)
        assert len(threads) == 2 * 4
        assert len(set(threads)) == 1 and threading.get_ident() not in threads

    def test_clients_fold_in_id_order_whatever_finishes_first(self, monkeypatch):
        # lower ids train longest, so clients finish in reverse; the fold
        # still walks them in id order and the bits match one worker
        parts = tiny_partition(m=4)
        serial = plan_and_train(self.cfg(rounds=2, workers=1), parts)
        real_train, real_fold = fed_core.local_train, fed_core.aggregate
        owner, folds = {}, []

        def slow_train(plan, r, m, *rest):
            time.sleep(0.05 * (3 - m))
            update = real_train(plan, r, m, *rest)
            owner[id(update)] = m
            return update

        def spy_fold(sums, coeff, update):
            folds.append(owner[id(update)])
            real_fold(sums, coeff, update)

        monkeypatch.setattr(fed_core, "local_train", slow_train)
        monkeypatch.setattr(fed_core, "aggregate", spy_fold)
        # threads switch often: a fold that raced another would lose an
        # update or reorder the sums
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = plan_and_train(self.cfg(rounds=2, workers=4), parts)
        finally:
            sys.setswitchinterval(interval)
        assert folds == [0, 1, 2, 3] * 2
        assert [m.csv_row() for m in threaded[1]] == [m.csv_row() for m in serial[1]]
        assert threaded[2].strengths == serial[2].strengths

    def test_identical_shards_agree_with_aggregate(self):
        # two clients holding byte-identical data train identically, so the
        # aggregated model must match each client's result at shared masks
        parts = tiny_partition(duplicate=True)
        cfg = self.cfg(local_epochs=1, rounds=1)
        plan = plan_run(cfg, parts)
        net = init_er_topology(plan.dims, cfg.sparsity, cfg.seed)
        outs = [local_train(plan, 1, m, net, np.zeros(6, dtype=bool)) for m in range(2)]
        sums = [(np.zeros_like(layer.weights), np.zeros_like(layer.bias)) for layer in net.layers]
        for update in outs:
            fed_core.aggregate(sums, 12 / 24, update)
        for (idx, values, _), (w, _) in zip(outs[0].layers, sums):
            assert np.max(np.abs(values - np.take(w, idx))) <= 1e-12

    def test_plan_trains_the_config_it_checked(self):
        parts = tiny_partition()
        cfg = self.cfg(rounds=2)
        plan = plan_run(cfg, parts)
        cfg.sparsity, cfg.hidden_dims[0] = 0.1, 3
        _, metrics, sel = run_training(plan)
        _, ref_metrics, ref_sel = plan_and_train(self.cfg(rounds=2), parts)
        assert [m.csv_row() for m in metrics] == [m.csv_row() for m in ref_metrics]
        assert (sel.indices, sel.strengths) == (ref_sel.indices, ref_sel.strengths)

    def test_plan_trains_the_partition_it_checked(self):
        # the plan copies the shard and test index arrays: emptying a shard,
        # writing into another and editing the test split after planning
        # change no byte of the run
        parts = tiny_partition(m=3)
        cfg = self.cfg(rounds=2, local_epochs=2)
        untouched = PartitionedDataset(parts.data, [s.copy() for s in parts.shards],
                                       parts.test.copy())
        plan = plan_run(cfg, parts)
        parts.shards[1] = parts.shards[1][:0]
        parts.shards[2][:] = parts.shards[0]
        parts.test[:] = parts.test[0]
        _, metrics, sel = run_training(plan)
        _, ref_metrics, ref_sel = plan_and_train(cfg, untouched)
        rows = [m.csv_row() for m in metrics]
        assert rows == [m.csv_row() for m in ref_metrics]
        assert (sel.indices, sel.strengths) == (ref_sel.indices, ref_sel.strengths)
        # the in-place edits, had they reached the run, would show
        edited = PartitionedDataset(parts.data, [*untouched.shards[:2], parts.shards[2]],
                                    parts.test)
        assert [m.csv_row() for m in plan_and_train(cfg, edited)[1]] != rows

    def test_empty_shard_rejected(self):
        parts = tiny_partition()
        parts.shards[1] = np.array([], dtype=int)
        with pytest.raises(ConfigError, match="empty"):
            plan_run(self.cfg(), parts)

    def test_single_client_rejected(self):
        with pytest.raises(ConfigError, match="two clients"):
            plan_run(self.cfg(), tiny_partition(m=1))

    def test_layer0_budget_the_schedule_cannot_hold_fails_before_training(self, monkeypatch):
        # D=50 and K=5 remove T=35 inputs, leaving 15 x 8 = 120 layer-0
        # positions for a 192-connection target
        trained = []
        monkeypatch.setattr(fed_core, "local_train", lambda *args: trained.append(args))
        parts = partition_noniid(generate_synthetic(5, 45, 200, 2, seed=0), 2, 0.5, seed=0)
        with pytest.raises(ConfigError, match=r"192 connections.* 15 of 50 inputs.* 120 positions"):
            plan_and_train(self.cfg(rounds=3, k_features=5), parts)
        assert trained == []

    def test_plan_without_selection_removes_nothing(self):
        parts = tiny_partition()
        off = plan_run(self.cfg(rounds=4, feature_selection=False), parts).removal
        assert off.T == 0
        assert off.counts == (ScheduleCounts(0, 0),) * 4
        on = plan_run(self.cfg(rounds=4), parts).removal
        assert on.T == sum(on.history) == 2   # ceil(0.8 * 6 - 3)

    def test_one_class_rejected(self):
        with pytest.raises(ConfigError, match="need at least two classes, the data has 1"):
            plan_run(self.cfg(), tiny_partition(c=1))

    def test_client_subsampling(self):
        parts = tiny_partition(m=4)
        cfg = self.cfg(clients_per_round=2, rounds=3)
        server, metrics, _ = plan_and_train(cfg, parts)
        assert len(metrics) == 3
        assert metrics[-1].global_nnz == sum(server.global_model.nnz_targets)
        # drawing all clients is the same run as leaving the draw unset
        (s_all, m_all, sel_all), (s_none, m_none, sel_none) = (
            plan_and_train(self.cfg(clients_per_round=cpr, rounds=3), parts)
            for cpr in (4, None))
        assert [m.csv_row() for m in m_all] == [m.csv_row() for m in m_none]
        assert (sel_all.indices, sel_all.strengths) == (sel_none.indices, sel_none.strengths)
        for a, b in zip(s_all.global_model.layers, s_none.global_model.layers):
            assert np.array_equal(a.mask, b.mask)
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()

    @pytest.mark.parametrize("selection", [False, True])
    def test_zero_zeta_without_adjustment_keeps_the_topology(self, monkeypatch, selection):
        # zeta 0 churns no connection, so every client sends the broadcast
        # masks of the layers it does not select on, and adjust_every 0
        # swaps none at the server: without selection every round's global
        # masks are the initial topology; with it, the input layer loses
        # its removed rows and the layers after it never change
        parts = tiny_partition()
        cfg = self.cfg(hidden_dims=[8, 4], rounds=4, local_epochs=2, zeta=0.0,
                       adjust_every=0, feature_selection=selection)
        plan = plan_run(cfg, parts)
        sent, masks = [], []

        def train(*args, _real=fed_core.local_train):
            update = _real(*args)
            sent.append([idx for idx, _, _ in update.layers])
            return update

        def resparsify(*args, _real=fed_core.resparsify_and_reconcile):
            out = _real(*args)
            masks.append([layer.mask.copy() for layer in out.layers])
            return out

        monkeypatch.setattr(fed_core, "local_train", train)
        monkeypatch.setattr(fed_core, "resparsify_and_reconcile", resparsify)
        server, metrics, _ = run_training(plan)
        initial = [layer.mask for layer in
                   init_er_topology(plan.dims, cfg.sparsity, cfg.seed).layers]
        static = range(1 if selection else 0, len(initial))
        # layer 1 has room to churn, so a nonzero zeta would show
        assert initial[1].sum() < initial[1].size
        assert len(sent) == 2 * cfg.rounds and len(masks) == cfg.rounds
        for idx in sent:
            for l in static:
                assert np.array_equal(idx[l], np.flatnonzero(initial[l]))
        for round_masks in masks:
            for l in static:
                assert np.array_equal(round_masks[l], initial[l])
        if selection:
            assert plan.removal.T == 3   # ceil(6 - 3): zeta 0 keeps only K inputs
            assert metrics[-1].connected_input_neurons == 6 - plan.removal.T
            assert not np.array_equal(masks[-1][0], initial[0])

    def test_nnz_conserved_with_feature_selection(self):
        parts = tiny_partition(m=2)
        cfg = self.cfg(rounds=6, local_epochs=2)
        server, metrics, _ = plan_and_train(cfg, parts)
        init_nnz = sum(server.global_model.nnz_targets)
        assert all(m.global_nnz == init_nnz for m in metrics)
        # removal schedule realized: connected count lands at D - T
        assert metrics[-1].connected_input_neurons == 6 - server.schedule.T
        assert int(server.global_removed.sum()) == sum(server.schedule.history)


class TestRoundProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_any_worker_count_gives_same_run_on_budget(self, data):
        # results may not depend on the thread count, and every round must
        # end on each layer's fixed connection count
        m = data.draw(st.integers(2, 4), label="clients")
        cpr = data.draw(st.one_of(st.none(), st.integers(1, m)), label="clients_per_round")
        base = dict(
            hidden_dims=[5], clients_per_round=cpr, rounds=4,
            sparsity=0.5, k_features=2, local_epochs=2, batch_size=4, lr=0.05,
            zeta=0.2, beta=0.5, adjust_every=2,
            adjust_rate=data.draw(st.sampled_from([0.0, 0.3]), label="adjust_rate"),
            feature_selection=data.draw(st.booleans(), label="feature_selection"),
            mu=data.draw(st.sampled_from([0.0, 0.01]), label="mu"),
            seed=data.draw(st.integers(0, 2**16), label="seed"),
        )
        parts = tiny_partition(n_per_shard=data.draw(st.integers(3, 10)), m=m,
                               seed=base["seed"])
        # the thread count is no part of what a plan fixes
        plans = [plan_run(FedConfig(**base, workers=w), parts) for w in (1, 2)]
        assert plans[0] == plans[1]
        plan = plans[0]
        with warnings.catch_warnings():
            # a tiny client layer may regrow short; the server restores the budget
            warnings.simplefilter("ignore", RuntimeWarning)
            runs = [run_training(p) for p in plans]
        (s1, metrics1, sel1), (s2, metrics2, sel2) = runs
        assert [r.csv_row() for r in metrics1] == [r.csv_row() for r in metrics2]
        assert sel1.indices == sel2.indices
        assert sel1.strengths == sel2.strengths
        for a, b in zip(s1.global_model.layers, s2.global_model.layers):
            assert np.array_equal(a.mask, b.mask)
            assert a.weights.tobytes() == b.weights.tobytes()
        for server, metrics, _ in runs:
            assert len(metrics) == base["rounds"]
            assert all(m.layer_nnz == server.global_model.nnz_targets for m in metrics)
        # the planned costs are what counting each round's trained model and
        # drawn clients gives: Q * ceil(N_m / B) * B examples at 3x the
        # inference FLOPs of the round's nnz, and one upload per client
        assert all(len(ids) == (cpr or m) and list(ids) == sorted(set(ids))
                   for ids in plan.clients)
        layers = s1.global_model.layers
        cols = [layer.cols for layer in layers]
        model_bits = upload_cost_bits(sum(l.rows * l.cols for l in layers), base["sparsity"])
        flops = bits = 0
        for r, rm in enumerate(metrics1, start=1):
            for client in plan.clients[r - 1]:
                batches = math.ceil(len(parts.shards[client]) / base["batch_size"])
                flops += (base["local_epochs"] * batches * base["batch_size"]
                          * 3 * inference_flops(rm.layer_nnz, cols))
                bits += model_bits
            assert (rm.cumulative_flops, rm.cumulative_upload_bits) == (flops, bits)
