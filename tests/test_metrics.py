import numpy as np
import pytest

from dsffs import metrics
from dsffs.data import Dataset, PartitionedDataset
from dsffs.fed_core import FedConfig, plan_run
from dsffs.metrics import (
    MetricsRecorder,
    RoundMetrics,
    accuracy,
    inference_flops,
    upload_cost_bits,
)
from dsffs.sparse_net import forward, init_er_topology

from conftest import build_net
from test_fed_core import tiny_partition


def plan_costs(dims, shard_sizes, **keys):
    """The plan of a run on `dims`, its clients holding `shard_sizes` rows.

    Returns (plan, a network on the plan's connection targets).
    """
    d, *hidden, c = dims
    rng = np.random.default_rng(0)
    n = sum(shard_sizes) + 2 * c
    # every class appears in the held-out rows at the end
    ds = Dataset(rng.normal(size=(n, d)), np.concatenate(
        [rng.integers(0, c, size=n - 2 * c), np.arange(2 * c) % c]))
    ends = np.cumsum(shard_sizes)
    shards = [np.arange(end - size, end) for size, end in zip(shard_sizes, ends)]
    config = FedConfig(**{"hidden_dims": hidden, "clients": len(shard_sizes), "rounds": 1,
                          "k_features": d, "local_epochs": 2, "batch_size": 10,
                          "sparsity": 0.5, **keys})
    plan = plan_run(config, PartitionedDataset(ds, shards, np.arange(ends[-1], n)))
    return plan, init_er_topology(dims, config.sparsity, config.seed)


class TestAccuracy:
    def test_constant_majority_class(self):
        # a net biased toward class 0 on a 60/40 test split
        net = build_net([np.zeros((2, 2))], masks=[np.ones((2, 2), bool)],
                        biases=[[1.0, 0.0]])
        y = np.array([0] * 60 + [1] * 40)
        X = np.random.default_rng(0).normal(size=(100, 2))
        assert accuracy(net, (X, y), np.arange(100)) == pytest.approx(0.6)

    def test_perfect_logits(self):
        net = build_net([np.eye(3)])
        y = np.array([0, 1, 2, 1])
        X = np.eye(3)[y]
        assert accuracy(net, (X, y), np.arange(4)) == 1.0

    def test_random_logits_near_chance(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(20, 10))
        net = build_net([w], masks=[np.ones((20, 10), bool)])
        X = rng.normal(size=(1000, 20))
        y = rng.integers(0, 10, size=1000)
        acc = accuracy(net, (X, y), np.arange(1000))
        assert abs(acc - 0.1) <= 0.02

    def test_argmax_tie_lowest_class(self):
        net = build_net([np.zeros((2, 3))], masks=[np.ones((2, 3), bool)])
        X = np.zeros((5, 2))
        assert accuracy(net, (X, np.zeros(5, dtype=int)), np.arange(5)) == 1.0
        assert accuracy(net, (X, np.ones(5, dtype=int)), np.arange(5)) == 0.0

    def test_empty_test_rejected(self):
        net = build_net([np.eye(2)])
        with pytest.raises(ValueError):
            accuracy(net, (np.eye(2), np.arange(2)), np.arange(0))

    def test_batches_gather_only_the_given_rows(self, monkeypatch):
        monkeypatch.setattr(metrics, "EVAL_BATCH", 7)
        rng = np.random.default_rng(5)
        net = build_net([rng.normal(size=(4, 3))])
        X = rng.normal(size=(100, 4))
        y = rng.integers(0, 3, size=100)
        rows = np.sort(rng.choice(100, size=30, replace=False))
        logits, _ = forward(net, X[rows])
        hits = int((np.argmax(logits, axis=1) == y[rows]).sum())
        assert accuracy(net, (X, y), rows) == hits / 30

    def test_batch_size_does_not_change_accuracy(self, monkeypatch):
        # an MNIST-shaped network on a 2400-row test split, evaluated in one
        # batch and in 256-row batches
        net = init_er_topology([784, 200, 200, 10], 0.8, seed=3)
        rng = np.random.default_rng(9)
        X = rng.normal(size=(3000, 784))
        y = rng.integers(0, 10, size=3000)
        rows = np.sort(rng.choice(3000, size=2400, replace=False))
        accs = []
        for batch in (4096, 256):
            monkeypatch.setattr(metrics, "EVAL_BATCH", batch)
            accs.append(accuracy(net, (X, y), rows))
        assert accs[0] == accs[1]
        # the predictions themselves agree, not only their count
        whole = np.argmax(forward(net, X[rows])[0], axis=1)
        batched = np.concatenate([np.argmax(forward(net, X[rows[a:a + 256]])[0], axis=1)
                                  for a in range(0, 2400, 256)])
        assert np.array_equal(whole, batched)


class TestFlops:
    def test_two_per_mac_no_bias(self):
        assert inference_flops([1000]) == 2000

    def test_bias_adds(self):
        assert inference_flops([1000], [10]) == 2010

    def test_training_is_three_times_inference(self):
        # one client, one epoch, one batch of 30: 30 training examples
        plan, net = plan_costs([50, 20, 5], [30, 30], clients_per_round=1,
                               local_epochs=1, batch_size=30)
        nnz, cols = net.layer_nnz(), [layer.cols for layer in net.layers]
        assert plan.cumulative_flops == (30 * 3 * inference_flops(nnz, cols),)

    def test_sparse_dense_proportionality(self):
        dims = [784, 200, 200, 10]
        dense = init_er_topology(dims, 0.0, seed=0)
        sparse = init_er_topology(dims, 0.8, seed=0)
        # weight-only costs scale exactly with the connection counts
        ratio = inference_flops(sparse.layer_nnz()) / inference_flops(dense.layer_nnz())
        assert ratio == pytest.approx(0.2, abs=len(dims) / dense.nnz())

    def test_depends_only_on_counts(self):
        parts = tiny_partition(d=30, c=4, m=3)
        config = FedConfig(hidden_dims=[10], clients=3, rounds=3, k_features=30)
        a = plan_run(config, parts)
        parts.data.X *= 100.0
        b = plan_run(config, parts)
        assert (a.cumulative_flops, a.cumulative_upload_bits) == \
            (b.cumulative_flops, b.cumulative_upload_bits)


class TestUploadCost:
    def test_reference_value(self):
        assert upload_cost_bits(10000, 0.8) == 74000

    def test_dense_boundary(self):
        assert upload_cost_bits(10000, 0.0) == 33 * 10000

    def test_mask_only_boundary(self):
        assert upload_cost_bits(10000, 1.0) == 10000

    def test_linear_in_n_and_decreasing_in_s(self):
        for n in (1, 77, 5000):
            assert upload_cost_bits(2 * n, 0.5) == 2 * upload_cost_bits(n, 0.5)
        costs = [upload_cost_bits(9999, s) for s in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert costs == sorted(costs, reverse=True)

    def test_range_check(self):
        with pytest.raises(ValueError):
            upload_cost_bits(10, 1.5)


class TestRecordRound:
    def make_recorder(self, plan, net):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, net.layers[0].rows))
        y = rng.integers(0, net.layers[-1].cols, size=40)
        return MetricsRecorder((X, y), np.arange(40), plan)

    def test_two_identical_clients_double_cost(self):
        one, _ = plan_costs([6, 4, 2], [30, 30], clients_per_round=1)
        two, _ = plan_costs([6, 4, 2], [30, 30])
        assert two.cumulative_upload_bits[0] == 2 * one.cumulative_upload_bits[0]
        assert two.cumulative_flops[0] == 2 * one.cumulative_flops[0]

    def test_closed_form_accumulation(self):
        # 10 identical clients
        plan, net = plan_costs([20, 10, 4], [17] * 10, sparsity=0.8, batch_size=8,
                               local_epochs=3, rounds=5)
        rec = self.make_recorder(plan, net)
        last = None
        for r in range(1, 6):
            last = rec.record_round(net, r, 0.0)
        dense = sum(layer.rows * layer.cols for layer in net.layers)
        per_client_bits = upload_cost_bits(dense, net.sparsity)
        assert last.cumulative_upload_bits == 5 * 10 * per_client_bits
        import math
        per_example = 3 * inference_flops(net.layer_nnz(), [layer.cols for layer in net.layers])
        per_client_flops = 3 * math.ceil(17 / 8) * 8 * per_example
        assert last.cumulative_flops == 5 * 10 * per_client_flops

    def test_round_record_holds_layer_nnz_and_drift(self):
        plan, net = plan_costs([8, 6, 2], [10, 10])
        m = self.make_recorder(plan, net).record_round(net, 1, 0.25)
        assert m.layer_nnz == net.layer_nnz()
        assert m.global_nnz == net.nnz()
        assert m.client_drift == 0.25
        # the per-round record keeps both out of metrics.csv
        assert m.csv_row().count(",") == RoundMetrics.CSV_HEADER.count(",") == 5

    def test_counters_monotone(self):
        plan, net = plan_costs([8, 6, 2], [10, 20], rounds=4)
        rec = self.make_recorder(plan, net)
        prev_f = prev_u = -1
        for r in range(1, 5):
            m = rec.record_round(net, r, 0.0)
            assert m.cumulative_flops > prev_f
            assert m.cumulative_upload_bits > prev_u
            prev_f, prev_u = m.cumulative_flops, m.cumulative_upload_bits
