import math

import numpy as np
import pytest

from dsffs.dst_update import TopologyDelta, prune_layer_by_magnitude, regrow_layer_by_gradient
from dsffs.sparse_net import (
    ConfigError,
    Gradients,
    backward,
    forward,
    init_er_topology,
    sgd_step,
)
from reference_sgd import softmax_cross_entropy

from conftest import build_net, fd_weight_gradients, loss_of, max_rel_err


class TestInitErTopology:
    def test_dense_boundary(self):
        net = init_er_topology([4, 3, 2], 0.0, seed=0)
        assert all(layer.mask.all() for layer in net.layers)
        assert net.nnz() == 4 * 3 + 3 * 2 == 18

    def test_total_budget_within_rounding(self):
        dims = [784, 200, 200, 10]
        net = init_er_topology(dims, 0.8, seed=7)
        total = 784 * 200 + 200 * 200 + 200 * 10
        expected = round(0.2 * total)
        assert abs(net.nnz() - expected) <= len(net.layers)
        assert net.layer_nnz() == net.nnz_targets
        net.validate()

    def test_deterministic_per_seed(self):
        a = init_er_topology([30, 10, 4], 0.7, seed=42)
        b = init_er_topology([30, 10, 4], 0.7, seed=42)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.mask, lb.mask)
            assert np.array_equal(la.weights, lb.weights)
        c = init_er_topology([30, 10, 4], 0.7, seed=43)
        assert any(not np.array_equal(la.mask, lc.mask)
                   for la, lc in zip(a.layers, c.layers))

    def test_rejects_starved_layer(self):
        # 0.95 sparsity leaves a 10x10 layer ~5 connections for 10 outputs
        with pytest.raises(ConfigError):
            init_er_topology([10, 10], 0.95, seed=0)

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ConfigError):
            init_er_topology([4, 2], 1.0, seed=0)
        with pytest.raises(ConfigError):
            init_er_topology([4, 2], -0.1, seed=0)

    def test_every_unit_connected_at_init(self):
        for seed in range(5):
            net = init_er_topology([40, 16, 8, 3], 0.75, seed=seed)
            for layer in net.layers:
                assert layer.mask.any(axis=1).all()  # every row feeds forward
                assert layer.mask.any(axis=0).all()  # every unit has fan-in

    def test_density_allocation_follows_layer_shape(self):
        net = init_er_topology([784, 200, 200, 10], 0.8, seed=0)
        h = net.layer_densities
        # wider, squarer layers get lower density; the tiny output layer saturates
        assert h[0] < h[1] <= h[2]
        assert h[2] == 1.0


class TestForward:
    def test_zero_network_uniform_softmax(self):
        net = build_net([np.zeros((3, 4)), np.zeros((4, 5))],
                        masks=[np.ones((3, 4), bool), np.ones((4, 5), bool)])
        X = np.random.default_rng(0).normal(size=(6, 3))
        logits, _ = forward(net, X)
        assert np.all(logits == 0.0)
        loss, probs = softmax_cross_entropy(logits, np.zeros(6, dtype=int))
        assert np.allclose(probs, 0.2)
        assert loss == pytest.approx(math.log(5), rel=1e-12)

    def test_identity_layer(self):
        net = build_net([np.eye(3)])
        for i in range(3):
            e = np.zeros((1, 3))
            e[0, i] = 1.0
            logits, _ = forward(net, e)
            assert np.array_equal(logits, e)

    def test_dimension_mismatch(self):
        net = build_net([np.eye(3)])
        with pytest.raises(ValueError):
            forward(net, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            forward(net, np.zeros(3))

    def test_forward_deterministic(self, rng):
        net = init_er_topology([8, 6, 3], 0.5, seed=1)
        X = rng.normal(size=(5, 8))
        a, _ = forward(net, X)
        b, _ = forward(net, X)
        assert np.array_equal(a, b)


class TestBackward:
    def test_step_uses_gradient_times_mask(self, rng):
        # the step sees the gradient only at live positions: the dense
        # gradient and the masked one give the same bytes, and inactive
        # weights stay +0.0
        net = init_er_topology([10, 8, 4], 0.6, seed=5)
        other = net.copy()
        X = rng.normal(size=(7, 10))
        y = rng.integers(0, 4, size=7)
        _, cache = forward(net, X)
        g = backward(net, cache, y)
        masked = Gradients([w * layer.mask for w, layer in zip(g.weights, net.layers)],
                           [b.copy() for b in g.bias])
        vel = sgd_step(net, g, lr=0.1, momentum=0.9)
        other_vel = sgd_step(other, masked, lr=0.1, momentum=0.9)
        for layer, other_layer, state, other_state in zip(
                net.layers, other.layers, vel.layers, other_vel.layers):
            assert layer.weights.tobytes() == other_layer.weights.tobytes()
            assert state.vw.tobytes() == other_state.vw.tobytes()
            assert not np.any(np.signbit(layer.weights[~layer.mask]))
        net.validate()

    def test_mean_gradient_invariant_under_duplication(self, rng):
        net = init_er_topology([6, 5, 3], 0.5, seed=2)
        X = rng.normal(size=(4, 6))
        y = rng.integers(0, 3, size=4)
        _, cache = forward(net, X)
        g1 = backward(net, cache, y)
        X2, y2 = np.vstack([X, X]), np.concatenate([y, y])
        _, cache2 = forward(net, X2)
        g2 = backward(net, cache2, y2)
        for a, b in zip(g1.weights, g2.weights):
            assert np.allclose(a, b, atol=1e-14)

    def test_stale_cache_rejected(self, rng):
        net = init_er_topology([5, 4, 2], 0.5, seed=3)
        X = rng.normal(size=(3, 5))
        y = rng.integers(0, 2, size=3)
        _, cache = forward(net, X)
        g = backward(net, cache, y)
        sgd_step(net, g, lr=0.1)
        with pytest.raises(ValueError, match="stale"):
            backward(net, cache, y)

    def test_prune_makes_cache_stale(self, rng):
        net = init_er_topology([5, 4, 2], 0.5, seed=3)
        X = rng.normal(size=(3, 5))
        _, cache = forward(net, X)
        delta = TopologyDelta()
        prune_layer_by_magnitude(net, 0, 2, delta)
        assert len(delta.pruned) == 2
        with pytest.raises(ValueError, match="stale"):
            backward(net, cache, rng.integers(0, 2, size=3))

    def test_regrow_makes_cache_stale(self, rng):
        net = init_er_topology([5, 4, 2], 0.5, seed=3)
        X = rng.normal(size=(3, 5))
        delta = TopologyDelta()
        prune_layer_by_magnitude(net, 0, 2, delta)
        _, cache = forward(net, X)
        regrow_layer_by_gradient(net, 0, rng.normal(size=(5, 4)), delta)
        assert len(delta.regrown) == 2
        with pytest.raises(ValueError, match="stale"):
            backward(net, cache, rng.integers(0, 2, size=3))

    def test_label_shape_mismatch(self, rng):
        net = init_er_topology([5, 4, 2], 0.5, seed=3)
        _, cache = forward(net, rng.normal(size=(3, 5)))
        with pytest.raises(ValueError):
            backward(net, cache, np.zeros(4, dtype=int))

    def test_gradients_match_finite_differences(self, rng):
        # independent oracle: central differences on the live parameters
        net = init_er_topology([9, 7, 4], 0.5, seed=11)
        X = rng.normal(size=(6, 9))
        y = rng.integers(0, 4, size=6)
        _, cache = forward(net, X)
        g = backward(net, cache, y)
        fd_w, fd_b = fd_weight_gradients(net, X, y)
        for l, layer in enumerate(net.layers):
            assert max_rel_err(g.weights[l][layer.mask], fd_w[l][layer.mask]) < 1e-4
            assert max_rel_err(g.bias[l], fd_b[l]) < 1e-4


class TestSgdStep:
    def test_zero_gradient_no_change(self, rng):
        net = init_er_topology([5, 4, 3], 0.4, seed=9)
        before = [layer.weights.copy() for layer in net.layers]
        X = rng.normal(size=(2, 5))
        _, cache = forward(net, X)
        g = backward(net, cache, np.zeros(2, dtype=int))
        for m in g.weights:
            m[:] = 0.0
        for b in g.bias:
            b[:] = 0.0
        sgd_step(net, g, lr=0.5)
        for layer, w in zip(net.layers, before):
            assert np.array_equal(layer.weights, w)

    def test_single_weight_arithmetic(self):
        net = build_net([[[1.0]]])
        _, cache = forward(net, np.array([[1.0]]))
        g = backward(net, cache, np.array([0]))
        g.weights[0][0, 0] = 0.5
        g.bias[0][:] = 0.0
        sgd_step(net, g, lr=0.1, momentum=0.0)
        assert net.layers[0].weights[0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_zero_mu_prox_equals_plain(self, rng):
        net_a = init_er_topology([6, 5, 2], 0.5, seed=4)
        net_b = net_a.copy()
        anchor = init_er_topology([6, 5, 2], 0.5, seed=99)
        X = rng.normal(size=(4, 6))
        y = rng.integers(0, 2, size=4)
        for net, prox in ((net_a, None), (net_b, (0.0, anchor))):
            _, cache = forward(net, X)
            g = backward(net, cache, y)
            sgd_step(net, g, lr=0.1, momentum=0.9, prox=prox)
        for la, lb in zip(net_a.layers, net_b.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_prox_pulls_toward_anchor(self, rng):
        net = init_er_topology([6, 5, 2], 0.5, seed=4)
        anchor = net.copy()
        X = rng.normal(size=(4, 6))
        y = rng.integers(0, 2, size=4)
        _, cache = forward(net, X)
        g = backward(net, cache, y)
        for m in g.weights:
            m[:] = 0.0
        for b in g.bias:
            b[:] = 0.0
        # displace, then a pure-prox step must move weights back toward anchor
        net.layers[0].weights[net.layers[0].mask] += 1.0
        before = abs(net.layers[0].weights - anchor.layers[0].weights).sum()
        net.touch()
        sgd_step(net, g, lr=0.1, prox=(1.0, anchor))
        after = abs(net.layers[0].weights - anchor.layers[0].weights).sum()
        assert after < before

    def test_rejects_nonpositive_lr(self, rng):
        net = init_er_topology([4, 3, 2], 0.5, seed=0)
        _, cache = forward(net, rng.normal(size=(2, 4)))
        g = backward(net, cache, np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            sgd_step(net, g, lr=0.0)
        with pytest.raises(ValueError):
            sgd_step(net, g, lr=-0.1)

    def test_mask_consistency_after_updates(self, rng):
        net = init_er_topology([8, 6, 3], 0.6, seed=6)
        vel = None
        for _ in range(5):
            X = rng.normal(size=(4, 8))
            y = rng.integers(0, 3, size=4)
            _, cache = forward(net, X)
            g = backward(net, cache, y)
            vel = sgd_step(net, g, lr=0.05, momentum=0.9, velocity=vel)
            net.validate()
