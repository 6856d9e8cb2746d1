"""The sparse-state SGD path against the slow dense reference, byte for byte.

`backward` returns the dense gradient alone; `new_velocity` keeps momentum
for live connections only, `sgd_step` updates cached live weights as
vectors and never writes an inactive one, and `mask_velocity` moves the
momentum onto the new masks. Over random shapes, densities,
hyperparameters and multi-step runs with topology churn between steps,
weights, biases, gradients and the live momentum must equal those of the
original dense code (tests/reference_sgd.py) in every byte, so +0.0 and
-0.0 count as different. So must a whole `local_train`, which skips the
momentum remap and the regrowth after its last epoch and sends its live
weights (the reference regrew more positions last, all at weight +0.0,
and holds +0.0 at every position the update does not carry), and steps
taken after the weights or the FedProx anchor changed behind the cached
copies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_sgd as ref
from dsffs.dst_update import gradient_regrow_hidden, magnitude_prune_hidden
from dsffs.fed_core import FedConfig, local_train
from dsffs.input_selector import prune_input, regrow_input, removal_plan
from dsffs.sparse_net import (
    SparseLayer,
    SparseNetwork,
    backward,
    forward,
    mask_velocity,
    sgd_step,
)

PROPERTY = settings(max_examples=120, deadline=None)


def random_net(rng, dims, density) -> SparseNetwork:
    layers = []
    for r, c in zip(dims[:-1], dims[1:]):
        mask = rng.random((r, c)) < density
        weights = np.where(mask, rng.normal(size=(r, c)), 0.0)
        layers.append(SparseLayer(weights, mask, rng.normal(size=c)))
    nnz = [layer.nnz() for layer in layers]
    return SparseNetwork(layers, 1.0 - density, [density] * len(layers), nnz)


def churn(rng, net, rate) -> None:
    """Prune and regrow a random share of each layer, the way topology updates do."""
    for layer in net.layers:
        flat_mask, flat_w = layer.mask.ravel(), layer.weights.ravel()
        live, dead = np.flatnonzero(flat_mask), np.flatnonzero(~flat_mask)
        k = min(int(rate * len(live)), len(dead))
        cut = rng.choice(live, size=k, replace=False)
        grow = rng.choice(dead, size=k, replace=False)
        flat_mask[cut], flat_w[cut] = False, 0.0
        flat_mask[grow], flat_w[grow] = True, 0.0
    net.touch()


def same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def runs(draw):
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        dims=draw(st.lists(st.integers(1, 9), min_size=2, max_size=4)),
        density=draw(st.sampled_from([0.1, 0.3, 0.6, 1.0])),
        batch=draw(st.integers(1, 6)),
        lr=draw(st.floats(1e-3, 1.0)),
        momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
        mu=draw(st.sampled_from([None, 0.0, 0.01, 0.5])),
        steps=draw(st.integers(1, 5)),
        churn_rate=draw(st.sampled_from([0.0, 0.2, 0.5])),
    )


def assert_velocity_matches(net, vel, ref_vel) -> None:
    """Live momentum equals the dense reference at the live index; zero elsewhere.

    Live weights cached at the network's current version are its weights
    at the live index.
    """
    assert len(vel.layers) == len(net.layers) == len(ref_vel)
    for layer, state, (ref_vw, ref_vb) in zip(net.layers, vel.layers, ref_vel):
        assert same_bytes(state.idx, np.flatnonzero(layer.mask))
        assert same_bytes(state.vw, ref_vw.ravel()[state.idx])
        assert np.all(ref_vw[~layer.mask] == 0.0)
        assert same_bytes(state.vb, ref_vb)
        if vel.version == net.version:
            assert same_bytes(state.w, layer.weights.ravel()[state.idx])


@PROPERTY
@given(runs())
def test_training_steps_match_reference_bytes(run):
    rng = np.random.default_rng(run["seed"])
    dims = run["dims"]
    net = random_net(rng, dims, run["density"])
    old = net.copy()
    # the anchor has a mask of its own, as the broadcast model has after
    # the client's topology moved on
    anchor = random_net(rng, dims, run["density"])
    prox = None if run["mu"] is None else (run["mu"], anchor)
    vel = old_vel = None
    for _ in range(run["steps"]):
        X = rng.normal(size=(run["batch"], dims[0]))
        y = rng.integers(0, dims[-1], size=run["batch"])

        _, cache = forward(net, X)
        _, old_cache = forward(old, X)
        grads = backward(net, cache, y)
        old_grads = ref.backward(old, old_cache, y)
        for l in range(len(net.layers)):
            assert same_bytes(grads.weights[l], old_grads.dense[l])
            assert same_bytes(grads.bias[l], old_grads.bias[l])

        vel = sgd_step(net, grads, run["lr"], run["momentum"], vel, prox)
        old_vel = ref.sgd_step(old, old_grads, run["lr"], run["momentum"], old_vel, prox)
        for layer, old_layer in zip(net.layers, old.layers):
            assert same_bytes(layer.weights, old_layer.weights)
            assert same_bytes(layer.bias, old_layer.bias)
        assert_velocity_matches(net, vel, old_vel)
        net.validate()

        # both masks are equal here, so one seed makes the same churn
        churn_seed = int(rng.integers(2**32))
        churn(np.random.default_rng(churn_seed), net, run["churn_rate"])
        churn(np.random.default_rng(churn_seed), old, run["churn_rate"])
        mask_velocity(net, vel)
        ref.mask_velocity(old, old_vel)
        assert_velocity_matches(net, vel, old_vel)


@PROPERTY
@given(runs())
def test_gradient_is_reference_dense_gradient(run):
    rng = np.random.default_rng(run["seed"])
    dims = run["dims"]
    net = random_net(rng, dims, run["density"])
    X = rng.normal(size=(run["batch"], dims[0]))
    y = rng.integers(0, dims[-1], size=run["batch"])
    _, cache = forward(net, X)
    grads = backward(net, cache, y)
    old = ref.backward(net, cache, y)
    for l, layer in enumerate(net.layers):
        assert same_bytes(grads.weights[l], old.dense[l])
        assert same_bytes(grads.weights[l] * layer.mask, old.masked[l])
        assert same_bytes(grads.bias[l], old.bias[l])


def reference_local_train(X, y, rows, global_net, counts, r, config, global_removed):
    """`fed_core.local_train` with selection on, driven by the dense reference SGD.

    The momentum is remapped after every epoch, the last one included.
    """
    net = global_net.copy()
    removed = global_removed.copy()
    prox = (config.mu, global_net) if config.mu > 0 else None
    velocity = None
    for q in range(1, config.local_epochs + 1):
        order = np.random.default_rng([config.seed, r, q]).permutation(len(rows))
        for start in range(0, len(rows), config.batch_size):
            sel = rows[order[start:start + config.batch_size]]
            xb, yb = X[sel], y[sel]
            _, cache = forward(net, xb)
            velocity = ref.sgd_step(net, ref.backward(net, cache, yb), config.lr,
                                    config.momentum, velocity, prox)
        _, cache = forward(net, xb)
        dense = ref.backward(net, cache, yb).dense
        epoch_counts = counts if q == 1 else counts.churn()
        update = prune_input(net, removed, epoch_counts, config.zeta)
        regrow_input(net, removed, epoch_counts, dense[0], update)
        gradient_regrow_hidden(net, dense, magnitude_prune_hidden(net, config.zeta))
        ref.mask_velocity(net, velocity)
    return net


@pytest.mark.parametrize("mu", [0.0, 0.01])
@pytest.mark.parametrize("local_epochs", [1, 2, 3])
def test_local_train_matches_reference_loop(local_epochs, mu):
    rng = np.random.default_rng(local_epochs)
    d, n = 12, 40
    X = rng.normal(size=(n + 5, d))
    y = rng.integers(0, 3, size=n + 5)
    rows = np.arange(5, n + 5)
    config = FedConfig(hidden_dims=[8, 6], clients=2, rounds=4, sparsity=0.6, k_features=4,
                       local_epochs=local_epochs, batch_size=6, lr=0.1, zeta=0.3, beta=0.5,
                       mu=mu, seed=3)
    broadcast = random_net(rng, [d, 8, 6, 3], 0.4)
    counts = removal_plan(d, 4, config.zeta, config.beta, config.rounds).counts[0]
    assert counts.n_remove > 0
    removed = np.zeros(d, dtype=bool)

    out = local_train(X, y, rows, broadcast, counts, 1, config, removed)
    expected = reference_local_train(X, y, rows, broadcast, counts, 1, config, removed)
    for (idx, values, bias), ref_layer in zip(out.layers, expected.layers):
        # the values at the update's index and +0.0 everywhere else: the
        # reference's dense weights, byte for byte
        assert np.all(np.diff(idx) > 0)
        assert same_bytes(values, np.take(ref_layer.weights, idx))
        off = np.ones(ref_layer.mask.size, dtype=bool)
        off[idx] = False
        assert same_bytes(ref_layer.weights.ravel()[off], np.zeros(np.count_nonzero(off)))
        assert same_bytes(bias, ref_layer.bias)
        # local_train stops at the last epoch's prunes: it sends fewer
        # positions than the reference, which regrew after its last prune
        assert np.take(ref_layer.mask, idx).all()
        assert len(idx) < np.count_nonzero(ref_layer.mask)
    # the topology moved, so a skipped or wrong remap would show
    assert not np.array_equal(out.layers[0][0], np.flatnonzero(broadcast.layers[0].mask))


@pytest.mark.parametrize("edit, mu", [("weights", None), ("weights", 0.5),
                                      ("new anchor", 0.5), ("anchor in place", 0.5)])
def test_step_after_out_of_band_edit_matches_reference(edit, mu):
    # no mask changes between the steps, so only the versions and the
    # anchor's identity say that a cached copy is stale
    rng = np.random.default_rng(5)
    dims = [7, 5, 3]
    net = random_net(rng, dims, 0.5)
    old = net.copy()
    anchor = random_net(rng, dims, 0.5)
    vel = old_vel = None
    for step in range(3):
        if step and edit == "weights":
            for edited in (net, old):
                for layer in edited.layers:
                    layer.weights[layer.mask] += 0.25
                edited.touch()
        elif step and edit == "new anchor":
            anchor = random_net(rng, dims, 0.5)
        elif step:
            for layer in anchor.layers:
                layer.weights[layer.mask] += 1.0
            anchor.touch()
        prox = None if mu is None else (mu, anchor)
        X = rng.normal(size=(4, dims[0]))
        y = rng.integers(0, dims[-1], size=4)
        _, cache = forward(net, X)
        _, old_cache = forward(old, X)
        vel = sgd_step(net, backward(net, cache, y), 0.1, 0.9, vel, prox)
        old_vel = ref.sgd_step(old, ref.backward(old, old_cache, y), 0.1, 0.9, old_vel, prox)
        for layer, old_layer in zip(net.layers, old.layers):
            assert same_bytes(layer.weights, old_layer.weights)
            assert same_bytes(layer.bias, old_layer.bias)
        assert_velocity_matches(net, vel, old_vel)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mu", [None, 0.5])
def test_nonfinite_inactive_gradient_never_reaches_weights(bad, mu):
    rng = np.random.default_rng(3)
    dims = [7, 5, 3]
    net = random_net(rng, dims, 0.4)
    anchor = random_net(rng, dims, 0.4)
    prox = None if mu is None else (mu, anchor)
    vel = None
    for _ in range(3):
        _, cache = forward(net, rng.normal(size=(4, dims[0])))
        grads = backward(net, cache, rng.integers(0, dims[-1], size=4))
        for g, layer in zip(grads.weights, net.layers):
            g[~layer.mask] = bad
        vel = sgd_step(net, grads, 0.1, 0.9, vel, prox)
        for layer in net.layers:
            off = layer.weights[~layer.mask]
            assert off.size
            assert off.tobytes() == np.zeros_like(off).tobytes()
            assert np.all(np.isfinite(layer.weights))
        net.validate()
