"""The in-place SGD path against the slow reference, byte for byte.

`backward` masks its gradient in place and keeps the dense one only on
request; `sgd_step` enforces the mask by multiplying by it and builds the
proximal term in place. Over random shapes, densities, hyperparameters and
multi-step runs with topology churn between steps, weights, biases,
gradients and momentum buffers must equal those of the original code
(tests/reference_sgd.py) in every byte, so +0.0 and -0.0 count as
different.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_sgd as ref
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
        assert grads.dense is None
        for l in range(len(net.layers)):
            assert same_bytes(grads.masked[l], old_grads.masked[l])
            assert same_bytes(grads.bias[l], old_grads.bias[l])

        vel = sgd_step(net, grads, run["lr"], run["momentum"], vel, prox)
        old_vel = ref.sgd_step(old, old_grads, run["lr"], run["momentum"], old_vel, prox)
        for layer, old_layer, (vw, vb), (old_vw, old_vb) in zip(
                net.layers, old.layers, vel, old_vel):
            assert same_bytes(layer.weights, old_layer.weights)
            assert same_bytes(layer.bias, old_layer.bias)
            assert same_bytes(vw, old_vw)
            assert same_bytes(vb, old_vb)
        net.validate()

        # both masks are equal here, so one seed makes the same churn
        churn_seed = int(rng.integers(2**32))
        churn(np.random.default_rng(churn_seed), net, run["churn_rate"])
        churn(np.random.default_rng(churn_seed), old, run["churn_rate"])
        mask_velocity(net, vel)
        mask_velocity(old, old_vel)


@PROPERTY
@given(runs())
def test_masked_gradient_same_with_and_without_dense(run):
    rng = np.random.default_rng(run["seed"])
    dims = run["dims"]
    net = random_net(rng, dims, run["density"])
    X = rng.normal(size=(run["batch"], dims[0]))
    y = rng.integers(0, dims[-1], size=run["batch"])
    _, cache = forward(net, X)
    lean = backward(net, cache, y)
    full = backward(net, cache, y, dense=True)
    old = ref.backward(net, cache, y)
    assert lean.dense is None
    for l, layer in enumerate(net.layers):
        assert same_bytes(lean.masked[l], full.masked[l])
        assert same_bytes(full.masked[l], old.masked[l])
        assert same_bytes(full.dense[l], old.dense[l])
        assert same_bytes(full.masked[l], full.dense[l] * layer.mask)
        assert same_bytes(lean.bias[l], old.bias[l])
