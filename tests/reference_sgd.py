"""Slow reference SGD path: dense gradients and dense momentum, boolean-index zeroing.

These are the original `backward`, `sgd_step`, `new_velocity` and
`mask_velocity` that the package replaced with a dense-only gradient and
momentum kept at live connections only (dsffs.sparse_net). They compute
the same weight and bias bytes while all values are finite, and serve as
the oracle of tests/test_sgd_path.py. Nothing here comes from the package,
so the oracle cannot change along with the code it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Gradients:
    """`masked[l] == dense[l] * mask[l]`, both kept for every layer."""

    masked: list[np.ndarray]
    dense: list[np.ndarray]
    bias: list[np.ndarray]


def softmax_cross_entropy(logits, labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-300).mean())
    return loss, probs


def backward(net, cache, labels) -> Gradients:
    """Dense gradient of every layer, then masked = dense * mask."""
    if cache.version != net.version:
        raise ValueError("stale cache: network changed since forward()")
    labels = np.asarray(labels)
    n = cache.inputs[0].shape[0]
    if labels.shape != (n,):
        raise ValueError("labels do not match the cached batch")

    n_layers = len(net.layers)
    _, probs = softmax_cross_entropy(cache.zs[-1], labels)
    delta = probs
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    dense = [None] * n_layers
    bias = [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        dense[l] = cache.inputs[l].T @ delta
        bias[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ net.layers[l].weights.T) * (cache.zs[l - 1] > 0.0)
    masked = [dense[l] * net.layers[l].mask for l in range(n_layers)]
    return Gradients(masked, dense, bias)


def new_velocity(net):
    """Zeroed dense momentum buffers matching the network's layers."""
    return [
        (np.zeros_like(layer.weights), np.zeros_like(layer.bias))
        for layer in net.layers
    ]


def mask_velocity(net, velocity) -> None:
    """Zero momentum at positions no longer in the mask (after topology updates).

    Written as +0.0, the momentum a new connection starts from: `vw *= mask`
    would leave -0.0 where a pruned connection's momentum was negative, a
    sign no weight ever sees but that the byte comparison would.
    """
    for layer, (vw, _) in zip(net.layers, velocity):
        vw[~layer.mask] = 0.0


def sgd_step(net, grads, lr, momentum=0.0, velocity=None, prox=None):
    """SGD(+momentum) with the proximal term built out of place and a scatter of zeros."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if velocity is None:
        velocity = new_velocity(net)
    for l, layer in enumerate(net.layers):
        g = grads.masked[l]
        if prox is not None:
            mu, anchor = prox
            if mu != 0.0:
                g = g + mu * (layer.weights - anchor.layers[l].weights) * layer.mask
        vw, vb = velocity[l]
        vw *= momentum
        vw += g
        layer.weights -= lr * vw
        layer.weights[~layer.mask] = 0.0
        vb *= momentum
        vb += grads.bias[l]
        layer.bias -= lr * vb
    net.touch()
    return velocity
