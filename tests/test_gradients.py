"""Reverse-mode gradients checked against a central finite-difference oracle.

The check runs on a downsized 64-bit network (T=100, two backbone stages)
with unit-scale inputs so the difference quotient is not polluted by
truncation error from large activations or saturated softmax outputs.
"""

import time

import numpy as np
import pytest

from eegimage.model import (
    ModelConfig,
    backward_batch,
    forward_batch,
    init_params,
)


def check_cfg():
    return ModelConfig(
        n_channels=4,
        kernels_per_group=3,
        kernel_len=5,
        stride=5,
        backbone_channels=(6, 8),
        dropout_rate=0.0,
        dtype="float64",
        input_mean=0.0,
    )


def make_problem(seed=0, n=2):
    rng = np.random.default_rng(seed)
    cfg = check_cfg()
    params = init_params(cfg, seed)
    # zero dense head would hide head-input gradients; use a small random one
    params.set("dense_w", rng.normal(size=params.get("dense_w").shape) * 0.1)
    params.set("dense_b", rng.normal(size=params.get("dense_b").shape) * 0.01)
    x = rng.standard_normal((n, 4, 100))
    y = rng.random((n, 6))
    y /= y.sum(axis=1, keepdims=True)
    weights = rng.uniform(0.5, 1.5, size=n)
    return cfg, params, x, y, weights


def ravel(params, cfg):
    """The trainable arrays of params as one flat vector, in store order."""
    return np.concatenate([params.get(n).ravel() for n in params.trainable_names(cfg)])


def set_from_ravel(params, cfg, vec):
    """Inverse of :func:`ravel`: refill the trainable arrays of params from vec."""
    i = 0
    for name in params.trainable_names(cfg):
        arr = params.get(name)
        n = arr.size
        params.set(name, vec[i : i + n].reshape(arr.shape).astype(arr.dtype))
        i += n
    if i != vec.size:
        raise ValueError(f"parameter vector has {vec.size} entries, expected {i}")


def batch_loss(x, y, weights, params, cfg):
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    loss, _ = backward_batch(y, weights, params, cfg, cache)
    return loss


def fd_gradient(x, y, weights, params, cfg, h=1e-4):
    base = ravel(params, cfg)
    grad = np.zeros_like(base)
    probe = params.copy()
    for i in range(base.size):
        v = base.copy()
        v[i] = base[i] + h
        set_from_ravel(probe, cfg, v)
        up = batch_loss(x, y, weights, probe, cfg)
        v[i] = base[i] - h
        set_from_ravel(probe, cfg, v)
        down = batch_loss(x, y, weights, probe, cfg)
        grad[i] = (up - down) / (2 * h)
    return grad


def test_gradients_match_finite_differences():
    cfg, params, x, y, weights = make_problem(seed=1)
    t0 = time.time()
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    _, grads = backward_batch(y, weights, params, cfg, cache)
    analytic = ravel(grads, cfg)
    numeric = fd_gradient(x, y, weights, params, cfg)
    elapsed = time.time() - t0

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    frac_ok = float((rel <= 1e-4).mean())
    assert frac_ok >= 0.99, f"only {frac_ok:.4f} of parameters within 1e-4"
    assert rel.max() <= 1e-3, f"worst relative error {rel.max():.2e}"
    assert elapsed < 60.0


def test_gradient_covers_every_parameter_group():
    cfg, params, x, y, weights = make_problem(seed=2)
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    _, grads = backward_batch(y, weights, params, cfg, cache)
    for name in params.trainable_names(cfg):
        assert np.abs(grads.get(name)).max() > 0.0, f"{name} gradient vanished"


def test_weight_doubling_doubles_gradients():
    cfg, params, x, y, weights = make_problem(seed=3)
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    loss1, g1 = backward_batch(y, weights, params, cfg, cache)
    # a backward consumes its cache; the eval-mode forward is deterministic
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    loss2, g2 = backward_batch(y, 2.0 * weights, params, cfg, cache)
    assert loss2 == 2.0 * loss1
    for name, arr in g1.named_arrays():
        assert np.array_equal(g2.get(name), 2.0 * arr)


def test_a_second_backward_on_one_cache_raises():
    cfg, params, x, y, weights = make_problem(seed=3)
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    backward_batch(y, weights, params, cfg, cache)
    with pytest.raises(ValueError, match="consumed"):
        backward_batch(y, weights, params, cfg, cache)


def test_prediction_equals_target_is_stationary():
    cfg, params, x, _, weights = make_problem(seed=4)
    params.get("dense_w")[...] = 0.0
    params.get("dense_b")[...] = 0.0
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    y = cache.probs.copy()  # exactly uniform
    loss, grads = backward_batch(y, weights, params, cfg, cache)
    assert loss == 0.0
    for name, arr in grads.named_arrays():
        assert not arr.any(), f"{name} nonzero at the stationary point"


def test_batch_gradient_is_sum_of_samples():
    cfg, params, x, y, weights = make_problem(seed=5, n=3)
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    _, g_batch = backward_batch(y, weights, params, cfg, cache)
    total = params.zeros_like()
    for i in range(3):
        _, _, ci = forward_batch(x[i : i + 1], params, cfg, want_cache=True)
        _, gi = backward_batch(y[i : i + 1], weights[i : i + 1], params, cfg, ci)
        for name, arr in gi.named_arrays():
            total.get(name)[...] += arr
    for name, arr in g_batch.named_arrays():
        assert np.allclose(arr, total.get(name), atol=1e-12)


def test_non_finite_loss_raises():
    cfg, params, x, y, weights = make_problem(seed=6)
    weights = weights.copy()
    weights[0] = np.inf
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    with pytest.raises(FloatingPointError):
        backward_batch(y, weights, params, cfg, cache)


def test_frozen_embedding_gets_no_gradient():
    rng = np.random.default_rng(7)
    cfg = ModelConfig(
        n_channels=4,
        kernels_per_group=3,
        kernel_len=5,
        stride=5,
        backbone_channels=(6, 8),
        dropout_rate=0.0,
        dtype="float64",
        input_mean=0.0,
        learnable_embedding=False,
    )
    params = init_params(cfg, seed=7)
    params.set("dense_w", rng.normal(size=params.get("dense_w").shape) * 0.1)
    x = rng.standard_normal((2, 4, 100))
    y = rng.random((2, 6))
    y /= y.sum(axis=1, keepdims=True)
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    _, grads = backward_batch(y, np.ones(2), params, cfg, cache)
    assert not grads.embedding.any()
    assert "embedding" not in grads.trainable_names(cfg)


def test_gradient_through_dropout_mask():
    # with a fixed mask the chain rule must include the same mask
    cfg = ModelConfig(
        n_channels=4,
        kernels_per_group=3,
        kernel_len=5,
        stride=5,
        backbone_channels=(6, 8),
        dropout_rate=0.5,
        dtype="float64",
        input_mean=0.0,
    )
    rng = np.random.default_rng(8)
    params = init_params(cfg, seed=8)
    params.set("dense_w", rng.normal(size=params.get("dense_w").shape) * 0.1)
    x = rng.standard_normal((2, 4, 100))
    y = np.full((2, 6), 1.0 / 6)
    _, _, cache = forward_batch(
        x, params, cfg, train=True, rng=np.random.default_rng(0), want_cache=True
    )
    _, grads = backward_batch(y, np.ones(2), params, cfg, cache)
    # dense gradient uses the dropped features, not the clean ones
    dlogits = cache.probs - y
    assert np.allclose(grads.get("dense_w"), cache.feat_dropped.T @ dlogits, atol=1e-12)
