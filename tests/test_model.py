"""Network building blocks checked against independent oracles.

The simplex projection is compared with a constrained QP solved by SLSQP,
the signal-to-image layer with naive loops, and the conv stages with a
direct nested-loop convolution.
"""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit
from test_gradients import ravel, set_from_ravel

from eegimage.model import (
    ABLATION_VARIANTS,
    CONV_PAD,
    EVAL_BLOCK,
    FULL_PADS,
    ModelConfig,
    ModelParams,
    _col2im,
    _im2col,
    backbone_forward,
    backward_batch,
    central_columns,
    central_cone,
    conv2d_backward,
    conv2d_forward,
    eeg_to_image_backward,
    eeg_to_image_batch,
    fixed_embedding,
    forward_batch,
    init_embedding,
    init_params,
    kl_div_rows,
    load_checkpoint,
    project_rows_simplex,
    save_checkpoint,
    sigmoid,
    silu,
    silu_backward,
    silu_grad_cut,
    softmax,
    variant_config,
)

# --- oracles ---


def qp_projection_oracle(v):
    """Euclidean projection onto the simplex via a general-purpose solver."""
    n = len(v)
    w0 = np.maximum(v, 0.0)
    w0 = w0 / w0.sum() if w0.sum() > 0 else np.full(n, 1.0 / n)
    res = minimize(
        lambda w: 0.5 * np.sum((w - v) ** 2),
        w0,
        jac=lambda w: w - v,
        bounds=[(0.0, None)] * n,
        constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
        method="SLSQP",
        options={"ftol": 1e-12, "maxiter": 400},
    )
    assert res.success
    return res.x


def project_simplex(v):
    """Euclidean projection of one vector onto {w >= 0, sum w = 1}, the
    per-row oracle of project_rows_simplex.

    Sort-and-threshold: find the largest k for which the top-k entries stay
    positive after sharing the excess mass, then clamp.
    """
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def windowed_mean_oracle(x, stride):
    """Mean of each non-overlapping length-`stride` window, per channel."""
    c, t = x.shape
    w = t // stride
    out = np.zeros((c, w))
    for ch in range(c):
        for col in range(w):
            out[ch, col] = x[ch, col * stride : (col + 1) * stride].mean()
    return out


def conv_loop_oracle(x, w, b, stride):
    """Direct padded 2d convolution, one output element at a time."""
    n, h, wid, cin = x.shape
    kk, _, _, cout = w.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    hout = -(-h // stride)
    wout = -(-wid // stride)
    out = np.zeros((n, hout, wout, cout))
    for bi in range(n):
        for i in range(hout):
            for j in range(wout):
                patch = xp[bi, i * stride : i * stride + kk, j * stride : j * stride + kk, :]
                for co in range(cout):
                    out[bi, i, j, co] = np.sum(patch * w[:, :, :, co]) + b[co]
    return out


def small_cfg(**kw):
    base = dict(
        n_channels=4,
        kernels_per_group=3,
        kernel_len=5,
        stride=5,
        backbone_channels=(6, 8),
        dropout_rate=0.0,
        dtype="float64",
    )
    base.update(kw)
    return ModelConfig(**base)


# --- simplex projection ---


def test_project_simplex_feasible_input_unchanged():
    v = np.array([0.2, 0.8])
    assert np.allclose(project_simplex(v), v, atol=1e-15)


def test_project_simplex_boundary():
    assert np.allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])


def test_project_simplex_matches_qp_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.normal(scale=2.0, size=10)
        got = project_simplex(v)
        want = qp_projection_oracle(v)
        assert np.max(np.abs(got - want)) < 1e-6


def test_project_rows_matches_scalar_path():
    rng = np.random.default_rng(3)
    mat = rng.normal(scale=3.0, size=(30, 10))
    rows = project_rows_simplex(mat)
    for i in range(30):
        assert np.allclose(rows[i], project_simplex(mat[i]), atol=1e-12)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
@settings(max_examples=200, deadline=None)
def test_project_simplex_output_feasible(vals):
    w = project_simplex(np.array(vals))
    assert w.min() >= -1e-12
    assert abs(w.sum() - 1.0) < 1e-9


@given(st.integers(2, 8), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_project_simplex_idempotent(n, seed):
    rng = np.random.default_rng(seed)
    w = project_simplex(rng.normal(size=n))
    again = project_simplex(w)
    assert np.allclose(again, w, atol=1e-12)


# --- embedding initialization ---


def test_init_embedding_kernel0_values():
    emb = init_embedding(ModelConfig(dtype="float64"))
    want = np.full(10, 0.05)
    want[0] = 0.55
    assert np.allclose(emb[0, 0], want, atol=1e-12)
    assert np.allclose(emb[2, 0], want, atol=1e-12)


def test_init_embedding_rows_on_simplex():
    emb = init_embedding(ModelConfig(dtype="float64"))
    flat = emb.reshape(-1, 10)
    assert flat.min() >= -1e-9
    assert np.allclose(flat.sum(axis=1), 1.0, atol=1e-9)


def test_fixed_embedding_is_interleave():
    emb = fixed_embedding(ModelConfig(dtype="float64"))
    for k in range(10):
        want = np.zeros(10)
        want[k] = 1.0
        assert np.array_equal(emb[1, k], want)


# --- signal-to-image layer ---


def test_shape_law_full_size():
    cfg = ModelConfig()
    params = init_params(cfg, seed=0)
    x = np.zeros((16, 10_000), dtype=np.float32)
    img = eeg_to_image_batch(x[None], params.embedding, cfg.row_layout, cfg.stride)[0][0]
    assert img.shape == (160, 1000, 3)


@pytest.mark.parametrize("t", [2000, 4000, 10_000])
def test_shape_law_property(t):
    cfg = ModelConfig()
    params = init_params(cfg, seed=1)
    img = eeg_to_image_batch(np.zeros((1, 16, t), dtype=np.float32), params.embedding,
                             cfg.row_layout, cfg.stride)[0][0]
    assert img.shape == (160, t // 10, 3)


def test_eeg_to_image_rejects_bad_length():
    cfg = ModelConfig()
    params = init_params(cfg, seed=0)
    with pytest.raises(ValueError):
        eeg_to_image_batch(np.zeros((1, 16, 1005), dtype=np.float32), params.embedding,
                           cfg.row_layout, cfg.stride)


def test_constant_input_preserved():
    cfg = ModelConfig(dtype="float64")
    params = init_params(cfg, seed=5)
    # random feasible kernels, not just the init
    rng = np.random.default_rng(11)
    params.set("embedding", project_rows_simplex(rng.normal(size=(3, 10, 10))))
    img, _ = eeg_to_image_batch(np.full((1, 16, 500), 37.25), params.embedding,
                                cfg.row_layout, cfg.stride)
    assert np.max(np.abs(img - 37.25)) < 1e-12


def test_uniform_kernels_give_windowed_means():
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    params.set("embedding", np.full((3, 3, 5), 1.0 / 5))
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 40))
    img = eeg_to_image_batch(x[None], params.embedding, cfg.row_layout, cfg.stride)[0][0]
    means = windowed_mean_oracle(x, 5)
    for g in range(3):
        for c in range(4):
            for k in range(3):
                row = c * 3 + k  # channel-major
                assert np.allclose(img[row, :, g], means[c], atol=1e-12)


def test_row_layouts_hold_same_content():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 4, 30))
    emb = project_rows_simplex(rng.normal(size=(3, 3, 5)))
    img_c, _ = eeg_to_image_batch(x, emb, "channel_major", 5)
    img_k, _ = eeg_to_image_batch(x, emb, "kernel_major", 5)
    c, k = 4, 3
    for ch in range(c):
        for kr in range(k):
            assert np.array_equal(img_c[:, ch * k + kr], img_k[:, kr * c + ch])


def test_row_content_matches_definition():
    # out[c*K+k, t, g] = sum_j w[g,k,j] * x[c, t*S+j]
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 4, 30))
    emb = project_rows_simplex(rng.normal(size=(3, 3, 5)))
    img, _ = eeg_to_image_batch(x, emb, "channel_major", 5)
    for g in range(3):
        for c in range(4):
            for k in range(3):
                for t in range(6):
                    want = np.dot(emb[g, k], x[0, c, t * 5 : (t + 1) * 5])
                    assert abs(img[0, c * 3 + k, t, g] - want) < 1e-12


def test_short_kernel_windows_start_every_stride():
    # kernel_len < stride: window t covers samples [t*S, t*S+L)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 2, 20))
    emb = project_rows_simplex(rng.normal(size=(3, 2, 3)))
    img, _ = eeg_to_image_batch(x, emb, "channel_major", 5)
    assert img.shape == (1, 4, 4, 3)
    want = np.dot(emb[1, 1], x[0, 0, 5:8])
    assert abs(img[0, 0 * 2 + 1, 1, 1] - want) < 1e-12


# --- backbone pieces ---


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 9, 11, 3))
    w = rng.normal(size=(3, 3, 3, 4))
    b = rng.normal(size=4)
    out, _ = conv2d_forward(x, w, b, stride=2)
    want = conv_loop_oracle(x, w, b, stride=2)
    assert out.shape == want.shape == (2, 5, 6, 4)
    assert np.max(np.abs(out - want)) < 1e-10


def test_conv2d_output_shape_is_ceil_half():
    for h, w in [(10, 10), (9, 13), (5, 5), (1, 7)]:
        x = np.zeros((1, h, w, 2))
        wgt = np.zeros((3, 3, 2, 3))
        out, _ = conv2d_forward(x, wgt, np.zeros(3), stride=2)
        assert out.shape == (1, -(-h // 2), -(-w // 2), 3)


def test_conv2d_backward_shapes_mirror_params():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 8, 8, 3))
    w = rng.normal(size=(3, 3, 3, 5))
    out, cache = conv2d_forward(x, w, np.zeros(5), stride=2)
    dx, dw, db = conv2d_backward(np.ones_like(out), cache)
    assert dx.shape == x.shape
    assert dw.shape == w.shape
    assert db.shape == (5,)


def test_silu_anchors():
    assert silu(np.array([0.0]))[0] == 0.0
    assert abs(silu(np.array([50.0]))[0] - 50.0) < 1e-12
    # sigmoid(1) = 0.731058...
    assert abs(silu(np.array([1.0]))[0] - 0.7310585786300049) < 1e-12


def test_silu_backward_matches_fd():
    x = np.linspace(-4, 4, 33)
    h = 1e-6
    fd = (silu(x + h) - silu(x - h)) / (2 * h)
    got = silu_backward(np.ones_like(x), silu(x, with_grad=True)[1])
    assert np.max(np.abs(fd - got)) < 1e-8


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_backward_is_bit_equal_to_the_textbook_derivative(dtype):
    rng = np.random.default_rng(11)
    x = (rng.normal(size=(4, 5, 6, 7)) * 4).astype(dtype)
    dout = rng.normal(size=x.shape).astype(dtype)
    h, grad = silu(x, with_grad=True)
    s = 1 / (1 + np.exp(-x))
    assert h.dtype == grad.dtype == dtype
    assert np.array_equal(h, silu(x))
    assert np.array_equal(silu_backward(dout, grad), dout * (s + x * s * (1.0 - s)))


def textbook_silu(x, with_grad=False):
    """SiLU and its derivative (1-s)·h + s over whole arrays, with no cut."""
    s = sigmoid(x)
    h = x * s
    return (h, (1.0 - s) * h + s) if with_grad else h


def test_silu_grad_cut_is_half_the_log_of_tiny():
    assert silu_grad_cut(np.float32).dtype == np.float32
    assert abs(silu_grad_cut(np.float32) - (-43.668)) < 1e-3
    assert abs(silu_grad_cut(np.float64) - (-354.198)) < 1e-3


def test_float32_silu_derivative_is_cut_to_zero_and_textbook_above_the_cut():
    cut = silu_grad_cut(np.float32)
    # the cut and its float32 neighbours are on the grid
    x = np.concatenate([np.linspace(-120.0, 40.0, 399_997, dtype=np.float32),
                        [np.nextafter(cut, -np.inf), cut, np.nextafter(cut, np.inf)]])
    x = x.astype(np.float32).reshape(-1, 8)
    h, g = silu(x, with_grad=True)
    assert h.dtype == g.dtype == np.float32
    # silu runs over blocks; each element is the whole-array result
    assert np.array_equal(h, x * sigmoid(x)) and np.array_equal(silu(x), h)
    assert all(np.array_equal(a.T, b) for a, b in zip(silu(x.T, with_grad=True), (h, g)))

    def subnormal(a):
        return ((a != 0) & (np.abs(a) < np.finfo(np.float32).tiny)).any()

    assert not subnormal(g)
    _, old = textbook_silu(x, with_grad=True)
    keep = x >= cut
    assert np.array_equal(g[keep], old[keep])
    assert not g[~keep].any() and (~keep).sum() > 0
    # the chain rule multiplies the derivatives of successive stages: the
    # textbook ones make subnormal products, the cut ones cannot
    assert subnormal(old * old) and not subnormal(g * g)


def test_float64_silu_derivative_is_textbook_down_to_minus_300():
    x = np.linspace(-300.0, 40.0, 340_005).reshape(-1, 5)
    h, g = silu(x, with_grad=True)
    assert np.array_equal(h, x * sigmoid(x))
    assert np.array_equal(g, textbook_silu(x, with_grad=True)[1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_the_unclamped_formula_bit_for_bit(dtype):
    # every float32 from 39 to 41 (the clamp's edge), a grid to 800 (where
    # float32 exp(-x) is subnormal or 0, float64's subnormal from 708 on),
    # infinities and nan
    edge = np.arange(np.float32(39.0).view(np.int32), np.float32(41.0).view(np.int32),
                     dtype=np.int32).view(np.float32)
    x = np.concatenate([edge, -edge, np.linspace(-800.0, 800.0, 640_001),
                        [np.inf, -np.inf, np.nan, 0.0, -0.0]]).astype(dtype)
    with np.errstate(over="ignore"):
        want = 1.0 / (1.0 + np.exp(-x))
    assert np.array_equal(sigmoid(x), want, equal_nan=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_is_finite_and_silent_at_extremes(dtype):
    x = np.array([0.0, 50.0, -50.0, 89.0, -89.0, 100.0, -100.0, 1e4, -1e4], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, grad = silu(x, with_grad=True)
    assert h.dtype == grad.dtype == dtype
    assert np.isfinite(h).all() and np.isfinite(grad).all()
    # SiLU tends to x above and to 0 below, its derivative to 1 and to 0
    assert h[7] == 1e4 and h[8] == 0.0 and grad[7] == 1.0 and grad[8] == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_within_4_ulp_of_expit(dtype):
    x = np.linspace(-120.0, 120.0, 480_001).astype(dtype)
    got, want = sigmoid(x), expit(x)
    assert got.dtype == dtype
    ulps = np.abs(got.astype(np.float64) - want) / np.spacing(np.maximum(got, want))
    assert ulps.max() <= 4.0


def test_conv2d_backward_without_input_gradient_keeps_dw_db():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 9, 7, 3))
    out, cache = conv2d_forward(x, rng.normal(size=(3, 3, 3, 5)), rng.normal(size=5), stride=2)
    dout = rng.normal(size=out.shape)
    _, dw, db = conv2d_backward(dout, cache)
    dx, dw_only, db_only = conv2d_backward(dout, cache, want_dx=False)
    assert dx is None
    assert np.array_equal(dw_only, dw) and np.array_equal(db_only, db)


def im2col_reference(x, kk, stride, pads):
    """im2col through np.pad and sliding_window_view."""
    n, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (CONV_PAD, CONV_PAD), pads, (0, 0)))
    view = np.lib.stride_tricks.sliding_window_view(xp, (kk, kk), axis=(1, 2))
    view = view[:, ::stride, ::stride]  # (N, Hout, Wout, C, kk, kk)
    hout, wout = view.shape[1], view.shape[2]
    cols = np.ascontiguousarray(view.transpose(0, 1, 2, 4, 5, 3)).reshape(
        n * hout * wout, kk * kk * c)
    return cols, (n, h, w, c, hout, wout)


def col2im_reference(dcols, kk, stride, pads, dims, dtype):
    """col2im one (row tap, column tap) pair at a time, kk*kk adds."""
    n, h, w, c, hout, wout = dims
    p, (pl, pr) = CONV_PAD, pads
    dcols = dcols.reshape(n, hout, wout, kk, kk, c)
    dxp = np.zeros((n, h + 2 * p, w + pl + pr, c), dtype=dtype)
    for i in range(kk):
        for j in range(kk):
            dxp[:, i : i + stride * hout : stride, j : j + stride * wout : stride, :] += (
                dcols[:, :, :, i, j, :])
    return dxp[:, p : h + p, pl : w + pl, :]


def assert_bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def with_negative_zeros(a, rng, fraction=0.2):
    a = a.copy()
    a[rng.random(a.shape) < fraction] = -0.0
    return a


KERNEL_PADS = [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("kk", [1, 2, 3, 4, 5])
def test_im2col_and_conv_forward_are_bit_identical_to_the_padded_window_view(kk, stride, dtype):
    rng = np.random.default_rng(100 * kk + stride)
    for pads in KERNEL_PADS:
        for width in (kk + 3, kk + 4):
            x = with_negative_zeros(rng.normal(size=(2, 5, width, 3)).astype(dtype), rng)
            cols, dims = _im2col(x, kk, stride, pads)
            want_cols, want_dims = im2col_reference(x, kk, stride, pads)
            assert dims == want_dims
            assert_bit_equal(cols, want_cols)
            w = rng.normal(size=(kk, kk, 3, 4)).astype(dtype)
            b = rng.normal(size=4).astype(dtype)
            out, cache = conv2d_forward(x, w, b, stride, pads)
            n, _, _, _, hout, wout = dims
            want = (want_cols @ w.reshape(-1, 4) + b).reshape(n, hout, wout, 4)
            assert_bit_equal(out, want)
            assert cache[1] is w and cache[2] == stride and cache[3] == dims


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("kk", [1, 2, 3, 4, 5])
def test_col2im_is_bit_identical_to_the_tap_by_tap_loop(kk, stride, dtype):
    rng = np.random.default_rng(200 * kk + stride)
    for pads in KERNEL_PADS:
        for width in (kk + 3, kk + 4):
            x = rng.normal(size=(2, 5, width, 3)).astype(dtype)
            _, dims = _im2col(x, kk, stride, pads)
            n, _, _, c, hout, wout = dims
            dcols = with_negative_zeros(
                rng.normal(size=(n * hout * wout, kk * kk * c)).astype(dtype), rng, 0.5)
            assert_bit_equal(_col2im(dcols, kk, stride, pads, dims, dtype),
                             col2im_reference(dcols, kk, stride, pads, dims, dtype))
            # and through conv2d_backward, with -0.0 in the upstream gradient
            w = rng.normal(size=(kk, kk, c, 4)).astype(dtype)
            out, cache = conv2d_forward(x, w, np.zeros(4, dtype), stride, pads)
            dout = with_negative_zeros(rng.normal(size=out.shape).astype(dtype), rng)
            dx, _, _ = conv2d_backward(dout, cache, True, pads)
            dcols = dout.reshape(-1, 4) @ w.reshape(-1, 4).T
            assert_bit_equal(dx, col2im_reference(dcols, kk, stride, pads, dims, dtype))


def test_training_cache_holds_one_silu_derivative_per_stage(monkeypatch):
    import eegimage.model as model

    cfg = small_cfg(backbone_channels=(6, 8, 10))
    params = init_params(cfg, seed=0)
    x = np.random.default_rng(5).normal(size=(3, 4, 200))
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    assert len(cache.silu_grads) == len(cache.conv_caches) == 3
    for g, (_, _, _, dims), cout in zip(cache.silu_grads, cache.conv_caches,
                                        cfg.backbone_channels):
        n, _, _, _, hout, wout = dims
        assert g.shape == (n, hout, wout, cout)
    # an eval forward asks SiLU for no derivative
    asked = []

    def spy(z, with_grad=False):
        asked.append(with_grad)
        return silu(z, with_grad)

    monkeypatch.setattr(model, "silu", spy)
    forward_batch(x, params, cfg)
    assert asked == [False] * 3


def _spy_conv_backward(monkeypatch):
    """Record, per conv2d_backward call, its input channel count and whether
    it built the input gradient."""
    import eegimage.model as model

    calls, orig = [], model.conv2d_backward

    def spy(dout, cache, *a, **k):
        r = orig(dout, cache, *a, **k)
        calls.append((cache[1].shape[2], r[0] is not None))
        return r

    monkeypatch.setattr(model, "conv2d_backward", spy)
    return calls


def test_frozen_embedding_skips_only_the_stage0_input_gradient(monkeypatch):
    from eegimage.model import backward_batch

    learn = small_cfg(backbone_channels=(6, 8, 10))
    frozen = variant_config(learn, "no_eeg2img")
    params = init_params(learn, seed=2)
    rng = np.random.default_rng(2)
    params.set("dense_w", rng.normal(size=params.get("dense_w").shape))
    x = rng.normal(size=(3, 4, 200)) * 50 + 127.5
    y = rng.dirichlet(np.ones(6), size=3)
    w = np.array([1.0, 2.0, 3.0])
    calls = _spy_conv_backward(monkeypatch)
    grads = {}
    for cfg in (learn, frozen):
        _, _, cache = forward_batch(x, params, cfg, want_cache=True)
        grads[cfg.learnable_embedding] = backward_batch(y, w, params, cfg, cache)
    # (input channels, built dx) per call, last stage first: groups=3 is stage 0,
    # whose input gradient neither config builds
    assert calls == [(8, True), (6, True), (3, False), (8, True), (6, True), (3, False)]
    (loss_l, g_l), (loss_f, g_f) = grads[True], grads[False]
    assert loss_l == loss_f
    for name in params.trainable_names(frozen):
        assert np.array_equal(g_l.get(name), g_f.get(name)), name
    assert not g_f.get("embedding").any() and g_l.get("embedding").any()


def test_pretraining_never_builds_the_stage0_input_gradient(monkeypatch):
    from eegimage.analysis import PretextConfig, pretrain_backbone

    calls = _spy_conv_backward(monkeypatch)
    pretrain_backbone(ModelConfig(backbone_channels=(6, 8)), seed=0,
                      pretext=PretextConfig(n_train=64, n_test=16, epochs=1,
                                            min_accuracy=0.0))
    assert calls and all(built == (cin != 3) for cin, built in calls)


def image_gradient_reference(dz0, image_cache, conv0_cache, pads=FULL_PADS):
    """The embedding gradient through the stage-0 image gradient: col2im,
    then a contraction of the image gradient with the raw windows."""
    win, _, layout, (n, c, k, w, g) = image_cache
    dimg, _, _ = conv2d_backward(dz0, conv0_cache, True, pads)
    if layout == "channel_major":
        return np.einsum("nckwg,ncwl->gkl", dimg.reshape(n, c, k, w, g), win, optimize=True)
    return np.einsum("nkcwg,ncwl->gkl", dimg.reshape(n, k, c, w, g), win, optimize=True)


def embedding_gradient_tensordot_reference(dz0, image_cache, conv0_cache, pad_left):
    """eeg_to_image_backward with one np.tensordot per (row tap, channel)."""
    win, emb_shape, layout, (n, c, k, w, g) = image_cache
    _, w0, stride, (_, h, _, _, hout, wout) = conv0_cache
    kk, l, cout = w0.shape[0], emb_shape[2], w0.shape[3]
    wp = np.zeros((c, n, stride * (wout - 1) + kk, l), dtype=win.dtype)
    wp[:, :, pad_left : pad_left + w] = win.transpose(1, 0, 2, 3)[:, :, : wp.shape[2] - pad_left]
    winj = np.stack([wp[:, :, j : j + stride * wout : stride] for j in range(kk)], axis=3)
    winj = winj.reshape(c, n * wout, kk * l)
    dzt = np.ascontiguousarray(dz0.transpose(1, 3, 0, 2)).reshape(hout, cout, n * wout)
    demb = np.zeros(emb_shape, dtype=dz0.dtype)
    ho = np.arange(hout)
    for i in range(kk):
        r = stride * ho + i - CONV_PAD
        on = (r >= 0) & (r < h)
        ho_i, r = ho[on], r[on]
        ch, kern = (r // k, r % k) if layout == "channel_major" else (r % c, r // c)
        for cc in np.unique(ch):
            rows = ch == cc
            sel = ho_i[rows]
            step = sel[1] - sel[0] if sel.size > 1 else 1
            part = dzt[sel[0] : sel[-1] + 1 : step].reshape(-1, n * wout) @ winj[cc]
            part = np.tensordot(part.reshape(-1, cout, kk, l), w0[i], axes=([1, 2], [2, 0]))
            demb[:, kern[rows], :] += part.transpose(2, 0, 1)
    return demb


def embedding_gradients(cfg, t, seed=0):
    """(new, reference) embedding gradient for a random stage-0 gradient."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    params.set("embedding", project_rows_simplex(rng.random(params.embedding.shape)))
    x = rng.normal(size=(2, cfg.n_channels, t)) * 50 + 127.5
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    dz0 = rng.normal(size=cache.silu_grads[0].shape).astype(cfg.np_dtype)
    pads = cache.cone[0][2] if cache.cone is not None else FULL_PADS
    return (eeg_to_image_backward(dz0, cache.image_cache, cache.conv_caches[0], pads[0]),
            image_gradient_reference(dz0, cache.image_cache, cache.conv_caches[0], pads))


EMBEDDING_GRADIENT_CASES = {
    "default": (ModelConfig(dtype="float64"), 1000),
    "gradient_gate": (small_cfg(), 100),
    "kernel_shorter_than_stride": (small_cfg(kernel_len=3, stride=7), 140),
    "conv_stride_3_kernel_5": (small_cfg(conv_stride=3, conv_kernel=5), 230),
    "cone_at_the_border": (small_cfg(conv_stride=1, backbone_channels=(4, 4, 4)), 25),
    "full_width": (small_cfg(pool_full_width=True), 100),
}


@pytest.mark.parametrize("layout", ["channel_major", "kernel_major"])
@pytest.mark.parametrize("case", sorted(EMBEDDING_GRADIENT_CASES))
def test_embedding_gradient_matches_the_image_gradient_path(case, layout):
    cfg, t = EMBEDDING_GRADIENT_CASES[case]
    got, want = embedding_gradients(replace(cfg, row_layout=layout), t)
    assert got.shape == want.shape == (cfg.groups, cfg.kernels_per_group, cfg.kernel_len)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("layout", ["channel_major", "kernel_major"])
@pytest.mark.parametrize("case", sorted(EMBEDDING_GRADIENT_CASES))
def test_embedding_gradient_is_bit_identical_to_the_tensordot_loop(case, layout, dtype):
    cfg, t = EMBEDDING_GRADIENT_CASES[case]
    cfg = replace(cfg, row_layout=layout, dtype=dtype)
    rng = np.random.default_rng(7)
    params = init_params(cfg, 7)
    params.set("embedding", project_rows_simplex(rng.random(params.embedding.shape)))
    x = rng.normal(size=(2, cfg.n_channels, t)) * 50 + 127.5
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    dz0 = with_negative_zeros(rng.normal(size=cache.silu_grads[0].shape).astype(dtype), rng)
    pad_left = cache.cone[0][2][0] if cache.cone is not None else CONV_PAD
    args = (dz0, cache.image_cache, cache.conv_caches[0], pad_left)
    assert_bit_equal(eeg_to_image_backward(*args), embedding_gradient_tensordot_reference(*args))


def test_embedding_gradient_in_float32_matches_the_image_gradient_path():
    got, want = embedding_gradients(ModelConfig(), 1000)
    assert got.dtype == np.float32
    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


# --- central temporal selection ---


def test_central_columns_anchors():
    assert central_columns(5) == (2, 1)
    assert central_columns(1000) == (400, 200)


def test_central_columns_small_width_errors():
    with pytest.raises(ValueError):
        central_columns(4)


def test_central_select_locality():
    rng = np.random.default_rng(12)
    fmap = rng.normal(size=(2, 3, 10, 4))
    start, count = central_columns(10)
    base = fmap[:, :, start : start + count, :].copy()
    perturbed = fmap.copy()
    for col in range(10):
        if start <= col < start + count:
            continue
        perturbed[:, :, col, :] += 100.0
    assert np.array_equal(perturbed[:, :, start : start + count, :], base)


@given(st.integers(5, 2000))
@settings(max_examples=200, deadline=None)
def test_central_columns_count_is_ceil_fifth(w):
    start, count = central_columns(w)
    assert start == 2 * w // 5
    assert count == -(-w // 5)
    assert 0 <= start and start + count <= w


# --- receptive-field crop ---


def full_width_forward(x, params, cfg):
    """The network without the crop: the whole image through every stage at
    every column, then the central columns of the last map are pooled.
    Returns (probs, feats, caches) for :func:`full_width_gradients`."""
    img, image_cache = eeg_to_image_batch(np.asarray(x, dtype=cfg.np_dtype), params.embedding,
                                          cfg.row_layout, cfg.stride)
    h, caches = img, []
    for w, b in params.conv_layers():
        z, cc = conv2d_forward(h, w, b, cfg.conv_stride)
        h, g = silu(z, with_grad=True)
        caches.append((cc, g))
    start, count = (0, h.shape[2]) if cfg.pool_full_width else central_columns(
        h.shape[2], cfg.central_fraction)
    feats = h[:, :, start : start + count, :].sum(axis=(1, 2)) / (h.shape[1] * count)
    probs = softmax(feats @ params.get("dense_w") + params.get("dense_b"))
    return probs, feats, (image_cache, caches, h.shape, (start, count))


def full_width_gradients(x, y, weights, params, cfg):
    """Every parameter's gradient of the uncropped network, the pooled
    columns' gradient scattered into a full-width last map."""
    probs, feats, (image_cache, caches, fmap_shape, (start, count)) = full_width_forward(
        x, params, cfg)
    dlogits = (weights[:, None] * (probs - y)).astype(probs.dtype)
    grads = {"dense_w": feats.T @ dlogits, "dense_b": dlogits.sum(axis=0)}
    dh = np.zeros(fmap_shape, dtype=probs.dtype)
    dh[:, :, start : start + count, :] = (
        dlogits @ params.get("dense_w").T / (fmap_shape[1] * count))[:, None, None, :]
    for i in reversed(range(len(caches))):
        dz = dh * caches[i][1]
        dh, grads[f"conv{i}_w"], grads[f"conv{i}_b"] = conv2d_backward(dz, caches[i][0])
    grads["embedding"] = image_gradient_reference(dz, image_cache, caches[0][0])
    return grads


CONE_CASES = {
    "default_float32": (ModelConfig(), 1000),
    "default_float64": (ModelConfig(dtype="float64"), 1000),
    "kernel_major": (ModelConfig(dtype="float64", row_layout="kernel_major"), 1000),
    "kernel_shorter_than_stride": (ModelConfig(dtype="float64", kernel_len=7), 1000),
    "gradient_gate": (small_cfg(input_mean=0.0), 100),
    "odd_width": (ModelConfig(dtype="float64"), 1010),
    "border_stride_1": (small_cfg(conv_stride=1, backbone_channels=(4, 4, 4)), 25),
    "border_kernel_5": (small_cfg(conv_stride=1, conv_kernel=5, backbone_channels=(4, 4, 4)), 55),
    "no_central": (ModelConfig(dtype="float64", pool_full_width=True), 1000),
    "frozen_embedding": (ModelConfig(dtype="float64", learnable_embedding=False), 1000),
}


def cone_problem(case, seed=0, n=3):
    cfg, t = CONE_CASES[case]
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    if cfg.learnable_embedding:
        params.set("embedding", project_rows_simplex(rng.random(params.embedding.shape)))
    params.set("dense_w", (rng.normal(size=params.get("dense_w").shape) * 0.3).astype(cfg.np_dtype))
    x = rng.normal(size=(n, cfg.n_channels, t)) * 50 + 127.5
    y = rng.dirichlet(np.ones(cfg.n_classes), size=n)
    return cfg, params, x, y, rng.uniform(0.5, 1.5, size=n)


def test_central_cone_of_the_default_network():
    # image 47 of 100 columns; stages 0-3 compute 23 of 50, 11 of 25, 5 of 13, 2 of 7
    assert central_cone(100, 4, 3, 2) == [
        (17, 64, (0, 0)), (9, 32, (0, 0)), (5, 16, (0, 0)), (3, 8, (0, 0))]
    assert central_columns(7) == (2, 2)


@pytest.mark.parametrize("width, n_stages", [(16, 2), (4, 0), (8, 1), (50, 4), (2, 3)])
def test_central_cone_rejects_a_last_width_under_5(width, n_stages):
    with pytest.raises(ValueError, match="too small for central selection"):
        central_cone(width, n_stages, 3, 2)


@pytest.mark.parametrize("case", sorted(CONE_CASES))
def test_cropped_forward_is_bit_identical_to_full_width(case):
    """Bit-equality rests on BLAS rounding each GEMM row the same whatever
    the row count; these configs are pinned. (Not every shape does: a float64
    GEMM with K=72, N=10 and 6 rows rounds differently from one with 30.)"""
    cfg, params, x, _, _ = cone_problem(case)
    probs, feats = forward_batch(x, params, cfg)
    want_probs, want_feats, _ = full_width_forward(x, params, cfg)
    assert np.array_equal(probs, want_probs) and np.array_equal(feats, want_feats)
    if case.startswith("border"):
        cone = central_cone(cfg.image_width(x.shape[-1]), len(cfg.backbone_channels),
                            cfg.conv_kernel, cfg.conv_stride)
        assert cone[0] == (0, cfg.image_width(x.shape[-1]), (CONV_PAD, CONV_PAD))


@pytest.mark.parametrize("case", sorted(CONE_CASES))
def test_cropped_gradients_match_full_width(case):
    """The crop drops dW/db rows that are exactly zero, so BLAS re-associates
    the sums: equal to rounding level."""
    cfg, params, x, y, w = cone_problem(case)
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    _, grads = backward_batch(y, w, params, cfg, cache)
    want = full_width_gradients(x, y, w, params, cfg)
    tol = 1e-12 if cfg.dtype == "float64" else 1e-5
    for name in params.trainable_names(cfg):
        got, ref = grads.get(name), want[name]
        assert np.abs(got - ref).max() <= tol * np.abs(ref).max(), name


@given(st.integers(5, 200), st.integers(1, 3), st.sampled_from([(3, 1), (3, 2), (3, 3),
                                                                  (5, 1), (5, 2), (5, 3)]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_central_cone_is_exactly_what_the_pooled_columns_read(width, n_stages, conv, seed):
    """With random weights, a full-width pass whose image is perturbed in one
    column: outside stage 0's cone the pooled central features stay
    bit-identical, inside it every column moves the central columns of the
    last map. The bump's effect is traced through the stack without SiLU:
    the activation is pointwise, so it cannot change which columns are read,
    while its flat negative tail can shrink the effect below the pool sum's
    rounding (silu(-51) is about -4e-21)."""
    kk, s = conv
    widths = [width]
    for _ in range(n_stages):
        widths.append((widths[-1] + 2 * CONV_PAD - kk) // s + 1)
    assume(widths[-1] >= 5)
    cone = central_cone(width, n_stages, kk, s)
    rng = np.random.default_rng(seed)
    layers = [(rng.normal(size=(kk, kk, 2, 2)), rng.normal(size=2)) for _ in range(n_stages)]
    start, count = central_columns(widths[-1])

    def central(img, act):
        h = img
        for w, b in layers:
            h = act(conv2d_forward(h, w, b, s)[0])
        return h[:, :, start : start + count, :]

    def pooled(img):
        return central(img, silu).sum(axis=(1, 2))

    def linear(img):
        return central(img, lambda z: z)

    rows = 1  # the fewest image rows that leave every stage a row
    for _ in range(n_stages):
        rows = s * (rows - 1) + kk - 2 * CONV_PAD
    img = rng.normal(size=(1, max(rows, 1), width, 2))
    base, base_linear = pooled(img), linear(img)
    a0, b0, _ = cone[0]
    for col in range(width):
        bumped = img.copy()
        bumped[:, :, col, :] += 1.0
        inside = a0 <= col < b0
        if not inside:
            assert np.array_equal(pooled(bumped), base), col
        assert np.array_equal(linear(bumped), base_linear) != inside, col
    # the cropped stack computes those columns alone, equal to rounding level
    params = ModelParams({f"conv{i}_{k}": v for i, (w, b) in enumerate(layers)
                          for k, v in (("w", w), ("b", b))})
    params.arrays.update(dense_w=np.zeros((2, 6)), dense_b=np.zeros(6))
    _, _, cache = backbone_forward(img[:, :, a0:b0], params, s, want_cache=True, cone=cone)
    rows, cols = cache.fmap_shape[1:3]
    assert cols == count and cache.pool_denominator == rows * count
    _, feats = backbone_forward(img[:, :, a0:b0], params, s, cone=cone)
    assert np.abs(feats - base / (rows * count)).max() <= 1e-12 * np.abs(base).max()


def _spy_conv_pads(monkeypatch):
    """Record the column pads and input width of every conv2d_forward and
    the pads of every conv2d_backward."""
    import eegimage.model as model

    calls = []
    fwd, bwd = model.conv2d_forward, model.conv2d_backward

    def spy_fwd(x, w, b, stride, pads=FULL_PADS):
        calls.append(("fwd", x.shape[2], pads))
        return fwd(x, w, b, stride, pads)

    def spy_bwd(dout, cache, want_dx=True, pads=FULL_PADS):
        calls.append(("bwd", cache[3][2], pads))
        return bwd(dout, cache, want_dx, pads)

    monkeypatch.setattr(model, "conv2d_forward", spy_fwd)
    monkeypatch.setattr(model, "conv2d_backward", spy_bwd)
    return calls


def test_no_central_and_pretraining_never_crop(monkeypatch):
    from eegimage.analysis import PretextConfig, pretrain_backbone

    calls = _spy_conv_pads(monkeypatch)
    cfg, params, x, y, w = cone_problem("no_central")
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    backward_batch(y, w, params, cfg, cache)
    assert cache.cone is None and calls[0][1] == cfg.image_width(x.shape[-1])
    assert len(calls) == 8 and all(pads == FULL_PADS for _, _, pads in calls)
    calls.clear()
    pretrain_backbone(ModelConfig(backbone_channels=(6, 8)), seed=0,
                      pretext=PretextConfig(n_train=64, n_test=16, epochs=1, min_accuracy=0.0))
    assert calls and all(pads == FULL_PADS for _, _, pads in calls)
    # the central config does crop
    calls.clear()
    cfg, params, x, _, _ = cone_problem("default_float64", n=1)
    forward_batch(x, params, cfg)
    assert [width for _, width, _ in calls] == [47, 23, 11, 5]


# --- forward pass ---


def test_softmax_rows_normalized():
    rng = np.random.default_rng(13)
    p = softmax(rng.normal(scale=30, size=(40, 6)))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert p.min() >= 0.0


def test_forward_zero_head_is_uniform():
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    x = np.random.default_rng(0).normal(size=(4, 100)) * 40 + 127.5
    probs, feat = forward_batch(x[None], params, cfg)
    assert np.allclose(probs, 1.0 / 6, atol=1e-12)
    assert feat.shape == (1, 8)


def test_forward_eval_is_pure():
    cfg = small_cfg(dropout_rate=0.3)
    params = init_params(cfg, seed=1)
    params.set("dense_w", np.random.default_rng(1).normal(size=params.get("dense_w").shape) * 0.1)
    x = np.random.default_rng(2).normal(size=(4, 100))
    p1, f1 = forward_batch(x[None], params, cfg)
    p2, f2 = forward_batch(x[None], params, cfg)
    assert np.array_equal(p1, p2) and np.array_equal(f1, f2)


def test_forward_probabilities_positive_sum_one():
    cfg = small_cfg(input_mean=0.0)
    params = init_params(cfg, seed=3)
    params.set("dense_w", np.random.default_rng(3).normal(size=params.get("dense_w").shape) * 0.1)
    probs, _ = forward_batch(np.random.default_rng(4).normal(size=(1, 4, 100)), params, cfg)
    assert abs(probs.sum() - 1.0) < 1e-9
    assert probs.min() > 0.0


def test_forward_spatial_collapse_errors():
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    # T=20 -> image width 4 -> after two stride-2 stages width 1 < 5
    with pytest.raises(ValueError):
        forward_batch(np.zeros((1, 4, 20)), params, cfg)


def test_forward_full_width_variant_accepts_narrow_maps():
    cfg = small_cfg(pool_full_width=True)
    params = init_params(cfg, seed=0)
    probs, _ = forward_batch(np.zeros((1, 4, 20)), params, cfg)
    assert probs.shape == (1, 6)


def test_train_mode_dropout_needs_rng():
    cfg = small_cfg(dropout_rate=0.5)
    params = init_params(cfg, seed=0)
    with pytest.raises(ValueError):
        forward_batch(np.zeros((1, 4, 40)), params, cfg, train=True)


def test_eval_forward_keeps_one_stage_of_im2col_columns(monkeypatch):
    import weakref

    import eegimage.model as model

    cfg = small_cfg(backbone_channels=(6, 8, 10))
    params = init_params(cfg, seed=0)
    x = np.random.default_rng(5).normal(size=(3, 4, 200))
    conv = model.conv2d_forward
    seen, peak = [], []

    def tracked(*a):
        # bytes of the columns of every stage so far that are still alive
        r = conv(*a)
        seen.append((weakref.ref(r[1][0]), r[1][0].nbytes))
        peak.append(sum(nb for ref, nb in seen if ref() is not None))
        return r

    monkeypatch.setattr(model, "conv2d_forward", tracked)
    forward_batch(x, params, cfg)
    stages = [nb for _, nb in seen]
    assert len(stages) == 3 and max(peak) == max(stages)
    # a forward that keeps its cache for the backward pass holds every stage
    seen.clear(), peak.clear()
    forward_batch(x, params, cfg, want_cache=True)
    assert max(peak) == sum(stages)


EVAL_BLOCK_CFGS = {
    "float32": ModelConfig(),
    "float64": ModelConfig(dtype="float64"),
    "float32_full_width": ModelConfig(pool_full_width=True),
    "float64_full_width": ModelConfig(dtype="float64", pool_full_width=True),
}


def eval_block_problem(name, n, seed=0):
    cfg = EVAL_BLOCK_CFGS[name]
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    params.set("embedding", project_rows_simplex(rng.random(params.embedding.shape)))
    params.set("dense_w", (rng.normal(size=params.get("dense_w").shape) * 0.3).astype(cfg.np_dtype))
    params.set("dense_b", rng.normal(size=cfg.n_classes).astype(cfg.np_dtype))
    return cfg, params, rng.normal(size=(n, cfg.n_channels, 1000)) * 50 + 127.5


@pytest.mark.parametrize("name", sorted(EVAL_BLOCK_CFGS))
@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 19, 64])
def test_blocked_eval_forward_equals_the_whole_batch_forward(name, n):
    """An eval forward runs the conv stack EVAL_BLOCK segments at a time and
    the head once over every row; its output is that of the cache path,
    which runs the whole batch at once, bit for bit. A head per block would
    round its tail block of a few rows differently."""
    assert EVAL_BLOCK == 8  # the sizes above then leave tail blocks of 1, 2, 3 and 8 rows
    cfg, params, x = eval_block_problem(name, n)
    probs, feats = forward_batch(x, params, cfg)
    want_probs, want_feats, _ = forward_batch(x, params, cfg, want_cache=True)
    assert feats.dtype == cfg.np_dtype and feats.shape == (n, cfg.backbone_channels[-1])
    assert np.array_equal(feats, want_feats) and np.array_equal(probs, want_probs)


@pytest.mark.parametrize("name", ["float32", "float32_full_width"])
def test_eval_forward_memory_does_not_grow_with_the_batch(name):
    """The live-allocation peak of one eval forward of 64 segments stays
    within 1.25x that of one EVAL_BLOCK; the input is made beforehand."""
    import tracemalloc

    cfg, params, x = eval_block_problem(name, 64)
    peaks = []
    for rows in (EVAL_BLOCK, 64):
        xb = np.ascontiguousarray(x[:rows])
        tracemalloc.start()
        try:
            forward_batch(xb, params, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_backward_frees_each_stage_as_it_goes():
    """A batch-32 training step at the default model: the backward consumes
    the forward's cache, freeing each stage's SiLU derivative and im2col
    columns as soon as they are used, so its live-allocation peak (the cache
    included) stays within 1.05x the training forward's."""
    import tracemalloc

    cfg = ModelConfig()
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = (rng.normal(size=(32, cfg.n_channels, 1000)) * 30 + 127.5).astype(np.float32)
    y = rng.dirichlet(np.ones(cfg.n_classes), size=32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, _, cache = forward_batch(x, params, cfg, train=True, rng=rng, want_cache=True)
        forward_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        backward_batch(y, np.ones(32), params, cfg, cache)
        backward_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert backward_peak <= 1.05 * forward_peak, (backward_peak, forward_peak)


def test_dropout_scaling_preserves_expectation():
    cfg = small_cfg(dropout_rate=0.5)
    params = init_params(cfg, seed=0)
    x = np.random.default_rng(5).normal(size=(1, 4, 100))
    _, feat_eval = forward_batch(x, params, cfg)
    rng = np.random.default_rng(0)
    acc = np.zeros_like(feat_eval)
    n = 4000
    for _ in range(n):
        _, _, cache = forward_batch(x, params, cfg, train=True, rng=rng, want_cache=True)
        acc += cache.feat_dropped
    # inverted dropout: E[feat * mask / keep] = feat
    assert np.allclose(acc / n, feat_eval, atol=0.05 * np.abs(feat_eval).max() + 1e-3)


# --- loss plumbing ---


def test_kl_div_rows_zero_at_match():
    p = np.array([[0.1, 0.2, 0.3, 0.1, 0.1, 0.2], np.full(6, 1.0 / 6)])
    assert list(kl_div_rows(p, p)) == [0.0, 0.0]


def test_kl_div_rows_onehot_vs_uniform_is_ln6():
    y = np.zeros((1, 6))
    y[0, 2] = 1.0
    p = np.full((1, 6), 1.0 / 6)
    assert abs(kl_div_rows(y, p)[0] - np.log(6.0)) < 1e-12


def test_kl_div_rows_half_half_anchor():
    """A half-half target against a prediction that halves its mass is ln 2."""
    y = np.array([[0.5, 0.5, 0, 0, 0, 0.0]])
    p = np.array([[0.25, 0.25, 0.125, 0.125, 0.125, 0.125]])
    assert abs(kl_div_rows(y, p)[0] - np.log(2.0)) < 1e-12


def test_kl_div_rows_zero_probabilities_stay_finite():
    """0 * ln(0/.) is 0 where the target is 0, and a zero prediction under
    target mass is clipped to `clip`, so no row is inf or nan."""
    y = np.array([[0.0, 1.0, 0, 0, 0, 0], [0.5, 0.5, 0, 0, 0, 0]])
    p = np.array([[0.0, 1.0, 0, 0, 0, 0], [1.0, 0.0, 0, 0, 0, 0]])
    kl = kl_div_rows(y, p, clip=1e-10)
    assert kl[0] == 0.0
    assert abs(kl[1] - (0.5 * np.log(0.5) + 0.5 * (np.log(0.5) - np.log(1e-10)))) < 1e-12


# --- parameter container ---


def test_ravel_round_trip():
    cfg = small_cfg()
    params = init_params(cfg, seed=7)
    rng = np.random.default_rng(7)
    params.set("dense_w", rng.normal(size=params.get("dense_w").shape))
    vec = ravel(params, cfg)
    assert vec.size == sum(params.get(n).size for n in params.trainable_names(cfg))
    clone = init_params(cfg, seed=99)
    set_from_ravel(clone, cfg, vec)
    assert np.array_equal(ravel(clone, cfg), vec)
    for name in params.trainable_names(cfg):
        assert np.array_equal(clone.get(name), params.get(name))


def test_frozen_embedding_not_trainable():
    cfg = small_cfg(learnable_embedding=False)
    params = init_params(cfg, seed=0)
    assert "embedding" not in params.trainable_names(cfg)
    assert ravel(params, cfg).size == sum(
        a.size for n, a in params.named_arrays() if n != "embedding")


def test_gradient_buffer_shapes_mirror_params():
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    grads = params.zeros_like()
    for (pn, pv), (gn, gv) in zip(params.named_arrays(), grads.named_arrays()):
        assert pn == gn and pv.shape == gv.shape and not gv.any()


def test_init_params_first_bias_centers_input():
    cfg = small_cfg(input_mean=127.5)
    params = init_params(cfg, seed=2)
    w0 = params.get("conv0_w")
    assert np.allclose(params.get("conv0_b"), -127.5 * w0.sum(axis=(0, 1, 2)), atol=1e-9)
    assert not params.get("dense_w").any() and not params.get("dense_b").any()


def test_init_params_backbone_transfer_and_mismatch():
    cfg = small_cfg()
    donor = init_params(cfg, seed=1)
    got = init_params(cfg, seed=2, backbone=donor)
    for (a, _), (b, _) in zip(got.conv_layers(), donor.conv_layers()):
        assert np.array_equal(a, b)
    bad = ModelParams({"conv0_w": np.zeros((3, 3, 3, 4)), "conv0_b": np.zeros(4)})
    with pytest.raises(ValueError):
        init_params(cfg, seed=0, backbone=bad)


# --- checkpoint format ---


def test_checkpoint_round_trip(tmp_path):
    cfg = small_cfg()
    params = init_params(cfg, seed=4)
    params.set("dense_w", np.random.default_rng(4).normal(size=params.get("dense_w").shape))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, cfg, meta={"fold": 3, "note": "x"})
    loaded, cfg2, meta = load_checkpoint(path)
    assert cfg2 == cfg
    assert meta["fold"] == 3
    for (n1, a1), (n2, a2) in zip(params.named_arrays(), loaded.named_arrays()):
        assert n1 == n2
        assert np.array_equal(a1, a2)
        assert a1.dtype == a2.dtype


def test_checkpoint_sidecar_and_magic(tmp_path):
    cfg = small_cfg(dtype="float32")
    params = init_params(cfg, seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg)
    raw = path.read_bytes()
    assert raw[:8] == b"EEGIMG01"
    sidecar = path.with_suffix(".ckpt.json").read_text()
    assert "config_hash" in sidecar


def test_checkpoint_rejects_corrupt_magic(tmp_path):
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_reload_and_save_is_byte_identical(tmp_path):
    cfg = small_cfg(dtype="float32")
    params = init_params(cfg, seed=6)
    rng = np.random.default_rng(6)
    params.set("dense_w", rng.normal(size=params.get("dense_w").shape).astype(np.float32))
    first = tmp_path / "a.ckpt"
    save_checkpoint(first, params, cfg, meta={"fold": 1, "seed": 6, "best_val_loss": 0.1234567891})
    loaded, cfg2, sidecar = load_checkpoint(first)
    second = tmp_path / "b.ckpt"
    save_checkpoint(second, loaded, cfg2, meta=sidecar)
    assert second.read_bytes() == first.read_bytes()
    assert (second.with_suffix(".ckpt.json").read_bytes()
            == first.with_suffix(".ckpt.json").read_bytes())


@pytest.mark.parametrize("fault, tensor", [
    ("missing", "conv1_b"), ("extra", "conv2_w"), ("shape", "dense_w"),
])
def test_checkpoint_rejects_tensors_the_config_does_not_name(tmp_path, fault, tensor):
    cfg = small_cfg()
    arrays = dict(init_params(cfg, seed=0).named_arrays())
    if fault == "missing":
        del arrays[tensor]
    elif fault == "extra":
        arrays[tensor] = np.zeros((3, 3, 8, 8))
    else:
        arrays[tensor] = np.zeros((7, cfg.n_classes))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ModelParams(arrays), cfg)
    with pytest.raises(ValueError, match=rf"m\.ckpt.*'{tensor}'"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", ["hash", "config"])
def test_checkpoint_rejects_a_sidecar_whose_hash_does_not_match(tmp_path, edit):
    import json

    cfg = small_cfg()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_params(cfg, seed=0), cfg)
    side = path.with_suffix(".ckpt.json")
    sidecar = json.loads(side.read_text())
    if edit == "hash":
        sidecar["config_hash"] = "0" * 16
    else:
        sidecar["config"]["dropout_rate"] = 0.5
    side.write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match=r"m\.ckpt\.json: field 'config_hash' '"):
        load_checkpoint(path)


def test_a_checkpoint_whose_config_holds_an_int_for_a_float_loads(tmp_path):
    cfg = replace(small_cfg(), dropout_rate=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_params(cfg, seed=0), cfg)
    _, loaded, _ = load_checkpoint(path)
    assert loaded == cfg and type(loaded.dropout_rate) is float


@pytest.mark.parametrize("edit, message", [
    ("unknown_key", r"field 'config': unknown fields \['depth'\]"),
    ("missing_config", r"field 'config': missing"),
    ("missing_key", r"field 'config': field 'stride': missing"),
    ("tuple_of_str", r"field 'config': field 'backbone_channels': must be an integer, got \"8\""),
    ("bad_value", r"field 'config': dropout_rate must be in \[0, 1\)"),
    ("not_json", r"not JSON: "),
    ("not_an_object", r"not a JSON object, got \[\]"),
])
def test_a_damaged_sidecar_fails_naming_the_file_and_field(tmp_path, edit, message):
    import json

    cfg = small_cfg()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_params(cfg, seed=0), cfg)
    side = path.with_suffix(".ckpt.json")
    sidecar = json.loads(side.read_text())
    if edit == "unknown_key":
        sidecar["config"]["depth"] = 3
    elif edit == "missing_config":
        del sidecar["config"]
    elif edit == "missing_key":
        del sidecar["config"]["stride"]
    elif edit == "tuple_of_str":
        sidecar["config"]["backbone_channels"][0] = "8"
    elif edit == "bad_value":
        sidecar["config"]["dropout_rate"] = 1.5
    text = {"not_json": "{", "not_an_object": "[]"}.get(edit, json.dumps(sidecar))
    side.write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(side))}: {message}"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    cfg = small_cfg()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_params(cfg, seed=0), cfg)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ValueError, match=r"m\.ckpt: truncated in tensor 'dense_b'"):
        load_checkpoint(path)


# --- ablation variants ---


def test_variant_configs_change_exactly_one_field():
    base = ModelConfig()
    diffs = {
        "full": set(),
        "no_central": {"pool_full_width"},
        "no_pretrain": {"pretrained"},
        "no_eeg2img": {"learnable_embedding"},
    }
    for tag in ABLATION_VARIANTS:
        v = variant_config(base, tag)
        changed = {
            f for f in base.__dataclass_fields__ if getattr(v, f) != getattr(base, f)
        }
        assert changed == diffs[tag]


def test_variant_config_unknown_tag():
    with pytest.raises(ValueError):
        variant_config(ModelConfig(), "no_such_variant")
