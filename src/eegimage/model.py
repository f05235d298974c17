"""The network: simplex-constrained EEG-to-image embedding, a small stride-2
convolutional backbone, central temporal selection, pooling and a softmax
head, with exact hand-written reverse-mode gradients.

Everything is plain numpy. Forward in eval mode is a pure function; training
code gets gradients from :func:`backward_batch` and owns the parameters. The
image-level pair :func:`backbone_forward`/:func:`backbone_backward` (conv
stack, pooling, softmax head) also trains the backbone on its pretext.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path
import numpy as np

from .util import read_record, write_record

CHECKPOINT_MAGIC = b"EEGIMG01"
CHECKPOINT_VERSION = 1
_DTYPE_CODES = {"float32": 0, "float64": 1}
_DTYPE_FROM_CODE = {0: "<f4", 1: "<f8"}
ROW_LAYOUTS = ("channel_major", "kernel_major")


@dataclass(frozen=True)
class ModelConfig:
    n_channels: int = 16
    groups: int = 3
    kernels_per_group: int = 10
    kernel_len: int = 10
    stride: int = 10
    backbone_channels: tuple[int, ...] = (16, 32, 64, 128)
    conv_kernel: int = 3
    conv_stride: int = 2
    dropout_rate: float = 0.2
    n_classes: int = 6
    row_layout: str = "channel_major"
    central_fraction: int = 5
    pool_full_width: bool = False
    learnable_embedding: bool = True
    pretrained: bool = True
    input_mean: float = 127.5
    dtype: str = "float32"

    def __post_init__(self):
        if self.row_layout not in ROW_LAYOUTS:
            raise ValueError(f"unknown row_layout {self.row_layout!r}")
        if self.kernel_len > self.stride:
            raise ValueError("kernel_len must not exceed stride")
        if self.dtype not in _DTYPE_CODES:
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype}")
        if not self.backbone_channels:
            raise ValueError("backbone needs at least one stage")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    def image_width(self, t: int) -> int:
        if t % self.stride != 0:
            raise ValueError(f"T={t} not divisible by stride {self.stride}")
        return t // self.stride


def project_rows_simplex(mat: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection (used on every kernel after each step)."""
    m = np.asarray(mat, dtype=np.float64)
    u = np.sort(m, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    idx = np.arange(1, m.shape[-1] + 1)
    cond = u - css / idx > 0
    rho = cond.shape[-1] - 1 - np.argmax(cond[..., ::-1], axis=-1)
    theta = np.take_along_axis(css, rho[..., None], axis=-1) / (rho[..., None] + 1.0)
    return np.maximum(m - theta, 0.0).astype(mat.dtype)


def init_embedding(cfg: ModelConfig) -> np.ndarray:
    """Kernel k = 0.5*onehot(k) + 0.5*uniform, projected to the simplex.

    Deterministic (no noise term): the initial embedding is close to an
    information-preserving interleaved reshape.
    """
    g, k, l = cfg.groups, cfg.kernels_per_group, cfg.kernel_len
    emb = np.full((g, k, l), 0.5 / l, dtype=np.float64)
    for i in range(k):
        emb[:, i, i % l] += 0.5
    # kernels stay float64 whatever the training dtype: the simplex
    # invariant (|sum-1| <= 1e-9) is tighter than float32 resolution
    return project_rows_simplex(emb.reshape(-1, l)).reshape(g, k, l)


def fixed_embedding(cfg: ModelConfig) -> np.ndarray:
    """Non-learnable interleaved reshape: kernel k picks sample k of each
    window."""
    g, k, l = cfg.groups, cfg.kernels_per_group, cfg.kernel_len
    emb = np.zeros((g, k, l), dtype=np.float64)
    for i in range(k):
        emb[:, i, i % l] = 1.0
    return emb


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every network array, in checkpoint order."""
    shapes = {"embedding": (cfg.groups, cfg.kernels_per_group, cfg.kernel_len)}
    cin, kk = cfg.groups, cfg.conv_kernel
    for i, cout in enumerate(cfg.backbone_channels):
        shapes[f"conv{i}_w"] = (kk, kk, cin, cout)
        shapes[f"conv{i}_b"] = (cout,)
        cin = cout
    shapes["dense_w"] = (cin, cfg.n_classes)
    shapes["dense_b"] = (cfg.n_classes,)
    return shapes


@dataclass
class ModelParams:
    """Named arrays in checkpoint order: embedding (groups, K, L; float64,
    rows on the simplex), conv{i}_w (kh, kw, cin, cout) and conv{i}_b per
    backbone stage, dense_w (feat_dim, n_classes) and dense_b. Gradients,
    optimizer state and the pretraining network (no embedding) use the same
    store."""

    arrays: dict[str, np.ndarray]

    @property
    def embedding(self) -> np.ndarray:
        return self.arrays["embedding"]

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return list(self.arrays.items())

    def conv_layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) of each backbone stage, in order."""
        layers = []
        while f"conv{len(layers)}_w" in self.arrays:
            i = len(layers)
            layers.append((self.arrays[f"conv{i}_w"], self.arrays[f"conv{i}_b"]))
        return layers

    def trainable_names(self, cfg: ModelConfig) -> list[str]:
        names = list(self.arrays)
        if not cfg.learnable_embedding:
            names.remove("embedding")
        return names

    def get(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def set(self, name: str, value: np.ndarray) -> None:
        if name not in self.arrays:
            raise KeyError(name)
        self.arrays[name] = value

    def zeros_like(self) -> "ModelParams":
        """Gradient buffer with shapes mirroring the parameters exactly."""
        return ModelParams({n: np.zeros_like(a) for n, a in self.arrays.items()})

    def copy(self) -> "ModelParams":
        return ModelParams({n: a.copy() for n, a in self.arrays.items()})


def init_params(cfg: ModelConfig, seed: int, backbone: ModelParams | None = None) -> ModelParams:
    """Fresh parameters; pass a pretrained network as backbone to transfer
    its conv{i}_w and conv{i}_b, copied by name.

    The dense head starts at zero so the first prediction is uniform. The
    first conv stage's bias offsets the 0-255 input range so pre-activations
    start centered.
    """
    rng = np.random.default_rng(seed)
    dt = cfg.np_dtype
    shapes = param_shapes(cfg)
    emb = init_embedding(cfg) if cfg.learnable_embedding else fixed_embedding(cfg)
    arrays = {"embedding": emb}
    for i in range(len(cfg.backbone_channels)):
        kk, _, cin, cout = shapes[f"conv{i}_w"]
        w = (rng.standard_normal((kk, kk, cin, cout)) * np.sqrt(2.0 / (kk * kk * cin))).astype(dt)
        if i == 0:
            b = (-cfg.input_mean * w.sum(axis=(0, 1, 2))).astype(dt)
        else:
            b = np.zeros(cout, dtype=dt)
        arrays[f"conv{i}_w"], arrays[f"conv{i}_b"] = w, b
    if backbone is not None:
        conv = {n for n in shapes if n.startswith("conv")}
        if conv != {n for n in backbone.arrays if n.startswith("conv")} or any(
            backbone.get(n).shape != shapes[n] for n in conv
        ):
            raise ValueError("pretrained backbone shapes do not match config")
        for n in conv:
            arrays[n] = backbone.get(n).astype(dt)
    arrays["dense_w"] = np.zeros(shapes["dense_w"], dtype=dt)
    arrays["dense_b"] = np.zeros(shapes["dense_b"], dtype=dt)
    return ModelParams(arrays)


# --- layers (functional: forward returns a cache consumed by backward) ---

CONV_PAD = 1  # zero border of every conv stage, on each side
FULL_PADS = (CONV_PAD, CONV_PAD)  # (left, right) column pads of an uncropped stage


def eeg_to_image_batch(x: np.ndarray, embedding: np.ndarray, layout: str, stride: int):
    """[N x C x T] -> [N x H x W x groups] image via per-window convex
    combinations.

    Row r of the image holds kernel k applied to channel c, with
    r = c*K + k (channel_major) or r = k*C + c (kernel_major).
    """
    n, c, t = x.shape
    g, k, l = embedding.shape
    if t % stride != 0:
        raise ValueError(f"T={t} not divisible by stride {stride}")
    w = t // stride
    if l == stride:
        win = x.reshape(n, c, w, l)
    else:  # l < stride: windows start every `stride` samples
        win = np.lib.stride_tricks.sliding_window_view(x, l, axis=-1)[:, :, ::stride, :]
    # kernels are kept float64 for the simplex invariant; the image itself
    # is computed in the signal dtype
    emb = np.asarray(embedding, dtype=x.dtype)
    # (N,C,W,L) x (G,K,L) -> (N,C,W,G,K)
    out = np.tensordot(win, emb, axes=([3], [2]))
    if layout == "channel_major":
        img = out.transpose(0, 1, 4, 2, 3).reshape(n, c * k, w, g)
    else:
        img = out.transpose(0, 4, 1, 2, 3).reshape(n, k * c, w, g)
    cache = (win, embedding.shape, layout, (n, c, k, w, g))
    return np.ascontiguousarray(img), cache


def eeg_to_image_backward(dz0: np.ndarray, image_cache, conv0_cache,
                          pad_left: int) -> np.ndarray:
    """Gradient w.r.t. the embedding kernels, from stage 0's pre-activation
    gradient dz0, without forming the image gradient. pad_left is stage 0's
    left column pad.

    Image row r = s*ho + i - pad feeds output row ho through row tap i, so
    for each (i, channel c) one GEMM contracts dz0's rows of channel c with
    c's windows at every column tap j; the taps' weights then fold (j, o)
    into (g, l), and kernel k(r) collects the result.
    """
    win, emb_shape, layout, (n, c, k, w, g) = image_cache
    _, w0, stride, (_, h, _, _, hout, wout) = conv0_cache
    kk, l, cout = w0.shape[0], emb_shape[2], w0.shape[3]
    # winj[c, n*wo, j*l] = win[n, c, s*wo + j - pad_left, l], zero off the image
    wp = np.zeros((c, n, stride * (wout - 1) + kk, l), dtype=win.dtype)
    wp[:, :, pad_left : pad_left + w] = win.transpose(1, 0, 2, 3)[:, :, : wp.shape[2] - pad_left]
    winj = np.stack([wp[:, :, j : j + stride * wout : stride] for j in range(kk)], axis=3)
    winj = winj.reshape(c, n * wout, kk * l)
    dzt = np.ascontiguousarray(dz0.transpose(1, 3, 0, 2)).reshape(hout, cout, n * wout)
    demb = np.zeros(emb_shape, dtype=dz0.dtype)
    ho = np.arange(hout)
    for i in range(kk):
        # the right operand np.tensordot builds from w0[i], (j, g, o) ->
        # (o·j, g); every channel of this row tap reuses it
        wi = w0[i].transpose(2, 0, 1).reshape(cout * kk, g)
        r = stride * ho + i - CONV_PAD
        on = (r >= 0) & (r < h)
        ho_i, r = ho[on], r[on]
        # the one line that knows the row layout
        ch, kern = (r // k, r % k) if layout == "channel_major" else (r % c, r // c)
        for cc in np.unique(ch):
            rows = ch == cc
            # one channel's rows are evenly spaced (contiguous in channel_major,
            # one residue class in kernel_major), so a slice selects them
            sel = ho_i[rows]
            step = sel[1] - sel[0] if sel.size > 1 else 1
            part = dzt[sel[0] : sel[-1] + 1 : step].reshape(-1, n * wout) @ winj[cc]
            # (rows, o, j, l) x (j, g, o) -> (rows, l, g) as the one GEMM
            # np.tensordot makes of it, so the rounding is tensordot's
            part = part.reshape(-1, cout, kk, l).transpose(0, 3, 1, 2).reshape(-1, cout * kk)
            part = np.dot(part, wi).reshape(-1, l, g)
            demb[:, kern[rows], :] += part.transpose(2, 0, 1)
    return demb


def _im2col(x: np.ndarray, kk: int, stride: int, pads: tuple[int, int]):
    """Rows (n, ho, wo) of kk x kk x c patches of x, with CONV_PAD zero rows
    above and below and pads = (left, right) zero columns, gathered through
    one strided view of a zero-bordered copy."""
    n, h, w, c = x.shape
    p, (pl, pr) = CONV_PAD, pads
    hout = (h + 2 * p - kk) // stride + 1
    wout = (w + pl + pr - kk) // stride + 1
    if hout < 1 or wout < 1:
        raise ValueError(f"a {kk}x{kk} kernel does not fit a padded {h}x{w} input")
    xp = np.zeros((n, h + 2 * p, w + pl + pr, c), dtype=x.dtype)
    xp[:, p : p + h, pl : pl + w] = x
    sn, sh, sw, sc = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, (n, hout, wout, kk, kk, c), (sn, stride * sh, stride * sw, sh, sw, sc),
        writeable=False)
    return view.reshape(n * hout * wout, kk * kk * c), (n, h, w, c, hout, wout)


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int,
                   pads: tuple[int, int] = FULL_PADS):
    """Conv of an [N x H x W x C] batch: CONV_PAD zero rows above and below,
    pads = (left, right) zero columns."""
    kk = w.shape[0]
    cout = w.shape[3]
    cols, dims = _im2col(x, kk, stride, pads)
    out = cols @ w.reshape(-1, cout)
    out += b
    n, _, _, _, hout, wout = dims
    cache = (cols, w, stride, dims)
    return out.reshape(n, hout, wout, cout), cache


def _col2im(dcols: np.ndarray, kk: int, stride: int, pads: tuple[int, int], dims,
            dtype: np.dtype):
    """Inverse of :func:`_im2col`: add every patch row of dcols back onto the
    input it was gathered from, in a dtype array.

    The padded input gradient is viewed as blocks of `stride` columns, so
    column taps q·s .. q·s+s-1 of output column wo land, contiguous, in block
    wo+q: each row tap adds ceil(kk/s) runs of up to s·c values rather than
    kk runs of c. Every entry still receives its taps in (row tap, column
    tap) order, so the sums are those of a tap-by-tap loop, bit for bit.
    """
    n, h, w, c, hout, wout = dims
    s, p, (pl, pr) = stride, CONV_PAD, pads
    blocks = -(-(w + pl + pr) // s)
    dxp = np.zeros((n, h + 2 * p, blocks * s, c), dtype=dtype)
    dxb = dxp.reshape(n, h + 2 * p, blocks, s * c)
    taps = dcols.reshape(n, hout, wout, kk, kk, c)
    for i in range(kk):
        rows = dxb[:, i : i + s * hout : s]
        for q in range(0, kk, s):
            m = min(s, kk - q)
            rows[:, :, q // s : q // s + wout, : m * c] += taps[:, :, :, i, q : q + m].reshape(
                n, hout, wout, m * c)
    return dxp[:, p : h + p, pl : w + pl, :]


def conv2d_backward(dout: np.ndarray, cache, want_dx: bool = True,
                    pads: tuple[int, int] = FULL_PADS):
    """(dx, dw, db) of a conv2d_forward that used these column pads. dx is
    None when want_dx is False, which skips the second GEMM and the col2im
    scatter. The cache's im2col columns are released right after the dW
    GEMM, so they are freed then when the caller passed the only reference
    (as :func:`backbone_backward` does)."""
    cols, w, stride, dims = cache
    del cache  # so that the columns die with the dW GEMM if no caller holds them
    kk = w.shape[0]
    cout = w.shape[3]
    dflat = dout.reshape(-1, cout)
    dw = (cols.T @ dflat).reshape(w.shape)
    del cols
    db = dflat.sum(axis=0)
    if not want_dx:
        return None, dw, db
    dcols = dflat @ w.reshape(-1, cout).T
    return _col2im(dcols, kk, stride, pads, dims, dout.dtype), dw, db


SIGMOID_EXP_FLOOR = 40.0  # exp(-40) = 4.2e-18, under half an ulp of 1 in float64
SILU_BLOCK = 32768  # elements per pass of silu: a block's x, s, h and g stay in L2


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1/(1+exp(-x)) in one buffer of x's dtype (out, if given), within 4 ulp
    of scipy.special.expit. For very negative x, exp overflows to inf and the
    result is exactly 0.

    exp's argument is held at -SIGMOID_EXP_FLOOR or above: from there on
    1 + exp(-x) rounds to 1 in float32 and float64 alike, so every result is
    that of the unclamped formula, bit for bit, and exp never returns the
    subnormals (x above 87 in float32) that make it an order slower.
    """
    s = np.negative(x, out=out)
    np.maximum(s, -SIGMOID_EXP_FLOOR, out=s)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def silu_grad_cut(dtype) -> np.floating:
    """½·ln(tiny) of a float dtype (-43.67 for float32, -354.2 for float64).

    Below it SiLU's derivative is under about |x|·sqrt(tiny), so its
    products with the gradients that reach it are often subnormal, and
    subnormals slow every GEMM of the conv backward. :func:`silu` returns 0
    there instead.
    """
    dtype = np.dtype(dtype)
    return dtype.type(0.5 * np.log(np.finfo(dtype).tiny))


def silu(x: np.ndarray, with_grad: bool = False):
    """x * sigmoid(x); with_grad also returns the local derivative
    s + x*s*(1-s) that :func:`silu_backward` takes, from the same sigmoid,
    and ±0 where x < :func:`silu_grad_cut`.

    Runs over blocks of SILU_BLOCK elements, so that each of its passes
    reads and writes cache; every element gets the whole-array result, bit
    for bit.
    """
    x = np.ascontiguousarray(x)
    h = np.empty_like(x)
    g = np.empty_like(x) if with_grad else None
    cut = silu_grad_cut(x.dtype)
    s_buf = np.empty(min(SILU_BLOCK, x.size), dtype=x.dtype)
    keep_buf = np.empty(s_buf.size, dtype=bool)
    xf, hf = x.reshape(-1), h.reshape(-1)
    for a in range(0, x.size, SILU_BLOCK):
        xb = xf[a : a + SILU_BLOCK]
        s = sigmoid(xb, out=s_buf[: xb.size])
        hb = np.multiply(xb, s, out=hf[a : a + SILU_BLOCK])
        if with_grad:
            # h*(1-s) + s in place; h is exactly the x*s of the textbook form
            gb = np.subtract(1.0, s, out=g.reshape(-1)[a : a + SILU_BLOCK])
            gb *= hb
            gb += s
            # a multiply by the mask: np.copyto(gb, 0, where=) is an order slower
            gb *= np.greater_equal(xb, cut, out=keep_buf[: xb.size])
    return (h, g) if with_grad else h


def silu_backward(dout: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Chain dout through SiLU, given the derivative its forward returned."""
    return dout * grad


def central_columns(w: int, fraction: int = 5) -> tuple[int, int]:
    """Retained column range [start, start+count) mirroring the labeled
    central fifth."""
    if w < fraction:
        raise ValueError(f"feature map width {w} too small for central selection")
    start = 2 * w // fraction
    count = -(-w // fraction)
    return start, count


def central_cone(
    width: int, n_stages: int, conv_kernel: int, conv_stride: int, fraction: int = 5
) -> list[tuple[int, int, tuple[int, int]]]:
    """The columns each conv stage must read so that the last stage yields
    exactly its :func:`central_columns`.

    Returns, per stage, its input column range [a, b) and the (left, right)
    zero-column pads that conv2d_forward then needs: CONV_PAD where the range
    reaches the border of the stage's input, 0 inside it. Stage 0's input is
    the image, ``width`` columns wide.
    """
    kk, s, p = conv_kernel, conv_stride, CONV_PAD
    widths = [width]
    for _ in range(n_stages):
        widths.append((widths[-1] + 2 * p - kk) // s + 1)
    start, count = central_columns(widths[-1], fraction)
    lo, hi = start, start + count
    cone = []
    for w_in in reversed(widths[:-1]):
        a, b = s * lo - p, s * (hi - 1) - p + kk  # input columns [a, b) output [lo, hi) reads
        cone.append((max(a, 0), min(b, w_in), (max(-a, 0), max(b - w_in, 0))))
        lo, hi = cone[-1][:2]
    return cone[::-1]


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# --- full network ---

EVAL_BLOCK = 8  # segments an eval forward_batch carries through the conv stack at once


@dataclass
class ForwardCache:
    conv_caches: list
    silu_grads: list  # per stage, dSiLU/dz at the pre-activation
    fmap_shape: tuple
    cone: list | None  # central_cone of a cropped forward, None at full width
    pool_denominator: float
    dropout_mask: np.ndarray | None
    feat_dropped: np.ndarray
    probs: np.ndarray
    image_cache: tuple | None = None  # set by forward_batch
    consumed: bool = False  # set by backbone_backward, which frees the stages


def _stage_pads(cone: list | None, n_stages: int) -> list[tuple[int, int]]:
    """Each stage's (left, right) column pads."""
    return [pads for _, _, pads in cone] if cone is not None else [FULL_PADS] * n_stages


def _stages_and_pool(h: np.ndarray, params: ModelParams, conv_stride: int, cone: list | None,
                     caches: tuple[list, list] | None = None, out: np.ndarray | None = None):
    """The conv stages with SiLU over an image batch, then the average over
    the whole last feature map, written into out if given.

    With caches = (conv_caches, silu_grads), each stage appends its conv
    cache and SiLU derivative for :func:`backbone_backward`; without, each
    stage's im2col columns are freed as soon as its GEMM returns. Returns
    (feats, last map's shape).
    """
    layers = params.conv_layers()
    for (w, b), pads in zip(layers, _stage_pads(cone, len(layers))):
        z, cc = conv2d_forward(h, w, b, conv_stride, pads)
        if caches is not None:
            h, g = silu(z, with_grad=True)
            caches[0].append(cc)
            caches[1].append(g)
        else:
            del cc  # an eval forward's columns die with their GEMM, before the SiLU
            h = silu(z)
        del z
    return np.divide(h.sum(axis=(1, 2)), float(h.shape[1] * h.shape[2]), out=out), h.shape


def backbone_forward(
    img: np.ndarray,
    params: ModelParams,
    conv_stride: int,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    want_cache: bool = False,
    cone: list | None = None,
):
    """Run an [N x H x W x C] image batch through the conv stack, average
    pooling over the whole last feature map, and the softmax head.

    With a :func:`central_cone`, img holds only stage 0's input columns and
    each stage computes only the columns of its cone, so the last map is
    exactly the central columns of the full-width one. Dropout on the pooled
    features draws its mask from rng. Returns (probs, feats) and, when
    want_cache, the cache for :func:`backbone_backward`; without it each
    stage's im2col columns are freed as soon as its GEMM returns.
    """
    conv_caches, silu_grads = [], []
    feat, fmap_shape = _stages_and_pool(img, params, conv_stride, cone,
                                        (conv_caches, silu_grads) if want_cache else None)

    if dropout_rate > 0.0:
        if rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        keep = 1.0 - dropout_rate
        mask = (rng.random(feat.shape) < keep).astype(feat.dtype) / keep
        feat_dropped = feat * mask
    else:
        mask = None
        feat_dropped = feat

    probs = softmax(feat_dropped @ params.get("dense_w") + params.get("dense_b"))
    if not want_cache:
        return probs, feat
    cache = ForwardCache(
        conv_caches=conv_caches,
        silu_grads=silu_grads,
        fmap_shape=fmap_shape,
        cone=cone,
        pool_denominator=float(fmap_shape[1] * fmap_shape[2]),
        dropout_mask=mask,
        feat_dropped=feat_dropped,
        probs=probs,
    )
    return probs, feat, cache


def kl_div_rows(y: np.ndarray, p: np.ndarray, clip: float = 1e-15) -> np.ndarray:
    """Per-row KL(y || p) with 0*ln(0/.) = 0 and p clipped away from zero."""
    p = np.maximum(p, clip)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(y > 0, y * (np.log(np.maximum(y, clip)) - np.log(p)), 0.0)
    return terms.sum(axis=-1)


def _take_columns(conv_caches: list, i: int) -> tuple:
    """conv_caches[i], which is left in the list without its im2col columns."""
    cc = conv_caches[i]
    conv_caches[i] = (None,) + cc[1:]
    return cc


def backbone_backward(
    y: np.ndarray,
    weights: np.ndarray,
    params: ModelParams,
    cache: ForwardCache,
) -> tuple[float, ModelParams, np.ndarray]:
    """Gradients of sum_i weights_i * KL(y_i || p_i) through the head, the
    pooling and the conv stack.

    Returns (loss, grads, dz0): grads mirrors params (an embedding, if
    present, is left at zero) and dz0 is the gradient w.r.t. stage 0's
    pre-activation. No stage builds the gradient w.r.t. the image.

    Consumes the cache: each stage's SiLU derivative is dropped once its dz
    is formed, and its im2col columns once its dW GEMM has run, so the
    backward's working set shrinks as it goes. The conv caches keep their
    weights and shapes (stage 0's for :func:`eeg_to_image_backward`). A
    second backward on the same cache raises ValueError.
    """
    if cache.consumed:
        raise ValueError("this forward cache was consumed by an earlier backward; "
                         "run the forward again")
    probs = cache.probs
    loss = float((weights * kl_div_rows(y, probs)).sum())
    if not np.isfinite(loss):
        raise FloatingPointError(
            f"non-finite loss {loss}; prob range [{probs.min()}, {probs.max()}]"
        )
    cache.consumed = True

    grads = params.zeros_like()
    dlogits = (weights[:, None] * (probs - y)).astype(probs.dtype)

    grads.get("dense_w")[...] = cache.feat_dropped.T @ dlogits
    grads.get("dense_b")[...] = dlogits.sum(axis=0)
    dfeat = dlogits @ params.get("dense_w").T
    if cache.dropout_mask is not None:
        dfeat = dfeat * cache.dropout_mask

    dh = np.zeros(cache.fmap_shape, dtype=probs.dtype)
    dh += (dfeat / cache.pool_denominator)[:, None, None, :]

    pads = _stage_pads(cache.cone, len(cache.conv_caches))
    for i in reversed(range(len(cache.conv_caches))):
        dz = silu_backward(dh, cache.silu_grads[i])
        cache.silu_grads[i] = dh = None
        dh, dw, db = conv2d_backward(dz, _take_columns(cache.conv_caches, i), i > 0, pads[i])
        grads.get(f"conv{i}_w")[...] = dw
        grads.get(f"conv{i}_b")[...] = db
    return loss, grads, dz


def forward_batch(
    x: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
    want_cache: bool = False,
):
    """Run [N x channels x T] through the network.

    Returns (probs [N x 6], feats [N x feat_dim]) and, when want_cache, the
    cache needed by :func:`backward_batch`. Dropout is active only in train
    mode and draws its mask from rng.

    Unless cfg.pool_full_width, only the signal under stage 0's
    :func:`central_cone` is embedded and each stage computes only its cone.
    The pooled central columns equal a full-width pass's, bit for bit where
    BLAS rounds each GEMM row the same whatever the row count.

    An eval forward (neither train nor want_cache) embeds and runs the conv
    stack over blocks of EVAL_BLOCK segments, so its working set does not
    grow with the batch; the head then runs once over all pooled rows, as a
    per-block head would round differently on a block of a few rows.
    """
    x = np.asarray(x)
    cone = None
    if not cfg.pool_full_width:
        cone = central_cone(cfg.image_width(x.shape[-1]), len(cfg.backbone_channels),
                            cfg.conv_kernel, cfg.conv_stride, cfg.central_fraction)
        # windows start every `stride` samples and kernel_len <= stride, so
        # these samples make exactly image columns a0 .. b0-1
        a0, b0, _ = cone[0]
        x = x[..., a0 * cfg.stride : b0 * cfg.stride]
    if not (train or want_cache):
        feat = np.empty((x.shape[0], cfg.backbone_channels[-1]), dtype=cfg.np_dtype)
        for a in range(0, x.shape[0], EVAL_BLOCK):
            xb = np.asarray(x[a : a + EVAL_BLOCK], dtype=cfg.np_dtype)
            img, _ = eeg_to_image_batch(xb, params.embedding, cfg.row_layout, cfg.stride)
            _stages_and_pool(img, params, cfg.conv_stride, cone, out=feat[a : a + EVAL_BLOCK])
        return softmax(feat @ params.get("dense_w") + params.get("dense_b")), feat
    x = np.asarray(x, dtype=cfg.np_dtype)
    img, image_cache = eeg_to_image_batch(x, params.embedding, cfg.row_layout, cfg.stride)
    out = backbone_forward(
        img, params, cfg.conv_stride,
        dropout_rate=cfg.dropout_rate if train else 0.0,
        rng=rng, want_cache=want_cache, cone=cone,
    )
    if want_cache:
        out[2].image_cache = image_cache
    return out


def backward_batch(
    y: np.ndarray,
    weights: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
    cache: ForwardCache,
) -> tuple[float, ModelParams]:
    """Gradients of sum_i weights_i * KL(y_i || p_i) for every parameter.

    Returns (loss, grads) where grads mirrors the parameter shapes.
    """
    loss, grads, dz0 = backbone_backward(y, weights, params, cache)
    if cfg.learnable_embedding:
        pad_left = cache.cone[0][2][0] if cache.cone is not None else CONV_PAD
        grads.get("embedding")[...] = eeg_to_image_backward(
            dz0, cache.image_cache, cache.conv_caches[0], pad_left)
    return loss, grads


# --- checkpoints: versioned binary + JSON sidecar ---


def checkpoint_sidecar(path: Path) -> Path:
    """The JSON sidecar of checkpoint `path`: fold0.ckpt's is fold0.ckpt.json."""
    path = Path(path)
    return path.with_suffix(path.suffix + ".json")


def save_checkpoint(path: Path, params: ModelParams, cfg: ModelConfig, meta: dict | None = None) -> None:
    path = Path(path)
    tensors = list(params.named_arrays())
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(tensors)))
        for name, arr in tensors:
            nb = name.encode()
            dcode = _DTYPE_CODES[str(arr.dtype)]
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<BB", dcode, arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(np.ascontiguousarray(arr, dtype=_DTYPE_FROM_CODE[dcode]).tobytes())
    write_record(checkpoint_sidecar(path), cfg, "config",
                 **{"format_version": CHECKPOINT_VERSION, **(meta or {})})


def load_checkpoint(path: Path) -> tuple[ModelParams, ModelConfig, dict]:
    """Read a checkpoint and its sidecar; the sidecar's config_hash must match
    its config, and every tensor that config names must be present with its
    shape, and no other."""
    path = Path(path)
    tensors: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:

        def read(n: int, what: str) -> bytes:
            raw = f.read(n)
            if len(raw) != n:
                raise ValueError(f"{path}: truncated in {what}")
            return raw

        if f.read(8) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        version, count = struct.unpack("<II", read(8, "the header"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        for i in range(count):
            (nlen,) = struct.unpack("<I", read(4, f"tensor #{i}"))
            name = read(nlen, f"tensor #{i}").decode()
            dcode, ndim = struct.unpack("<BB", read(2, f"tensor {name!r}"))
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim, f"tensor {name!r}"))
            dtype = np.dtype(_DTYPE_FROM_CODE[dcode])
            raw = read(int(np.prod(shape)) * dtype.itemsize, f"tensor {name!r}")
            tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    cfg, sidecar = read_record(checkpoint_sidecar(path), ModelConfig, "config")
    shapes = param_shapes(cfg)
    for name in tensors:
        if name not in shapes:
            raise ValueError(f"{path}: unexpected tensor {name!r}")
    for name, shape in shapes.items():
        if name not in tensors:
            raise ValueError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise ValueError(f"{path}: tensor {name!r} has shape "
                             f"{tensors[name].shape}, the config expects {shape}")
    return ModelParams({name: tensors[name] for name in shapes}), cfg, sidecar


def variant_config(base: ModelConfig, tag: str) -> ModelConfig:
    """Component-removal variants; each alters exactly one thing.

    full: as configured. no_central: pool over the whole temporal extent.
    no_pretrain: random backbone init instead of transfer. no_eeg2img: fixed
    interleaved-reshape embedding with zero learnable weights.
    """
    if tag == "full":
        return base
    if tag == "no_central":
        return replace(base, pool_full_width=True)
    if tag == "no_pretrain":
        return replace(base, pretrained=False)
    if tag == "no_eeg2img":
        return replace(base, learnable_embedding=False)
    raise ValueError(f"unknown ablation variant {tag!r}")


ABLATION_VARIANTS = ("full", "no_central", "no_pretrain", "no_eeg2img")
