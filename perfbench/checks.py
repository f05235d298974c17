"""Correctness checks with the benchmark's own reference code.

Each check reads the program's artifacts (CSV, checkpoints, signal files)
with its own parsers and recomputes the figure independently, so a check
never compares today's output with itself. Every check returns a list of
failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np
from scipy import signal as sps

CLASSES = ("seizure", "lpd", "gpd", "lrda", "grda", "other")
CLIP_UV, SCALE_MAX = 1024.0, 255.0
FLOAT32_SUM_TOL = 1e-6  # six float32 softmax outputs, each rounded


# --- readers ---

def csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def read_manifest(path: Path) -> tuple[list[str], np.ndarray, list[str]]:
    """(segment ids, votes [N x 6], signal paths relative to the manifest)."""
    rows = csv_rows(path)
    votes = np.array([[float(r[f"votes_{c}"]) for c in CLASSES] for r in rows])
    return [r["segment_id"] for r in rows], votes, [r["path"] for r in rows]


def read_predictions(path: Path) -> tuple[list[str], np.ndarray]:
    rows = csv_rows(path)
    probs = np.array([[float(r[f"{c}_vote"]) for c in CLASSES] for r in rows])
    return [r["id"] for r in rows], probs


def read_signal(path: Path) -> tuple[float, np.ndarray]:
    """(fs, samples [channels x T] float32) from a signal file."""
    with open(path, "rb") as f:
        if f.readline().strip() != b"eegimage-signal v1":
            raise ValueError(f"{path}: not a signal file")
        head = dict(f.readline().decode().strip().split("=", 1) for _ in range(7))
        n_ch, t = int(head["channels"]), int(head["samples"])
        x = np.frombuffer(f.read(n_ch * t * 4), dtype="<f4").reshape(n_ch, t)
    return float(head["fs"]), x


def read_checkpoint(path: Path) -> tuple[dict[str, np.ndarray], dict]:
    """Tensors by name plus the model config from the JSON sidecar."""
    arrays = {}
    with open(path, "rb") as f:
        if f.read(8) != b"EEGIMG01":
            raise ValueError(f"{path}: bad magic")
        _, count = struct.unpack("<II", f.read(8))
        for _ in range(count):
            (nlen,) = struct.unpack("<I", f.read(4))
            name = f.read(nlen).decode()
            dcode, ndim = struct.unpack("<BB", f.read(2))
            shape = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
            dtype = np.dtype("<f4" if dcode == 0 else "<f8")
            n = int(np.prod(shape))
            arrays[name] = np.frombuffer(f.read(n * dtype.itemsize), dtype=dtype).reshape(shape)
    with open(f"{path}.json") as f:
        return arrays, json.load(f)["config"]


# --- reference math ---

def kld_rows(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    p = np.maximum(p, 1e-15)
    safe_y = np.where(y > 0, y, 1.0)
    return np.where(y > 0, y * np.log(safe_y / p), 0.0).sum(axis=1)


def bandpass(x: np.ndarray, fs: float, order: int, low: float, high: float) -> np.ndarray:
    sos = sps.butter(order, [low, high], btype="bandpass", output="sos", fs=fs)
    padlen = min(x.shape[-1] - 1, int(round(fs / low)))
    return sps.sosfiltfilt(sos, np.asarray(x, dtype=np.float64), axis=-1,
                           padtype="even", padlen=padlen)


def clip_scale(x: np.ndarray) -> np.ndarray:
    return (np.clip(x, -CLIP_UV, CLIP_UV) + CLIP_UV) * (SCALE_MAX / (2 * CLIP_UV))


def _conv_offsets(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    """'Same'-padded strided conv as a sum over kernel offsets (no im2col)."""
    kk = w.shape[0]
    n, h, wd, _ = x.shape
    hout, wout = -(-h // stride), -(-wd // stride)
    xp = np.pad(x, ((0, 0), (kk // 2, kk // 2), (kk // 2, kk // 2), (0, 0)))
    out = np.zeros((n, hout, wout, w.shape[3]))
    for i in range(kk):
        for j in range(kk):
            out += xp[:, i:i + stride * hout:stride, j:j + stride * wout:stride, :] @ w[i, j]
    return out + b


def reference_forward(x_scaled: np.ndarray, arrays: dict, cfg: dict) -> np.ndarray:
    """Class probabilities of one model for scaled [N x C x T] input, in
    float64, written from the model description."""
    x = np.asarray(x_scaled, dtype=np.float64)
    emb = arrays["embedding"].astype(np.float64)
    g, k, l = emb.shape
    n, c, t = x.shape
    stride = cfg["stride"]
    w = t // stride
    win = np.stack([x[:, :, j * stride:j * stride + l] for j in range(w)], axis=2)
    per = np.einsum("ncwl,gkl->nckwg", win, emb)  # kernel k on channel c
    if cfg["row_layout"] == "channel_major":
        img = per.reshape(n, c * k, w, g)
    else:
        img = per.transpose(0, 2, 1, 3, 4).reshape(n, k * c, w, g)
    h = img
    for i in range(len(cfg["backbone_channels"])):
        z = _conv_offsets(h, arrays[f"conv{i}_w"].astype(np.float64),
                          arrays[f"conv{i}_b"].astype(np.float64), cfg["conv_stride"])
        h = z / (1.0 + np.exp(-z))
    wf = h.shape[2]
    if cfg["pool_full_width"]:
        region = h
    else:
        start, count = 2 * wf // cfg["central_fraction"], -(-wf // cfg["central_fraction"])
        region = h[:, :, start:start + count, :]
    feat = region.mean(axis=(1, 2))
    logits = feat @ arrays["dense_w"].astype(np.float64) + arrays["dense_b"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# --- checks ---

def check_probabilities(probs: np.ndarray, what: str, tol: float) -> list[str]:
    """Rows are finite, non-negative and sum to 1 within ``tol``: 1e-9 for
    the float64 ensemble mean, 1e-6 for one float32 model's softmax."""
    if not np.isfinite(probs).all() or (probs < 0).any():
        return [f"{what}: probabilities not finite and non-negative"]
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    return [f"{what}: a row sums to 1 +- {worst:.3g}"] if worst > tol else []


def check_simplex(ckpts: list[Path]) -> list[str]:
    errors = []
    if not ckpts:
        return ["no checkpoints to check"]
    for p in ckpts:
        arrays, _ = read_checkpoint(p)
        emb = arrays["embedding"]
        rows = emb.reshape(-1, emb.shape[-1])
        if (rows < 0).any() or np.abs(rows.sum(axis=1) - 1.0).max() > 1e-9:
            errors.append(f"{p.name}: embedding rows leave the simplex")
    return errors


def check_bandpass(data_dir: Path, filt: dict, sample: list[int], loaded: np.ndarray) -> list[str]:
    """``loaded`` holds what load_dataset returned for the sampled segments."""
    _, _, paths = read_manifest(data_dir / "manifest.csv")
    errors = []
    for j, i in enumerate(sample):
        fs, raw = read_signal(data_dir / paths[i])
        if fs != filt["fs"]:
            errors.append(f"segment {i}: fs {fs} differs from the recorded {filt['fs']}")
            continue
        ref = bandpass(raw, fs, filt["order"], filt["low_hz"], filt["high_hz"])
        err = float(np.abs(loaded[j] - ref).max())
        if err > 1e-4 * float(np.abs(ref).max()) + 1e-6:
            errors.append(f"segment {i}: filtered signal off the reference by {err:.3g} uV")
    return errors


def check_kld(pred_path: Path, manifest_path: Path, reported: float) -> list[str]:
    ids, probs = read_predictions(pred_path)
    mids, votes, _ = read_manifest(manifest_path)
    if ids != mids:
        return [f"{pred_path.name}: ids do not follow the manifest"]
    y = votes / votes.sum(axis=1, keepdims=True)
    mine = float(kld_rows(y, probs).mean())
    prior = float(kld_rows(y, np.broadcast_to(y.mean(axis=0), y.shape)).mean())
    uniform = float(kld_rows(y, np.full_like(y, 1.0 / len(CLASSES))).mean())
    errors = check_probabilities(probs, pred_path.name, FLOAT32_SUM_TOL)
    if abs(mine - reported) > 1e-9:
        errors.append(f"mean KLD reported {reported!r}, recomputed {mine!r}")
    if not mine < prior:
        errors.append(f"mean KLD {mine:.4f} does not beat the class prior {prior:.4f}")
    if not mine < uniform:
        errors.append(f"mean KLD {mine:.4f} does not beat uniform {uniform:.4f}")
    return errors


def check_forward(ckpts: list[Path], data_dir: Path, filt: dict, pred_path: Path,
                  sample: list[int]) -> list[str]:
    """Ensemble probabilities of sampled served segments from raw signal and
    checkpoint arrays, against predictions.csv."""
    _, _, paths = read_manifest(data_dir / "manifest.csv")
    _, probs = read_predictions(pred_path)
    x = np.stack([bandpass(read_signal(data_dir / paths[i])[1], filt["fs"], filt["order"],
                           filt["low_hz"], filt["high_hz"]) for i in sample])
    x = clip_scale(x)
    models = [read_checkpoint(p) for p in ckpts]
    ref = np.mean([reference_forward(x, a, cfg) for a, cfg in models], axis=0)
    err = float(np.abs(ref - probs[sample]).max())
    return [f"served probabilities off the reference forward by {err:.3g}"] if err > 1e-5 else []


def check_gradient(forward_batch, backward_batch, params, cfg, x_scaled, y, w,
                   seed: int) -> list[str]:
    """backward_batch against float64 central differences along one random
    direction. ``params``/``cfg`` must already be float64 without dropout."""
    names = params.trainable_names(cfg)
    rng = np.random.default_rng(seed)
    d = {n: rng.standard_normal(params.get(n).shape) for n in names}
    norm = np.sqrt(sum(float((v * v).sum()) for v in d.values()))

    def loss_at(step):
        p = params.copy()
        for n in names:
            p.get(n)[...] += step * d[n] / norm
        probs, _ = forward_batch(x_scaled, p, cfg)
        return float((w * kld_rows(y, probs)).sum())

    _, _, cache = forward_batch(x_scaled, params, cfg, want_cache=True)
    _, grads = backward_batch(y, w, params, cfg, cache)
    analytic = sum(float((grads.get(n) * d[n]).sum()) for n in names) / norm
    eps = 1e-5
    numeric = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
    rel = abs(analytic - numeric) / max(abs(numeric), 1e-12)
    if not np.isfinite(rel) or rel > 1e-5:
        return [f"directional derivative {analytic:.9g} vs central difference "
                f"{numeric:.9g} (relative error {rel:.3g})"]
    return []


def check_tsne(features: np.ndarray, coords: np.ndarray, trace: np.ndarray,
               csv_path: Path, ids: list[str]) -> list[str]:
    errors = []
    rows = csv_rows(csv_path)
    written = np.array([[float(r["x"]), float(r["y"])] for r in rows])
    if [r["id"] for r in rows] != ids or written.shape != coords.shape:
        return ["tsne.csv does not list the served segments in order"]
    if not np.isfinite(written).all():
        return ["t-SNE coordinates not finite"]
    if np.abs(written - coords).max() > 1e-8:
        errors.append("tsne.csv differs from the computed map")
    scale = float(np.abs(written).max())
    if np.abs(written.mean(axis=0)).max() > 1e-6 * scale + 1e-8:
        errors.append("t-SNE map not centred")
    if not trace[-1] < trace[0]:
        errors.append(f"t-SNE objective ends at {trace[-1]:.4f}, start {trace[0]:.4f}")
    overlap = knn_overlap(features, written, 10)
    chance = 10 / (len(ids) - 1)
    if overlap < max(0.25, 5 * chance):
        errors.append(f"10-NN overlap {overlap:.3f} barely above chance {chance:.3f}")
    return errors


def knn_overlap(a: np.ndarray, b: np.ndarray, k: int) -> float:
    """Mean share of each point's k nearest neighbours kept from a to b."""

    def knn(x):
        x = np.asarray(x, dtype=np.float64)
        sq = (x * x).sum(axis=1)
        d = sq[:, None] + sq[None, :] - 2 * x @ x.T
        np.fill_diagonal(d, np.inf)
        return np.argsort(d, axis=1, kind="stable")[:, :k]

    na, nb = knn(a), knn(b)
    return float(np.mean([len(set(na[i]) & set(nb[i])) / k for i in range(len(a))]))
