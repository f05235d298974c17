"""Two-stage, k-fold training: annotator-weighted KLD first on everything,
then a uniform-weight fine-tune on the high-quality subset, with warmup+cosine
learning rate, per-epoch validation, and best-checkpoint retention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import islice
from pathlib import Path
from typing import Callable

import numpy as np

from .augment import AugmentConfig, apply_array
from .data import (
    CLASS_NAMES,
    HIGH_QUALITY_MIN_VOTES,
    DatasetManifest,
    FoldAssignment,
    read_segments,
    split_folds,
)
from .model import (
    ModelConfig,
    ModelParams,
    backward_batch,
    forward_batch,
    init_params,
    kl_div_rows,
    project_rows_simplex,
    save_checkpoint,
)
from .preprocess import (PREPROCESS_META, FilterSpec, clip_scale_array, design_bandpass,
                         filter_array)
from .util import _pin_malloc_thresholds, open_text, read_record

WEIGHT_ANNOTATORS = "annotator_count"
WEIGHT_UNIFORM = "uniform"
SCOPE_ALL = "all"
SCOPE_HIGH_QUALITY = "high_quality_only"
# segments per bandpass call in load_dataset: one call per segment pays
# scipy's per-call overhead N times, one call over all N holds sosfiltfilt's
# float64 temporaries for the whole dataset; 240 segments filter about as
# fast in blocks of 8 as of 64
FILTER_BLOCK = 8
# segments per eval forward pass of predict_batched, and per block that
# predict and tsne load
PREDICT_BATCH = 64


@dataclass(frozen=True)
class StageConfig:
    lr_base: float
    epochs: int
    sample_weighting: str
    data_scope: str
    batch_size: int = 32
    min_lr: float = 1e-6
    warmup_frac: float = 0.1

    def __post_init__(self):
        # lr_base == min_lr == 0 is the degenerate frozen stage
        if not (self.lr_base >= self.min_lr >= 0.0):
            raise ValueError("need lr_base >= min_lr >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.sample_weighting not in (WEIGHT_ANNOTATORS, WEIGHT_UNIFORM):
            raise ValueError(f"unknown sample_weighting {self.sample_weighting!r}")
        if self.data_scope not in (SCOPE_ALL, SCOPE_HIGH_QUALITY):
            raise ValueError(f"unknown data_scope {self.data_scope!r}")
        if not (0.0 <= self.warmup_frac < 1.0):
            raise ValueError("warmup_frac must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def default_stage1(**overrides) -> StageConfig:
    base = dict(
        lr_base=1e-3,
        epochs=15,
        sample_weighting=WEIGHT_ANNOTATORS,
        data_scope=SCOPE_ALL,
    )
    base.update(overrides)
    return StageConfig(**base)


def default_stage2(**overrides) -> StageConfig:
    base = dict(
        lr_base=3e-4,
        epochs=5,
        sample_weighting=WEIGHT_UNIFORM,
        data_scope=SCOPE_HIGH_QUALITY,
    )
    base.update(overrides)
    return StageConfig(**base)


@dataclass(frozen=True)
class RunRecord:
    """What a training run is, built once: its config_hash, cv_summary.json
    and every artifact stamp come from this record. augment is None when
    augmentation is off."""

    model: ModelConfig
    stage1: StageConfig
    stage2: StageConfig
    augment: AugmentConfig | None
    filter: FilterSpec
    k: int
    seed: int
    variant: str

    def __post_init__(self):
        for name in ("k", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name!r} must be an integer, got {value!r}")


def lr_at(step: int, total_steps: int, cfg: StageConfig) -> float:
    """Linear warmup to lr_base, then cosine decay landing exactly on min_lr
    at the final step."""
    if not (0 <= step < total_steps):
        raise ValueError(f"step {step} outside [0, {total_steps})")
    warmup = int(cfg.warmup_frac * total_steps)
    if step < warmup:
        return cfg.lr_base * step / warmup
    span = max(total_steps - 1 - warmup, 1)
    progress = (step - warmup) / span
    return cfg.min_lr + 0.5 * (cfg.lr_base - cfg.min_lr) * (1.0 + math.cos(math.pi * progress))


class Adam:
    """Adaptive moment estimation over named arrays of a :class:`ModelParams`
    (all of them unless names are given). Each gradient has its parameter's
    dtype, as :func:`backward_batch` returns them."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: ModelParams, names: list[str] | None = None):
        self.names = list(params.arrays) if names is None else list(names)
        self.m = {n: np.zeros_like(params.get(n)) for n in self.names}
        self.v = {n: np.zeros_like(params.get(n)) for n in self.names}
        self.t = 0

    def step(self, params: ModelParams, grads: ModelParams, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for n in self.names:
            # in place, in the operation order of
            # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
            # arr -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
            g, m, v = grads.get(n), self.m[n], self.v[n]
            t = (1.0 - self.beta1) * g
            m *= self.beta1
            m += t
            np.multiply(g, 1.0 - self.beta2, out=t)
            t *= g
            v *= self.beta2
            v += t
            np.divide(m, bc1, out=t)
            t *= lr
            den = v / bc2
            np.sqrt(den, out=den)
            den += self.eps
            t /= den
            arr = params.get(n)
            arr -= t


@dataclass
class Dataset:
    """A manifest and its filtered segments (still in microvolts), ready to
    augment and scale. Labels and ids are the manifest's, derived once."""

    manifest: DatasetManifest
    x_uv: np.ndarray  # (N, channels, T) float32, bandpassed, one row per entry
    y: np.ndarray = field(init=False)  # (N, n_classes) soft labels
    n_votes: np.ndarray = field(init=False)  # (N,) annotator counts
    patient_ids: list[str] = field(init=False)
    segment_ids: list[str] = field(init=False)

    def __post_init__(self):
        entries = self.manifest.entries
        if len(self.x_uv) != len(entries):
            raise ValueError(f"x_uv has {len(self.x_uv)} rows, the manifest lists "
                             f"{len(entries)} segments")
        self.y = self.manifest.soft_labels()
        self.n_votes = self.manifest.votes_matrix().sum(axis=1).astype(np.float64)
        self.patient_ids = [e.patient_id for e in entries]
        self.segment_ids = [e.segment_id for e in entries]

    def __len__(self) -> int:
        return self.x_uv.shape[0]


def prefiltered(manifest: DatasetManifest, spec: FilterSpec) -> bool:
    """Whether the manifest's directory holds the preprocess command's output
    filtered with spec. Its record filtered with any other spec is an error
    naming the file, the field and each attribute that differs."""
    if manifest.root is None or not (path := manifest.root / PREPROCESS_META).exists():
        return False
    done, _ = read_record(path, FilterSpec, field="filter")
    diff = [f"{f.name} {getattr(done, f.name)!r} differs from the run's "
            f"{getattr(spec, f.name)!r}"
            for f in fields(FilterSpec) if getattr(done, f.name) != getattr(spec, f.name)]
    if diff:
        raise ValueError(f"{path}: field 'filter': {'; '.join(diff)}; these segments "
                         "are already filtered")
    return True


def load_dataset(manifest: DatasetManifest, spec: FilterSpec,
                 first: tuple[Path, tuple[int, int]] | None = None) -> Dataset:
    """Read and bandpass every segment of the manifest; each must be sampled
    at spec.fs and shaped like the first, or like `first` (see
    :func:`read_segments`).

    Filters FILTER_BLOCK stacked segments per call; each row is filtered
    alone, so the result is bit-identical to one call per segment, and to
    the preprocess command's output, whose segments are stacked as read
    (see :func:`prefiltered`).
    """
    n = len(manifest.entries)
    if n == 0:
        raise ValueError("manifest lists no segments")
    sos = None if prefiltered(manifest, spec) else design_bandpass(spec)
    segs = read_segments(manifest, spec.fs, first)
    x_uv = None
    for start in range(0, n, FILTER_BLOCK):
        block = np.stack([seg.samples for seg in islice(segs, FILTER_BLOCK)])
        if sos is not None:
            block = filter_array(block, spec, sos)
        if x_uv is None:
            x_uv = np.empty((n,) + block.shape[1:], dtype=np.float32)
        x_uv[start : start + len(block)] = block
    return Dataset(manifest, x_uv)


def sample_weights(n_votes: np.ndarray, mode: str) -> np.ndarray:
    if mode == WEIGHT_ANNOTATORS:
        return n_votes.astype(np.float64)
    return np.ones_like(n_votes, dtype=np.float64)


def scope_indices(n_votes: np.ndarray, scope: str) -> np.ndarray:
    if scope == SCOPE_HIGH_QUALITY:
        return np.nonzero(n_votes >= HIGH_QUALITY_MIN_VOTES)[0]
    return np.arange(len(n_votes))


def predict_batched(x_uv: np.ndarray, param_sets: list[tuple[ModelParams, ModelConfig]]):
    """Eval-mode (probabilities, pooled features) of filtered segments in
    microvolts under each (params, cfg) of param_sets: each a list with one
    array per model, the probabilities float64 and the features in the
    model's dtype. Each batch of PREDICT_BATCH segments is clipped and
    scaled once as it enters the models."""
    n, nb = x_uv.shape[0], PREDICT_BATCH
    probs = [np.empty((n, cfg.n_classes)) for _, cfg in param_sets]
    feats = [np.empty((n, cfg.backbone_channels[-1]), cfg.np_dtype) for _, cfg in param_sets]
    for i in range(0, n, nb):
        xb = clip_scale_array(x_uv[i : i + nb])
        for (params, cfg), p, f in zip(param_sets, probs, feats):
            p[i : i + nb], f[i : i + nb] = forward_batch(xb, params, cfg)
        del xb  # else it is alive while the next batch is scaled
    return probs, feats


def validation_loss(x_uv: np.ndarray, y: np.ndarray, params: ModelParams,
                    cfg: ModelConfig) -> tuple[float, np.ndarray]:
    """(unweighted mean KLD, predicted probabilities) on filtered validation
    segments in microvolts."""
    [probs], _ = predict_batched(x_uv, [(params, cfg)])
    return float(kl_div_rows(y, probs).mean()), probs


@dataclass
class StageResult:
    params: ModelParams
    best_val_loss: float
    # the validation pass of the best epoch, None until an epoch improves on inf
    best_val_probs: np.ndarray | None = None


def train_stage(
    params: ModelParams,
    model_cfg: ModelConfig,
    stage: StageConfig,
    train_ds: Dataset,
    train_idx: np.ndarray,
    x_val_uv: np.ndarray,
    y_val: np.ndarray,
    augment_cfg: AugmentConfig | None,
    rng: np.random.Generator,
    log: Callable[[dict], None] | None = None,
) -> StageResult:
    """One stage of optimization. Mutates params in place and returns the
    best-validation snapshot (which is also copied back into params).
    x_val_uv holds the filtered validation segments in microvolts.

    Batch objective: sum_i w_i KLD_i / sum_i w_i. Embedding kernels are
    re-projected onto the simplex after every optimizer step.
    """
    idx = np.intersect1d(train_idx, scope_indices(train_ds.n_votes, stage.data_scope))
    if idx.size == 0:
        raise ValueError("stage received an empty training slice")
    _pin_malloc_thresholds()  # each step frees its cache before the next
    weights_all = sample_weights(train_ds.n_votes, stage.sample_weighting)

    n_batches = -(-idx.size // stage.batch_size)
    total_steps = stage.epochs * n_batches
    adam = Adam(params, params.trainable_names(model_cfg))
    best = StageResult(params=params.copy(), best_val_loss=float("inf"))
    step = 0
    for epoch in range(stage.epochs):
        order = rng.permutation(idx)
        epoch_losses = []
        for b in range(n_batches):
            sel = order[b * stage.batch_size : (b + 1) * stage.batch_size]
            xb = np.empty((sel.size,) + train_ds.x_uv.shape[1:], dtype=np.float32)
            for j, i in enumerate(sel):
                seg = train_ds.x_uv[i]
                if augment_cfg is not None:
                    seg = apply_array(seg, augment_cfg, rng)
                xb[j] = seg
            xb = clip_scale_array(xb)  # the microvolt batch is freed here
            yb = train_ds.y[sel]
            wb = weights_all[sel]
            _, _, cache = forward_batch(
                xb, params, model_cfg, train=True, rng=rng, want_cache=True
            )
            try:
                loss_sum, grads = backward_batch(yb, wb, params, model_cfg, cache)
            except FloatingPointError as e:
                raise FloatingPointError(f"epoch {epoch} step {step}: {e}") from e
            wsum = wb.sum()
            batch_loss = loss_sum / wsum
            for name in adam.names:
                g = grads.get(name)
                g *= 1.0 / wsum
            lr = lr_at(step, total_steps, stage)
            adam.step(params, grads, lr)
            if model_cfg.learnable_embedding:
                emb = params.embedding
                params.set("embedding", project_rows_simplex(
                    emb.reshape(-1, emb.shape[-1])).reshape(emb.shape))
            epoch_losses.append(batch_loss)
            step += 1
            # one step's cache at a time: else it lives through the next
            # step's forward and, after the last step, the validation pass
            del cache, grads
        val, val_probs = validation_loss(x_val_uv, y_val, params, model_cfg)
        record = {
            "epoch": epoch,
            "step": step,
            "lr": lr_at(step - 1, total_steps, stage),
            "train_loss": float(np.mean(epoch_losses)),
            "val_loss": val,
        }
        if log is not None:
            log(record)
        if val < best.best_val_loss:
            best.best_val_loss = val
            best.params = params.copy()
            best.best_val_probs = val_probs
    # restore the best snapshot so the caller continues from it
    params.arrays = best.params.copy().arrays
    return best


@dataclass
class FoldResult:
    fold: int
    val_indices: np.ndarray
    best_val_loss: float
    checkpoint: Path | None


@dataclass
class CvResult:
    folds: list[FoldResult]
    oof_probs: np.ndarray  # (N, n_classes), aligned with the manifest
    fold_assignment: FoldAssignment

    def fold_val_losses(self) -> list[float]:
        return [f.best_val_loss for f in self.folds]


def check_fold_stages(ds: Dataset, patient_fold: np.ndarray, k: int,
                      stage1: StageConfig, stage2: StageConfig) -> None:
    """Fail before any training when a fold holds no segments or one of its
    stages would train on none, naming the fold, the stage and its scope."""
    for f in range(k):
        if not np.any(patient_fold == f):
            raise ValueError(f"fold {f} holds no segments; reduce k or add patients")
        train_idx = np.nonzero(patient_fold != f)[0]
        for stage_name, stage in ((1, stage1), (2, stage2)):
            if np.intersect1d(train_idx, scope_indices(ds.n_votes, stage.data_scope)).size:
                continue
            why = ("it has no training segments" if train_idx.size == 0 else
                   f"none of its {train_idx.size} training segments has "
                   f">= {HIGH_QUALITY_MIN_VOTES} votes")
            raise ValueError(f"fold {f} stage {stage_name} ({stage.data_scope}): {why}")


def run_cv(
    ds: Dataset,
    model_cfg: ModelConfig,
    stage1: StageConfig,
    stage2: StageConfig,
    augment_cfg: AugmentConfig | None,
    k: int = 5,
    seed: int = 0,
    out_dir: Path | None = None,
    log: Callable[[dict], None] | None = None,
    backbone: ModelParams | None = None,
) -> CvResult:
    """Patient-grouped k-fold over ds.manifest's patients: per fold, stage 1
    on all non-fold data, stage 2 on its high-quality subset, out-of-fold
    predictions on the held-out fold.
    A pretrained model_cfg starts every fold from backbone's conv stages
    (see :func:`init_params`), so backbone is given exactly when
    model_cfg.pretrained is True.
    """
    if model_cfg.pretrained != (backbone is not None):
        raise ValueError(f"model config has pretrained={model_cfg.pretrained} but "
                         f"backbone is {'given' if backbone is not None else 'None'}")
    folds = split_folds(ds.manifest, k=k, seed=seed)
    patient_fold = np.array([folds.fold_of_patient[p] for p in ds.patient_ids])
    oof = np.full((len(ds), model_cfg.n_classes), np.nan)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    check_fold_stages(ds, patient_fold, k, stage1, stage2)
    results = []
    for f in range(k):
        train_idx = np.nonzero(patient_fold != f)[0]
        val_idx = np.nonzero(patient_fold == f)[0]
        rng = np.random.default_rng([seed, f])
        params = init_params(model_cfg, seed=seed * 1000 + f, backbone=backbone)
        x_val = ds.x_uv[val_idx]
        y_val = ds.y[val_idx]

        def plog(rec, fold=f, stage_name=None):
            if log is not None:
                log({"fold": fold, "stage": stage_name, **rec})

        for stage_name, stage in ((1, stage1), (2, stage2)):
            try:
                r = train_stage(
                    params, model_cfg, stage, ds, train_idx, x_val, y_val, augment_cfg,
                    rng, log=lambda rec, s=stage_name: plog(rec, stage_name=s),
                )
            except FloatingPointError as e:
                raise FloatingPointError(f"fold {f} stage {stage_name} {e}") from e
        # r is stage 2's result and params its best snapshot, whose validation
        # pass made r.best_val_probs; recompute only if no epoch improved (NaN losses)
        val_probs = r.best_val_probs
        if val_probs is None:
            [val_probs], _ = predict_batched(x_val, [(params, model_cfg)])
        oof[val_idx] = onto_simplex(val_probs)
        ckpt = None
        if out_dir is not None:
            ckpt = out_dir / f"fold{f}.ckpt"
            save_checkpoint(
                ckpt, params, model_cfg,
                meta={"fold": f, "seed": seed, "best_val_loss": r.best_val_loss},
            )
        results.append(FoldResult(fold=f, val_indices=val_idx,
                                  best_val_loss=r.best_val_loss, checkpoint=ckpt))
    if np.isnan(oof).any():
        raise RuntimeError("out-of-fold predictions did not cover every sample")
    return CvResult(folds=results, oof_probs=oof, fold_assignment=folds)


def ensemble_predict(probs: list[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of per-model probabilities, as predict_batched returns
    them; renormalizes only when the mean drifts off the simplex by more
    than 1e-12."""
    if not probs:
        raise ValueError("need at least one model")
    n_classes = {p.shape[1] for p in probs}
    if len(n_classes) > 1:
        raise ValueError(f"prediction shape mismatch: n_classes {sorted(n_classes)}")
    return onto_simplex(np.mean(probs, axis=0))


def onto_simplex(probs: np.ndarray) -> np.ndarray:
    """Renormalizes the rows of probs whose sum is off 1 by more than 1e-12;
    a float32 softmax is off by up to ~1e-7."""
    sums = probs.sum(axis=1, keepdims=True)
    off = np.abs(sums - 1.0) > 1e-12
    return np.where(off, probs / sums, probs) if off.any() else probs


PREDICTION_COLUMNS = ("id", *(f"{name}_vote" for name in CLASS_NAMES))


def export_predictions(path: Path, ids: list[str], probs: np.ndarray,
                       header_comment: str | None = None) -> None:
    if len(ids) != probs.shape[0]:
        raise ValueError("id/probability count mismatch")
    with open(path, "w") as f:
        if header_comment:
            f.write(f"# {header_comment}\n")
        f.write(",".join(PREDICTION_COLUMNS) + "\n")
        # 12 decimals keeps parsed row sums within ~3e-12 of 1
        for sid, row in zip(ids, probs):
            f.write(sid + "," + ",".join(f"{v:.12f}" for v in row) + "\n")


def load_predictions(path: Path) -> tuple[list[str], np.ndarray]:
    ids, rows = [], []
    with open_text(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if parts[0] == "id":
                if tuple(parts) != PREDICTION_COLUMNS:
                    raise ValueError(f"{path}: unexpected columns {parts}")
                continue
            if len(parts) != len(PREDICTION_COLUMNS):
                raise ValueError(f"{path}: line {lineno}: {len(parts)} columns, "
                                 f"expected {len(PREDICTION_COLUMNS)}")
            ids.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
            if not np.isfinite(rows[-1]).all():
                raise ValueError(f"{path}: line {lineno}: segment {parts[0]!r} has a "
                                 "non-finite probability")
    return ids, np.array(rows)
