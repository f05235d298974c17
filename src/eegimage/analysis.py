"""Ablation harness, backbone pretraining pretext, embedding extraction for
t-SNE, and report/figure emission.

Pretraining note: full-size transfer learning needs an external image corpus,
so the backbone is pretrained here on a procedural 8-way oriented-grating
classification task instead. That preserves the mechanism being ablated
(transfer vs random init) while staying self-contained and seed-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augment import AugmentConfig
from .metrics import (EvalReport, confusion_to_csv, report_to_json, roc_to_csv,
                      wilcoxon_rank_sum)
from .model import (
    ABLATION_VARIANTS,
    ModelConfig,
    ModelParams,
    backbone_backward,
    backbone_forward,
    init_params,
    kl_div_rows,
    variant_config,
)
from .plots import ablation_svg, confusion_svg, roc_svg, tsne_svg
from .train import Adam, Dataset, StageConfig, run_cv
from .tsne import tsne_to_csv
from .util import _pin_malloc_thresholds


@dataclass(frozen=True)
class PretextConfig:
    image_size: int = 32
    n_orientations: int = 8
    n_train: int = 1024
    n_test: int = 256
    epochs: int = 6
    batch_size: int = 64
    lr: float = 1e-3
    min_accuracy: float = 0.60


def grating_dataset(n: int, size: int, n_classes: int, channels: int,
                    rng: np.random.Generator, dtype=np.float64):
    """Procedural oriented gratings in the 0-255 range, one orientation bin
    per class.

    Each image is built in float64 and stored into a dtype array, so the set
    equals the float64 one cast to dtype without a float64 copy of it.
    """
    u, v = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    x = np.empty((n, size, size, channels), dtype=dtype)
    img = np.empty((size, size, channels))
    y = rng.integers(0, n_classes, size=n)
    for i in range(n):
        theta = y[i] * np.pi / n_classes + rng.uniform(-np.pi / 36, np.pi / 36)
        freq = rng.uniform(0.08, 0.25)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(80.0, 120.0)
        wave = np.sin(2.0 * np.pi * freq * (u * np.cos(theta) + v * np.sin(theta)) + phase)
        for c in range(channels):
            scale = rng.uniform(0.8, 1.0)
            img[:, :, c] = 127.5 + amp * scale * wave
        img += rng.normal(0.0, 8.0, size=(size, size, channels))
        x[i] = np.clip(img, 0.0, 255.0, out=img)
    return x, y


def pretrain_backbone(cfg: ModelConfig, seed: int, pretext: PretextConfig | None = None):
    """Train the conv stack on the grating pretext and hand it back.

    The network is the model's own conv stack with full-width pooling, no
    dropout and an n_orientations-way head, trained in the model's dtype on
    one-hot targets weighted 1/batch with :class:`train.Adam`.

    Returns (net, held_out_accuracy): net is the trained :class:`ModelParams`,
    conv{i}_w and conv{i}_b per stage plus the grating head's dense_w and
    dense_b, to pass to :func:`init_params` as its backbone. Raises if
    accuracy lands under pretext.min_accuracy, which indicates a broken
    training loop rather than a hard task.
    """
    px = pretext or PretextConfig()
    _pin_malloc_thresholds()  # each step frees its cache before the next
    rng = np.random.default_rng([seed, 9001])
    n_cls, dt = px.n_orientations, cfg.np_dtype
    x_all, y_all = grating_dataset(
        px.n_train + px.n_test, px.image_size, n_cls, cfg.groups, rng, dt
    )
    x_tr, y_tr = x_all[: px.n_train], y_all[: px.n_train]
    x_te, y_te = x_all[px.n_train :], y_all[px.n_train :]

    proto = init_params(cfg, seed=seed + 17)
    # the backbone of a fresh model under a grating head instead of its own
    net = ModelParams({
        **{n: a for n, a in proto.named_arrays() if n != "embedding"},
        "dense_w": np.zeros((cfg.backbone_channels[-1], n_cls), dtype=dt),
        "dense_b": np.zeros(n_cls, dtype=dt),
    })
    adam = Adam(net)
    onehot = np.eye(n_cls, dtype=dt)
    for _ in range(px.epochs):
        order = rng.permutation(px.n_train)
        for s in range(0, px.n_train, px.batch_size):
            sel = order[s : s + px.batch_size]
            _, _, cache = backbone_forward(x_tr[sel], net, cfg.conv_stride, want_cache=True)
            _, grads, _ = backbone_backward(
                onehot[y_tr[sel]], np.full(sel.size, 1.0 / sel.size, dtype=dt), net, cache
            )
            adam.step(net, grads, px.lr)
            del cache, grads  # as in train.train_stage

    # one batch at a time, as trained: a forward of all n_test images holds
    # n_test / batch_size times a batch's working set
    pred_te = np.concatenate([
        backbone_forward(x_te[s : s + px.batch_size], net, cfg.conv_stride)[0].argmax(axis=1)
        for s in range(0, px.n_test, px.batch_size)])
    acc = float((pred_te == y_te).mean())
    if acc < px.min_accuracy:
        raise RuntimeError(
            f"pretext accuracy {acc:.3f} below {px.min_accuracy}; training loop broken"
        )
    return net, acc


@dataclass
class AblationRow:
    variant: str
    mean_kld: float
    per_seed_kld: list[float]
    p_vs_full: float | None
    patient_kld: np.ndarray = field(repr=False, default=None)


def patient_level_kld(ds: Dataset, oof_probs: np.ndarray) -> np.ndarray:
    """Mean KLD per patient (sorted by patient id) from out-of-fold
    predictions."""
    per_sample = kl_div_rows(ds.y, oof_probs)
    pid = np.array(ds.patient_ids)
    return np.array([per_sample[pid == p].mean() for p in ds.manifest.patients()])


def run_ablation(
    ds: Dataset,
    base_cfg: ModelConfig,
    stage1: StageConfig,
    stage2: StageConfig,
    augment_cfg: AugmentConfig | None,
    seeds: list[int],
    k: int = 5,
    pretext: PretextConfig | None = None,
    variants: tuple[str, ...] = ABLATION_VARIANTS,
    log=None,
) -> list[AblationRow]:
    """Retrain each component-removal variant with identical hyperparameters
    and compare patient-level KLD against the full model.

    log, when given, receives every epoch's record of :func:`run_cv` with
    the variant and the seed added.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    for i, tag in enumerate(variants):
        if tag not in ABLATION_VARIANTS or tag in variants[:i]:
            raise ValueError(f"{'repeated' if tag in ABLATION_VARIANTS else 'unknown'} ablation "
                             f"variant {tag!r}; the variants are {','.join(ABLATION_VARIANTS)}")
    if "full" not in variants:
        raise ValueError("ablation requires the full variant as reference")
    backbones = {}
    per_variant_seed_kld: dict[str, list[float]] = {t: [] for t in variants}
    per_variant_patient: dict[str, list[np.ndarray]] = {t: [] for t in variants}
    for seed in seeds:
        for tag in variants:
            cfg = variant_config(base_cfg, tag)
            backbone = None
            if cfg.pretrained:
                if seed not in backbones:
                    backbones[seed] = pretrain_backbone(cfg, seed, pretext)[0]
                backbone = backbones[seed]
            cell_log = None if log is None else (
                lambda rec, tag=tag, seed=seed: log({"variant": tag, "seed": seed, **rec}))
            cv = run_cv(ds, cfg, stage1, stage2, augment_cfg,
                        k=k, seed=seed, backbone=backbone, log=cell_log)
            per_sample_kld = float(kl_div_rows(ds.y, cv.oof_probs).mean())
            per_variant_seed_kld[tag].append(per_sample_kld)
            per_variant_patient[tag].append(patient_level_kld(ds, cv.oof_probs))
    rows = []
    full_vec = np.concatenate(per_variant_patient["full"])
    for tag in variants:
        vec = np.concatenate(per_variant_patient[tag])
        p = None
        if tag != "full":
            _, p = wilcoxon_rank_sum(full_vec, vec)
        rows.append(
            AblationRow(
                variant=tag,
                mean_kld=float(np.mean(per_variant_seed_kld[tag])),
                per_seed_kld=per_variant_seed_kld[tag],
                p_vs_full=p,
                patient_kld=vec,
            )
        )
    return rows


def ablation_to_csv(rows: list[AblationRow]) -> str:
    n_seeds = len(rows[0].per_seed_kld) if rows else 0
    lines = ["variant,mean_kld,p_vs_full," + ",".join(f"kld_seed{i}" for i in range(n_seeds))]
    for r in rows:
        p = "" if r.p_vs_full is None else f"{r.p_vs_full:.6g}"
        lines.append(
            f"{r.variant},{r.mean_kld:.6f},{p},"
            + ",".join(f"{v:.6f}" for v in r.per_seed_kld)
        )
    return "\n".join(lines) + "\n"


def extract_embeddings(probs: list[np.ndarray], feats: list[np.ndarray],
                       use_probs: bool = False) -> np.ndarray:
    """Fold-averaged model outputs for t-SNE from predict_batched's per-model
    probabilities and pooled features, in the model dtype: the features by
    default, the probabilities behind the flag (cast back exactly from
    float64)."""
    if use_probs:
        return np.mean([p.astype(f.dtype) for p, f in zip(probs, feats)], axis=0)
    return np.mean(feats, axis=0)


def emit_report(
    out_dir: Path,
    report: EvalReport | None = None,
    tsne_data: tuple[np.ndarray, np.ndarray, list[str]] | None = None,
    ablation_rows: list[AblationRow] | None = None,
    comment: str | None = None,
) -> list[Path]:
    """Write report.json, confusion.csv, the report's per-class ROC CSVs,
    tsne.csv, ablation.csv and matching SVGs into out_dir. Sections whose
    inputs are None are skipped, and roc.svg when the report has no ROC
    curve; everything else is still written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def put(name: str, content: str, stamp: bool = False) -> None:
        """Write out_dir/name; stamp puts the comment line above a CSV body."""
        written.append(out_dir / name)
        try:
            written[-1].write_text((f"# {comment}\n" if stamp and comment else "") + content)
        except OSError as e:
            raise OSError(f"failed writing {written[-1]}: {e}") from e

    if report is not None:
        put("report.json", report_to_json(report, run_info=comment))
        put("confusion.csv", confusion_to_csv(report.confusion), stamp=True)
        put("confusion.svg", confusion_svg(report.confusion, comment))
        curves, marks = {}, {}
        for name, (fpr, tpr, thr) in sorted(report.roc_curves.items()):
            put(f"roc_{name.lower()}.csv", roc_to_csv(fpr, tpr, thr), stamp=True)
            curves[name] = (fpr, tpr)
            sel = np.argmin(np.abs(thr - report.optimal_thresholds[name]))
            marks[name] = (float(fpr[sel]), float(tpr[sel]))
        if curves:
            put("roc.svg", roc_svg(curves, marks, report.auroc, comment))

    if tsne_data is not None:
        coords, labels, ids = tsne_data
        put("tsne.csv", tsne_to_csv(coords, labels, ids), stamp=True)
        put("tsne.svg", tsne_svg(coords, labels, comment))

    if ablation_rows is not None:
        put("ablation.csv", ablation_to_csv(ablation_rows), stamp=True)
        put("ablation.svg", ablation_svg(
            [{"variant": r.variant, "mean_kld": r.mean_kld, "p_vs_full": r.p_vs_full}
             for r in ablation_rows], comment))

    return written
