"""Evaluation: mean KLD, one-vs-rest ROC/AUROC with fold CIs, Youden-optimal
thresholds, confusion matrices against consensus, and the Wilcoxon rank-sum
test (exact enumeration for small samples, tie-corrected normal approximation
otherwise).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np
from scipy.stats import rankdata

from .data import CLASS_NAMES, N_CLASSES
from .model import kl_div_rows

PROB_CLIP = 1e-15


def mean_kld(labels: np.ndarray, preds: np.ndarray) -> float:
    """Mean over samples of KL(label || pred), preds clipped to >= 1e-15."""
    labels = np.asarray(labels, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    if labels.shape != preds.shape:
        raise ValueError(f"shape mismatch: labels {labels.shape}, preds {preds.shape}")
    return float(kl_div_rows(labels, preds, clip=PROB_CLIP).mean())


def auroc_ovr(consensus: np.ndarray, scores: np.ndarray, cls: int) -> float:
    """One-vs-rest AUROC for class cls by the rank statistic; ties count 1/2.

    consensus holds integer class ids; scores is the per-sample probability
    (or any monotone score) for cls.
    """
    consensus = np.asarray(consensus)
    scores = np.asarray(scores, dtype=np.float64)
    pos = consensus == cls
    n_pos = int(pos.sum())
    n_neg = len(consensus) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"class {CLASS_NAMES[cls]!r} is degenerate: "
            f"{n_pos} positives, {n_neg} negatives"
        )
    ranks = rankdata(scores)
    rank_sum_pos = ranks[pos].sum()
    return float((rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def roc_curve(consensus: np.ndarray, scores: np.ndarray, cls: int):
    """ROC points swept over midpoint thresholds between distinct scores.

    Returns (fpr, tpr, thresholds), each ordered from the highest threshold
    (strictest) to the lowest. The endpoints (0,0) and (1,1) are included
    with sentinel thresholds just outside the score range.
    """
    consensus = np.asarray(consensus)
    scores = np.asarray(scores, dtype=np.float64)
    pos = consensus == cls
    n_pos = int(pos.sum())
    n_neg = len(consensus) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"class {CLASS_NAMES[cls]!r} is degenerate for ROC")
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    thresholds = np.concatenate([[distinct[-1] + 1.0], mids[::-1], [distinct[0] - 1.0]])
    # the scores >= each threshold, counted in the sorted scores of each class
    tp = n_pos - np.searchsorted(np.sort(scores[pos]), thresholds)
    fp = n_neg - np.searchsorted(np.sort(scores[~pos]), thresholds)
    return fp / n_neg, tp / n_pos, thresholds


def optimal_threshold(fpr: np.ndarray, tpr: np.ndarray, thresholds: np.ndarray) -> float:
    """Threshold maximizing Youden's J = tpr - fpr; ties take the lower
    threshold."""
    j = np.asarray(tpr) - np.asarray(fpr)
    best = j.max()
    candidates = np.asarray(thresholds)[j >= best - 1e-15]
    return float(candidates.min())


def confusion_and_rates(consensus: np.ndarray, predicted: np.ndarray):
    """6x6 confusion matrix (rows = consensus, cols = predicted) plus
    per-class sensitivity and precision; 0/0 is reported as NaN."""
    consensus = np.asarray(consensus)
    predicted = np.asarray(predicted)
    if consensus.shape != predicted.shape:
        raise ValueError("consensus/predicted length mismatch")
    mat = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(mat, (consensus, predicted), 1)
    diag = np.diag(mat).astype(np.float64)
    row = mat.sum(axis=1).astype(np.float64)
    col = mat.sum(axis=0).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        sensitivity = np.where(row > 0, diag / row, np.nan)
        precision = np.where(col > 0, diag / col, np.nan)
    return mat, sensitivity, precision


def fold_ci(values: Sequence[float]) -> tuple[float, float, float]:
    """Mean with a 95% normal-theory CI across folds: mean +/- 1.96*sd/sqrt(k).

    sd is the population standard deviation of the fold values.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        raise ValueError("need at least 2 fold values for a CI")
    mean = float(v.mean())
    half = 1.96 * float(v.std(ddof=0)) / math.sqrt(v.size)
    return mean, mean - half, mean + half


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_rank_sum(a: Sequence[float], b: Sequence[float],
                      method: str = "auto") -> tuple[float, float]:
    """Two-sided rank-sum test of a vs b using midranks.

    Exact p by enumerating all rank assignments when n+m <= 16; otherwise a
    normal approximation with tie-corrected variance and continuity
    correction. method forces one path ("exact"/"approx") for cross-checks.
    Returns (rank sum of a, p).
    """
    if method not in ("auto", "exact", "approx"):
        raise ValueError(f"unknown method {method!r}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    n, m = a.size, b.size
    pooled = np.concatenate([a, b])
    ranks = rankdata(pooled)
    w = float(ranks[:n].sum())
    mu = n * (n + m + 1) / 2.0
    if np.all(pooled == pooled[0]):
        return w, 1.0

    if method == "exact" or (method == "auto" and n + m <= 16):
        dev = abs(w - mu)
        count = 0
        total = 0
        for subset in combinations(range(n + m), n):
            ws = ranks[list(subset)].sum()
            if abs(ws - mu) >= dev - 1e-12:
                count += 1
            total += 1
        return w, count / total

    # tie-corrected variance
    _, tie_counts = np.unique(pooled, return_counts=True)
    nm = n + m
    tie_term = float(((tie_counts**3 - tie_counts).sum()) / (nm * (nm - 1.0)))
    var = n * m / 12.0 * (nm + 1.0 - tie_term)
    if var <= 0:
        return w, 1.0
    z = (abs(w - mu) - 0.5) / math.sqrt(var)
    z = max(z, 0.0)
    return w, min(1.0, 2.0 * _norm_sf(z))


@dataclass
class EvalReport:
    mean_kld: float
    mean_kld_ci: tuple[float, float]
    auroc: dict[str, float]
    auroc_ci: dict[str, tuple[float, float]]
    optimal_thresholds: dict[str, float]
    confusion: np.ndarray
    sensitivity: np.ndarray
    precision: np.ndarray
    consensus_accuracy: float
    n_samples: int
    n_patients: int
    fold_kld: list[float]
    # (fpr, tpr, thresholds) of each class with both positives and negatives;
    # drawn by emit_report, not written to report.json
    roc_curves: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    ci_method: str = "fold_normal"


def evaluate(
    soft_labels: np.ndarray,
    probs: np.ndarray,
    consensus: np.ndarray,
    fold_of_sample: np.ndarray,
    patient_ids: Sequence[str],
) -> EvalReport:
    """Assemble the full report from out-of-fold predictions.

    CIs come from per-fold statistics; AUROC folds that lack a class are
    skipped for that class's CI (the pooled AUROC always uses all samples).
    """
    soft_labels = np.asarray(soft_labels, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    consensus = np.asarray(consensus)
    fold_of_sample = np.asarray(fold_of_sample)
    folds = sorted(set(fold_of_sample.tolist()))

    fold_kld = [
        mean_kld(soft_labels[fold_of_sample == f], probs[fold_of_sample == f])
        for f in folds
    ]
    overall_kld, kld_lo, kld_hi = (
        (mean_kld(soft_labels, probs), float("nan"), float("nan"))
        if len(folds) < 2
        else (mean_kld(soft_labels, probs),) + fold_ci(fold_kld)[1:]
    )

    predicted = probs.argmax(axis=1)
    confusion, sens, prec = confusion_and_rates(consensus, predicted)
    accuracy = float((predicted == consensus).mean())

    auroc, auroc_ci, thresholds, curves = {}, {}, {}, {}
    for c in range(N_CLASSES):
        name = CLASS_NAMES[c]
        try:
            auroc[name] = auroc_ovr(consensus, probs[:, c], c)
            curves[name] = roc_curve(consensus, probs[:, c], c)
            thresholds[name] = optimal_threshold(*curves[name])
        except ValueError:
            auroc[name] = float("nan")
            thresholds[name] = float("nan")
            auroc_ci[name] = (float("nan"), float("nan"))
            continue
        per_fold = []
        for f in folds:
            sel = fold_of_sample == f
            try:
                per_fold.append(auroc_ovr(consensus[sel], probs[sel, c], c))
            except ValueError:
                pass
        if len(per_fold) >= 2:
            _, lo, hi = fold_ci(per_fold)
            auroc_ci[name] = (lo, hi)
        else:
            auroc_ci[name] = (float("nan"), float("nan"))

    return EvalReport(
        mean_kld=overall_kld,
        mean_kld_ci=(kld_lo, kld_hi),
        auroc=auroc,
        auroc_ci=auroc_ci,
        optimal_thresholds=thresholds,
        confusion=confusion,
        sensitivity=sens,
        precision=prec,
        consensus_accuracy=accuracy,
        n_samples=len(soft_labels),
        n_patients=len(set(patient_ids)),
        fold_kld=fold_kld,
        roc_curves=curves,
    )


def _san(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: _san(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_san(v) for v in x]
    if isinstance(x, np.ndarray):
        return _san(x.tolist())
    if isinstance(x, (np.floating, np.integer)):
        return _san(x.item())
    return x


def report_to_json(report: EvalReport, run_info: str | None = None) -> str:
    """report.json: every field but the ROC curves, the class names and, when
    given, the run_info stamp; NaN is written as null."""
    d = {
        "mean_kld": report.mean_kld,
        "mean_kld_ci": list(report.mean_kld_ci),
        "auroc": report.auroc,
        "auroc_ci": {k: list(v) for k, v in report.auroc_ci.items()},
        "optimal_thresholds": report.optimal_thresholds,
        "confusion": report.confusion,
        "sensitivity": report.sensitivity,
        "precision": report.precision,
        "consensus_accuracy": report.consensus_accuracy,
        "n_samples": report.n_samples,
        "n_patients": report.n_patients,
        "fold_kld": report.fold_kld,
        "ci_method": report.ci_method,
        "class_names": list(CLASS_NAMES),
    }
    if run_info:
        d["run_info"] = run_info
    return json.dumps(_san(d), sort_keys=True, indent=1) + "\n"


def confusion_to_csv(confusion: np.ndarray) -> str:
    lines = ["consensus\\predicted," + ",".join(CLASS_NAMES)]
    for i, name in enumerate(CLASS_NAMES):
        lines.append(name + "," + ",".join(str(int(v)) for v in confusion[i]))
    return "\n".join(lines) + "\n"


def roc_to_csv(fpr: np.ndarray, tpr: np.ndarray, thresholds: np.ndarray) -> str:
    lines = ["fpr,tpr,threshold"]
    for f, t, th in zip(fpr, tpr, thresholds):
        lines.append(f"{f:.9f},{t:.9f},{th:.9f}")
    return "\n".join(lines) + "\n"
