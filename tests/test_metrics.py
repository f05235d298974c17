"""Metric implementations checked against independent brute-force oracles."""

import json
import math
from itertools import combinations

import numpy as np
import pytest

from eegimage.metrics import (
    auroc_ovr,
    confusion_and_rates,
    evaluate,
    fold_ci,
    mean_kld,
    optimal_threshold,
    report_to_json,
    roc_curve,
    wilcoxon_rank_sum,
)

# --- oracles ---


def kld_loop_oracle(labels, preds, clip=1e-15):
    """Naive per-sample, per-class summation."""
    total = 0.0
    for y, p in zip(labels, preds):
        s = 0.0
        for yi, pi in zip(y, p):
            if yi > 0:
                s += yi * math.log(yi / max(pi, clip))
        total += s
    return total / len(labels)


def auroc_pair_oracle(consensus, scores, cls):
    """O(n^2) pair counting: P(score_pos > score_neg) + P(tie)/2."""
    pos = [s for s, c in zip(scores, consensus) if c == cls]
    neg = [s for s, c in zip(scores, consensus) if c != cls]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def confusion_tally_oracle(consensus, predicted, n=6):
    mat = [[0] * n for _ in range(n)]
    for c, p in zip(consensus, predicted):
        mat[c][p] += 1
    return np.array(mat)


def wilcoxon_enumeration_oracle(a, b):
    """Brute force: every assignment of pooled midranks to sample a."""
    pooled = np.concatenate([a, b])
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(len(pooled))
    i = 0
    srt = pooled[order]
    while i < len(srt):
        j = i
        while j + 1 < len(srt) and srt[j + 1] == srt[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n = len(a)
    w_obs = ranks[:n].sum()
    mu = n * (len(pooled) + 1) / 2.0
    dev = abs(w_obs - mu)
    hits = total = 0
    for subset in combinations(range(len(pooled)), n):
        if abs(ranks[list(subset)].sum() - mu) >= dev - 1e-12:
            hits += 1
        total += 1
    return w_obs, hits / total


# --- mean KLD ---


def test_mean_kld_matches_loop_oracle():
    rng = np.random.default_rng(0)
    labels = rng.dirichlet(np.ones(6), size=50)
    preds = rng.dirichlet(np.ones(6), size=50)
    assert abs(mean_kld(labels, preds) - kld_loop_oracle(labels, preds)) < 1e-12


def test_mean_kld_anchors():
    onehot = np.zeros((1, 6))
    onehot[0, 2] = 1.0
    uniform = np.full((1, 6), 1 / 6)
    assert abs(mean_kld(onehot, uniform) - math.log(6)) < 1e-12
    assert mean_kld(uniform, uniform) == 0.0


def test_mean_kld_zero_label_terms_drop_out():
    y = np.array([[0.5, 0.5, 0, 0, 0, 0]])
    p = np.array([[0.25, 0.25, 0.125, 0.125, 0.125, 0.125]])
    assert abs(mean_kld(y, p) - math.log(2)) < 1e-12


def test_mean_kld_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        y = rng.dirichlet(np.ones(6), size=10)
        p = rng.dirichlet(np.ones(6), size=10)
        assert mean_kld(y, p) >= 0.0


def test_mean_kld_shape_mismatch():
    with pytest.raises(ValueError):
        mean_kld(np.ones((3, 6)) / 6, np.ones((4, 6)) / 6)


# --- AUROC ---


def test_auroc_matches_pair_oracle_exactly():
    rng = np.random.default_rng(2)
    for trial in range(100):
        n = int(rng.integers(10, 201))
        consensus = rng.integers(0, 3, size=n)
        if (consensus == 0).sum() in (0, n):
            continue
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n), 2)
        assert auroc_ovr(consensus, scores, 0) == auroc_pair_oracle(consensus, scores, 0)


def test_auroc_perfect_and_tied():
    consensus = np.array([1, 1, 0, 0])
    assert auroc_ovr(consensus, np.array([0.9, 0.8, 0.1, 0.2]), 1) == 1.0
    assert auroc_ovr(consensus, np.array([0.5, 0.5, 0.5, 0.5]), 1) == 0.5


def test_auroc_monotone_transform_invariant():
    rng = np.random.default_rng(3)
    consensus = rng.integers(0, 2, size=60)
    consensus[0], consensus[1] = 0, 1
    scores = rng.random(60)
    a1 = auroc_ovr(consensus, scores, 1)
    a2 = auroc_ovr(consensus, np.exp(5 * scores), 1)
    assert a1 == a2


def test_auroc_degenerate_names_class():
    with pytest.raises(ValueError, match="seizure"):
        auroc_ovr(np.array([0, 0, 0]), np.array([0.1, 0.2, 0.3]), 0)


# --- ROC / thresholds ---


def test_optimal_threshold_matches_sweep_oracle():
    rng = np.random.default_rng(4)
    consensus = rng.integers(0, 2, size=100)
    consensus[:2] = [0, 1]
    scores = np.round(rng.random(100), 2)
    fpr, tpr, thr = roc_curve(consensus, scores, 1)
    got = optimal_threshold(fpr, tpr, thr)

    # oracle: sweep every midpoint candidate, track max J and lowest argmax
    pos = consensus == 1
    distinct = np.unique(scores)
    cands = [distinct[-1] + 1.0, distinct[0] - 1.0] + [
        (a + b) / 2 for a, b in zip(distinct[:-1], distinct[1:])
    ]
    best_j, best_t = -2.0, None
    for t in cands:
        pred = scores >= t
        j = (pred & pos).sum() / pos.sum() - (pred & ~pos).sum() / (~pos).sum()
        if j > best_j + 1e-15 or (abs(j - best_j) <= 1e-15 and t < best_t):
            best_j, best_t = j, t
    assert got == pytest.approx(best_t, abs=0)


def test_optimal_threshold_perfect_split_is_gap_midpoint():
    consensus = np.array([0, 0, 1, 1])
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    fpr, tpr, thr = roc_curve(consensus, scores, 1)
    assert optimal_threshold(fpr, tpr, thr) == 0.5


def test_optimal_threshold_single_top_positive():
    consensus = np.array([1, 0, 0, 0])
    scores = np.array([0.9, 0.5, 0.4, 0.3])
    fpr, tpr, thr = roc_curve(consensus, scores, 1)
    t = optimal_threshold(fpr, tpr, thr)
    assert 0.5 < t < 0.9  # just below the top score
    assert t == 0.7


def test_roc_endpoints():
    consensus = np.array([0, 1, 0, 1])
    scores = np.array([0.2, 0.7, 0.4, 0.9])
    fpr, tpr, _ = roc_curve(consensus, scores, 1)
    assert fpr[0] == 0 and tpr[0] == 0
    assert fpr[-1] == 1 and tpr[-1] == 1


# --- confusion ---


def test_confusion_matches_tally_oracle():
    rng = np.random.default_rng(5)
    consensus = rng.integers(0, 6, size=500)
    predicted = rng.integers(0, 6, size=500)
    mat, sens, prec = confusion_and_rates(consensus, predicted)
    oracle = confusion_tally_oracle(consensus, predicted)
    assert (mat == oracle).all()
    assert mat.sum() == 500
    assert (mat.sum(axis=1) == np.bincount(consensus, minlength=6)).all()
    assert (mat.sum(axis=0) == np.bincount(predicted, minlength=6)).all()
    for i in range(6):
        row, col = oracle[i].sum(), oracle[:, i].sum()
        if row:
            assert sens[i] == oracle[i, i] / row
        if col:
            assert prec[i] == oracle[i, i] / col


def test_confusion_perfect_prediction():
    consensus = np.array([0, 1, 2, 3, 4, 5, 0])
    mat, sens, prec = confusion_and_rates(consensus, consensus.copy())
    assert (np.diag(mat) == np.bincount(consensus, minlength=6)).all()
    assert np.nanmin(sens) == 1.0 and np.nanmin(prec) == 1.0


def test_confusion_all_other_gives_nan_precision():
    consensus = np.array([0, 1, 2, 5])
    predicted = np.array([5, 5, 5, 5])
    _, sens, prec = confusion_and_rates(consensus, predicted)
    assert np.isnan(prec[:5][np.bincount(consensus, minlength=6)[:5] > 0]).all()
    assert sens[5] == 1.0
    assert (sens[[0, 1, 2]] == 0).all()


# --- fold CI ---


def test_fold_ci_formula():
    mean, lo, hi = fold_ci([0.0, 1.0])
    assert mean == 0.5
    assert hi - mean == pytest.approx(1.96 * 0.5 / math.sqrt(2), abs=1e-12)
    assert mean - lo == pytest.approx(hi - mean, abs=1e-15)


def test_fold_ci_identical_values_zero_width():
    mean, lo, hi = fold_ci([0.3, 0.3, 0.3])
    assert mean == lo == hi == 0.3


def test_fold_ci_requires_two():
    with pytest.raises(ValueError):
        fold_ci([0.5])


# --- Wilcoxon rank-sum ---


def test_wilcoxon_exact_matches_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = np.round(rng.normal(size=8), 1)
        b = np.round(rng.normal(size=8), 1)
        w, p = wilcoxon_rank_sum(a, b)
        ow, op = wilcoxon_enumeration_oracle(a, b)
        assert w == ow
        assert p == pytest.approx(op, abs=1e-12)


def test_wilcoxon_complete_separation_5v5():
    a = [6.0, 7.0, 8.0, 9.0, 10.0]
    b = [1.0, 2.0, 3.0, 4.0, 5.0]
    _, p = wilcoxon_rank_sum(a, b)
    assert p == pytest.approx(2.0 / 252.0, abs=1e-12)


def test_wilcoxon_same_multiset_central():
    a = [1.0, 2.0, 3.0]
    _, p = wilcoxon_rank_sum(a, list(a))
    assert p > 0.9


def test_wilcoxon_identical_values_p_one():
    _, p = wilcoxon_rank_sum([2.0, 2.0], [2.0, 2.0, 2.0])
    assert p == 1.0


def test_wilcoxon_exact_vs_approx_agree():
    # The continuity-corrected normal tail's largest possible gap from the
    # exact n=m=8 null is 0.0109 (checked exhaustively over every achievable
    # rank sum), so 0.011 is the method's true worst case.
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        _, p_exact = wilcoxon_rank_sum(a, b, method="exact")
        _, p_approx = wilcoxon_rank_sum(a, b, method="approx")
        assert abs(p_exact - p_approx) <= 0.011


def test_wilcoxon_approx_path_reasonable():
    rng = np.random.default_rng(8)
    a = rng.normal(size=30)
    b = rng.normal(size=30) + 2.0
    _, p = wilcoxon_rank_sum(a, b)
    assert p < 1e-4
    _, p_null = wilcoxon_rank_sum(a, rng.normal(size=30))
    assert p_null > 0.01


def test_wilcoxon_empty_rejected():
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([], [1.0])


# --- report assembly ---


def test_evaluate_builds_full_report():
    rng = np.random.default_rng(9)
    n = 120
    consensus = rng.integers(0, 6, size=n)
    soft = np.eye(6)[consensus] * 0.8 + 0.2 / 6
    probs = rng.dirichlet(np.ones(6), size=n)
    folds = np.repeat(np.arange(4), n // 4)
    patients = [f"p{i % 10}" for i in range(n)]
    rep = evaluate(soft, probs, consensus, folds, patients)
    assert rep.n_samples == n and rep.n_patients == 10
    assert rep.confusion.sum() == n
    assert len(rep.fold_kld) == 4
    assert rep.mean_kld_ci[0] <= rep.mean_kld <= rep.mean_kld_ci[1]
    assert set(rep.auroc) == {"seizure", "lpd", "gpd", "lrda", "grda", "other"}
    text = report_to_json(rep)
    assert '"mean_kld"' in text and "NaN" not in text


def test_evaluate_keeps_the_roc_curve_of_each_non_degenerate_class():
    rng = np.random.default_rng(10)
    consensus = np.arange(40) % 3  # only seizure, lpd and gpd are ever the consensus
    probs = rng.dirichlet(np.ones(6), size=40)
    rep = evaluate(np.eye(6)[consensus], probs, consensus, np.arange(40) % 2,
                   [f"p{i % 5}" for i in range(40)])
    assert set(rep.roc_curves) == {"seizure", "lpd", "gpd"}
    for c, name in enumerate(("seizure", "lpd", "gpd")):
        want = roc_curve(consensus, probs[:, c], c)
        assert all(np.array_equal(a, b) for a, b in zip(rep.roc_curves[name], want))
        assert rep.optimal_thresholds[name] == optimal_threshold(*want)
    assert math.isnan(rep.optimal_thresholds["other"])
    plain = json.loads(report_to_json(rep))
    stamped = json.loads(report_to_json(rep, run_info="config_hash=0 seed=0"))
    assert "roc_curves" not in plain and "run_info" not in plain
    assert stamped == {**plain, "run_info": "config_hash=0 seed=0"}
