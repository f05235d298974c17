"""Acceptance gate: one test per release criterion, each printing a visible
pass/fail line with the measured values.

Clinical-scale figures (AUROC ~0.93-0.97, leaderboard-level KLD) need the
restricted clinical dataset and a large pretrained backbone; at desk scale the
criteria below are the testable substitutes: exact oracles, analytic anchors,
property sweeps, and synthetic end-to-end learning runs with explicit bars.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import signal as sps

from conftest import make_manifest
from test_gradients import fd_gradient, make_problem, ravel
from test_metrics import (
    auroc_pair_oracle,
    confusion_tally_oracle,
    kld_loop_oracle,
    wilcoxon_enumeration_oracle,
)

from eegimage.analysis import run_ablation
from eegimage.augment import AugmentConfig, apply_array, invert, swap_lr, time_reverse
from eegimage.cli import main
from eegimage.data import split_folds
from eegimage.metrics import (
    auroc_ovr,
    confusion_and_rates,
    mean_kld,
    wilcoxon_rank_sum,
)
from eegimage.model import (
    ModelConfig,
    backward_batch,
    eeg_to_image_batch,
    forward_batch,
    init_params,
    kl_div_rows,
)
from eegimage.preprocess import FilterSpec, design_bandpass, filter_array
from eegimage.synthgen import SynthConfig, generate
from eegimage.train import (
    SCOPE_ALL,
    WEIGHT_ANNOTATORS,
    Dataset,
    StageConfig,
    default_stage1,
    default_stage2,
    load_dataset,
    lr_at,
    train_stage,
)
from eegimage.tsne import TsneConfig, tsne


def emit(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


# --- analytic KLD anchors ---


def test_criterion_kld_anchors(capsys):
    onehot = np.zeros(6)
    onehot[2] = 1.0
    uniform = np.full(6, 1.0 / 6)
    gap = abs(float(kl_div_rows(onehot[None], uniform[None])[0]) - math.log(6))
    matched = float(kl_div_rows(uniform[None], uniform[None])[0])
    ok = gap <= 1e-12 and matched == 0.0
    emit(capsys, "kld-anchors", ok,
         f"onehot-vs-uniform off ln6 by {gap:.2e}, y=p loss {matched!r}")


# --- learning-rate scheduler ---


def test_criterion_scheduler(capsys):
    worst_boundary = 0.0
    exact = True
    for lr_base, min_lr, warmup_frac, total in [
        (1e-3, 1e-6, 0.1, 21),
        (3e-4, 1e-6, 0.1, 7),
        (1e-3, 0.0, 0.25, 40),
        (5e-4, 5e-5, 0.0, 13),
    ]:
        stage = StageConfig(lr_base=lr_base, epochs=1, min_lr=min_lr,
                            warmup_frac=warmup_frac,
                            sample_weighting=WEIGHT_ANNOTATORS, data_scope=SCOPE_ALL)
        warmup = int(warmup_frac * total)
        exact &= lr_at(warmup, total, stage) == lr_base
        exact &= lr_at(total - 1, total, stage) == min_lr
        # both closed forms evaluated at the boundary step
        ramp_at_boundary = lr_base * (warmup / warmup) if warmup else lr_base
        cosine_at_boundary = min_lr + 0.5 * (lr_base - min_lr) * (1 + math.cos(0.0))
        worst_boundary = max(worst_boundary,
                             abs(ramp_at_boundary - cosine_at_boundary))
    ok = exact and worst_boundary <= 1e-12
    emit(capsys, "scheduler", ok,
         f"endpoints exact={exact}, boundary gap {worst_boundary:.2e}")


# --- image shape law ---


def test_criterion_shape_law(capsys):
    cfg = ModelConfig()  # 16 channels, K=10, L=10, stride 10
    rng = np.random.default_rng(0)
    shapes_ok = True
    for t in (2000, 4000, 10000):
        params = init_params(cfg, seed=0)
        img = eeg_to_image_batch(rng.uniform(0, 255, size=(1, 16, t)), params.embedding,
                                 cfg.row_layout, cfg.stride)[0][0]
        shapes_ok &= img.shape == (160, t // 10, 3)
    ok = bool(shapes_ok)
    emit(capsys, "shape-law", ok,
         "16x10000 -> 160x1000x3; held for T in {2000, 4000, 10000}"
         if ok else "unexpected image shape")


# --- bandpass filter anchors (fs = 200) ---


def test_criterion_filter_anchors(capsys):
    t0 = time.time()
    fs = 200.0
    spec = FilterSpec(fs=fs)
    n = int(fs * 10)
    ts = np.arange(n) / fs

    dc_out = filter_array(np.full((1, n), 100.0), spec)
    dc_peak = float(np.abs(dc_out).max())

    def steady_amp(freq):
        out = filter_array(np.sin(2 * np.pi * freq * ts)[None], spec)[0]
        core = out[int(fs) : -int(fs)]
        return (core.max() - core.min()) / 2

    _, h_10 = sps.sosfreqz(design_bandpass(spec), worN=[10.0], fs=fs)
    h2_10 = np.abs(h_10[0]) ** 2  # two passes
    db_err_10 = 20 * np.log10(steady_amp(10.0) / h2_10)
    db_80 = 20 * np.log10(steady_amp(80.0))
    elapsed = time.time() - t0
    ok = dc_peak < 1.0 and abs(db_err_10) <= 0.5 and db_80 <= -20.0 and elapsed < 5.0
    emit(capsys, "filter-anchors", ok,
         f"DC residual {dc_peak:.2e} uV, 10 Hz off |H|^2 by {db_err_10:+.3f} dB, "
         f"80 Hz at {db_80:.1f} dB, {elapsed:.2f}s")


# --- metric oracles ---


def test_criterion_metric_oracles(capsys):
    rng = np.random.default_rng(11)

    y = rng.dirichlet(np.ones(6), size=200)
    p = rng.dirichlet(np.ones(6), size=200)
    kld_gap = abs(mean_kld(y, p) - kld_loop_oracle(y, p))

    auroc_exact = 0
    for _ in range(100):
        n = int(rng.integers(20, 201))
        consensus = rng.integers(0, 6, size=n)
        cls = int(rng.integers(0, 6))
        if not ((consensus == cls).any() and (consensus != cls).any()):
            consensus[0], consensus[1] = cls, (cls + 1) % 6
        scores = np.round(rng.random(n), 2)  # coarse grid forces ties
        auroc_exact += auroc_ovr(consensus, scores, cls) == auroc_pair_oracle(
            consensus, scores, cls
        )

    consensus = rng.integers(0, 6, size=500)
    predicted = rng.integers(0, 6, size=500)
    confusion, sens, prec = confusion_and_rates(consensus, predicted)
    tally = confusion_tally_oracle(consensus, predicted)
    conf_ok = np.array_equal(confusion, tally)
    with np.errstate(invalid="ignore"):
        sens_ok = np.allclose(sens, tally.diagonal() / tally.sum(axis=1), equal_nan=True)
        prec_ok = np.allclose(prec, tally.diagonal() / tally.sum(axis=0), equal_nan=True)

    wilcoxon_worst = 0.0
    for n in range(2, 9):
        for trial in range(4):
            a = np.round(rng.normal(size=n), 1)
            b = np.round(rng.normal(size=n), 1)
            _, p_impl = wilcoxon_rank_sum(a, b, method="exact")
            _, p_enum = wilcoxon_enumeration_oracle(a, b)
            wilcoxon_worst = max(wilcoxon_worst, abs(p_impl - p_enum))

    ok = (kld_gap <= 1e-12 and auroc_exact == 100 and conf_ok and sens_ok
          and prec_ok and wilcoxon_worst <= 1e-12)
    emit(capsys, "metric-oracles", ok,
         f"mean KLD gap {kld_gap:.1e}, AUROC exact {auroc_exact}/100, "
         f"confusion/rates exact {conf_ok and sens_ok and prec_ok}, "
         f"Wilcoxon n=m<=8 worst gap {wilcoxon_worst:.1e}")


# --- augmentation algebra, 10k randomized cases ---


def test_criterion_augmentation_algebra(capsys):
    rng = np.random.default_rng(23)
    zero_cfg = AugmentConfig(p_mask=0.0, p_permute=0.0, p_invert=0.0,
                             p_time_reverse=0.0, p_swap_lr=0.0)
    cases = 10_000
    failures = 0
    for i in range(cases):
        t = int(rng.integers(20, 121))
        x = rng.normal(size=(16, t))
        good = (
            np.array_equal(invert(invert(x)), x)
            and np.array_equal(time_reverse(time_reverse(x)), x)
            and np.array_equal(swap_lr(swap_lr(x)), x)
            and np.array_equal(apply_array(x, zero_cfg, rng), x)
        )
        failures += not good
    ok = failures == 0
    emit(capsys, "augmentation-algebra", ok,
         f"{cases - failures}/{cases} cases: involutions exact, zero-prob config identity")


# --- fold hygiene, 1000 randomized manifests ---


def test_criterion_fold_hygiene(capsys):
    rng = np.random.default_rng(31)
    manifests = 1000
    clean = 0
    for i in range(manifests):
        n_patients = int(rng.integers(4, 17))
        segs = int(rng.integers(1, 5))
        manifest = make_manifest(n_patients, segs, seed=i)
        k = int(rng.integers(2, min(5, n_patients) + 1))
        fa = split_folds(manifest, k=k, seed=i)
        fold_patients = [set() for _ in range(k)]
        for e in manifest.entries:
            fold_patients[fa.fold_of_patient[e.patient_id]].add(e.patient_id)
        disjoint = all(
            not (fold_patients[a] & fold_patients[b])
            for a in range(k) for b in range(a + 1, k)
        )
        covered = set().union(*fold_patients) == {
            e.patient_id for e in manifest.entries
        }
        clean += disjoint and covered
    ok = clean == manifests
    emit(capsys, "fold-hygiene", ok,
         f"{clean}/{manifests} random manifests with zero patient overlap")


# --- gradient correctness ---


def test_criterion_gradient_correctness(capsys):
    t0 = time.time()
    cfg, params, x, y, weights = make_problem(seed=1)
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    _, grads = backward_batch(y, weights, params, cfg, cache)
    analytic = ravel(grads, cfg)
    numeric = fd_gradient(x, y, weights, params, cfg)
    elapsed = time.time() - t0

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    frac_tight = float((rel <= 1e-4).mean())
    worst = float(rel.max())
    ok = frac_tight >= 0.99 and worst <= 1e-3 and elapsed < 60.0
    emit(capsys, "gradient-correctness", ok,
         f"{100 * frac_tight:.2f}% of {rel.size} params within 1e-4, "
         f"worst {worst:.2e}, {elapsed:.1f}s")


# --- simplex invariant across a 200-step run ---


def test_criterion_simplex_invariant(capsys):
    manifest = make_manifest(6, 3, seed=0)
    rng = np.random.default_rng(1)
    n = len(manifest.entries)
    ds = Dataset(manifest, rng.normal(scale=30.0, size=(n, 4, 200)).astype(np.float32))
    cfg = ModelConfig(n_channels=4, backbone_channels=(6, 8), pretrained=False)
    assert cfg.groups * cfg.kernels_per_group == 30
    stage = StageConfig(lr_base=1e-3, epochs=200, batch_size=32,
                        sample_weighting=WEIGHT_ANNOTATORS, data_scope=SCOPE_ALL)
    params = init_params(cfg, seed=0)
    worst = {"min_w": 0.0, "sum_gap": 0.0, "steps": 0}

    def check(_record):
        emb = params.embedding
        worst["min_w"] = min(worst["min_w"], float(emb.min()))
        worst["sum_gap"] = max(worst["sum_gap"],
                               float(np.abs(emb.sum(axis=-1) - 1.0).max()))
        worst["steps"] += 1

    train_stage(params, cfg, stage, ds, np.arange(n),
                ds.x_uv[:6], ds.y[:6], None,
                np.random.default_rng(0), log=check)
    ok = (worst["steps"] == 200 and worst["min_w"] >= -1e-9
          and worst["sum_gap"] <= 1e-9)
    emit(capsys, "simplex-invariant", ok,
         f"{worst['steps']} steps checked, min weight {worst['min_w']:.1e}, "
         f"worst |sum-1| {worst['sum_gap']:.1e}")


# --- t-SNE benchmark ---


def test_criterion_tsne(capsys):
    rng = np.random.default_rng(0)
    x = np.vstack([
        rng.normal(0, 0.5, size=(50, 5)) + 5.0,
        rng.normal(0, 0.5, size=(50, 5)) - 5.0,
    ])
    labels = np.array([0] * 50 + [1] * 50)
    cfg = TsneConfig(perplexity=30.0, iterations=500, exaggeration_iters=250, seed=0)
    res = tsne(x, cfg)

    pts = res.coords
    d = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
    i, j = np.unravel_index(np.argmax(d), d.shape)
    centers = np.stack([pts[i], pts[j]])
    assign = np.zeros(len(pts), dtype=int)
    for _ in range(50):
        assign = np.argmin(((pts[:, None] - centers[None]) ** 2).sum(-1), axis=1)
        for c in range(2):
            if np.any(assign == c):
                centers[c] = pts[assign == c].mean(0)
    agreement = max((assign == labels).mean(), (assign != labels).mean())

    trace = res.objective_trace
    decreased = trace[-1] < trace[cfg.exaggeration_iters]
    ok = agreement >= 0.95 and bool(decreased)
    emit(capsys, "tsne-benchmark", ok,
         f"2-means agreement {100 * agreement:.1f}%, objective "
         f"{trace[cfg.exaggeration_iters]:.3f} -> {trace[-1]:.3f} after exaggeration")


# --- determinism: identical seeds give byte-identical artifacts ---


def _tree_bytes(root: Path):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_determinism(capsys, tmp_path):
    data = tmp_path / "data"
    rc = main(["gen", "--out-dir", str(data), "--patients", "6", "--segments", "3",
               "--fs", "100", "--duration", "5", "--seed", "0"])
    assert rc == 0
    train_flags = ["--folds", "2", "--stage1-epochs", "2", "--stage2-epochs", "1",
                   "--batch-size", "8", "--backbone", "8,16,32", "--seed", "0"]
    trees = []
    for name in ("a", "b"):
        run = tmp_path / name
        assert main(["train", "--data-dir", str(data), "--out-dir", str(run),
                     *train_flags]) == 0
        assert main(["evaluate", "--data-dir", str(data), "--run-dir", str(run),
                     "--out-dir", str(run / "eval")]) == 0
        trees.append(_tree_bytes(run))
    same_names = trees[0].keys() == trees[1].keys()
    diffs = [k for k in trees[0] if trees[0][k] != trees[1].get(k)]
    ok = same_names and not diffs
    emit(capsys, "determinism", ok,
         f"{len(trees[0])} artifacts (checkpoints, predictions, reports) "
         f"byte-identical across two runs" if ok else f"differing files: {diffs}")


# --- ablation direction on the high-noise synthetic set ---


def test_criterion_ablation_direction(capsys, tmp_path):
    synth = SynthConfig(n_patients=24, segments_per_patient=8, fs=100.0,
                        t_total_s=5.0, label_noise=0.1, seed=0, noise_rms_uv=40.0)
    manifest = generate(synth, tmp_path / "data")
    ds = load_dataset(manifest, FilterSpec(fs=synth.fs))
    rows = run_ablation(
        ds, ModelConfig(backbone_channels=(8, 16, 32)),
        default_stage1(epochs=6, batch_size=16),
        default_stage2(epochs=2, batch_size=16),
        AugmentConfig(), seeds=[0, 1, 2, 3, 4], k=3,
    )
    by_tag = {r.variant: r for r in rows}
    full = by_tag["full"]
    wins = sum(
        f < v for f, v in zip(full.per_seed_kld, by_tag["no_eeg2img"].per_seed_kld)
    )
    extra_rows_ok = all(
        tag in by_tag and by_tag[tag].p_vs_full is not None
        and 0.0 < by_tag[tag].p_vs_full <= 1.0
        for tag in ("no_central", "no_pretrain")
    )
    ok = wins >= 4 and extra_rows_ok
    emit(capsys, "ablation-direction", ok,
         f"full beats no_eeg2img in {wins}/5 seeds "
         f"(mean {full.mean_kld:.3f} vs {by_tag['no_eeg2img'].mean_kld:.3f}, "
         f"p={by_tag['no_eeg2img'].p_vs_full:.2e}); "
         f"no_central p={by_tag['no_central'].p_vs_full:.2g}, "
         f"no_pretrain p={by_tag['no_pretrain'].p_vs_full:.2g}")


# --- end-to-end learning on the 60x20 synthetic dataset ---


def test_criterion_end_to_end_learning(capsys, tmp_path):
    t0 = time.time()
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen", "--out-dir", str(data), "--seed", "0"]) == 0
    assert main(["train", "--data-dir", str(data), "--out-dir", str(run),
                 "--folds", "5", "--stage1-epochs", "6", "--stage2-epochs", "2",
                 "--seed", "0"]) == 0
    assert main(["evaluate", "--data-dir", str(data), "--run-dir", str(run),
                 "--out-dir", str(run / "eval")]) == 0
    elapsed = time.time() - t0
    report = json.loads((run / "eval" / "report.json").read_text())
    kld = report["mean_kld"]
    acc = report["consensus_accuracy"]
    ok = kld <= 0.9 and acc >= 0.70 and elapsed < 900.0
    emit(capsys, "end-to-end-learning", ok,
         f"OOF mean KLD {kld:.4f} (bar 0.9, uniform baseline ~1.79), "
         f"consensus accuracy {acc:.3f} (bar 0.70), {elapsed / 60:.1f} min")
