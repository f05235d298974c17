"""Training-loop pieces: loss anchors, scheduler endpoints, stage mechanics,
patient-grouped cross-validation, and the fold ensemble."""

import math
import os
import platform
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_manifest
from eegimage.augment import AugmentConfig
from eegimage.data import HIGH_QUALITY_MIN_VOTES
from eegimage.model import (
    ModelConfig,
    backward_batch,
    forward_batch,
    init_params,
    kl_div_rows,
    load_checkpoint,
)
from eegimage.train import (
    FILTER_BLOCK,
    SCOPE_HIGH_QUALITY,
    WEIGHT_ANNOTATORS,
    WEIGHT_UNIFORM,
    Adam,
    Dataset,
    RunRecord,
    StageConfig,
    default_stage1,
    default_stage2,
    ensemble_predict,
    lr_at,
    onto_simplex,
    predict_batched,
    run_cv,
    sample_weights,
    scope_indices,
    train_stage,
    validation_loss,
)
from eegimage.preprocess import FilterSpec, clip_scale_array
from eegimage.util import config_hash


def tiny_cfg(**kw):
    base = dict(
        n_channels=4,
        kernels_per_group=3,
        kernel_len=5,
        stride=5,
        backbone_channels=(6, 8),
        pretrained=False,
    )
    base.update(kw)
    return ModelConfig(**base)


def tiny_problem(n_patients=6, segs=3, t=100, seed=0):
    """A synthetic manifest and random samples, one row per entry (no files
    on disk)."""
    manifest = make_manifest(n_patients, segs, seed=seed)
    rng = np.random.default_rng(seed + 1)
    n = len(manifest.entries)
    return Dataset(manifest, rng.normal(scale=30.0, size=(n, 4, t)).astype(np.float32))


# --- learning-rate schedule ---


def sched(lr_base=1e-3, min_lr=1e-6, warmup_frac=0.1):
    return StageConfig(
        lr_base=lr_base,
        epochs=1,
        sample_weighting=WEIGHT_UNIFORM,
        data_scope="all",
        min_lr=min_lr,
        warmup_frac=warmup_frac,
    )


def test_lr_warmup_end_is_lr_base():
    cfg = sched()
    total = 100
    warmup = int(0.1 * total)
    assert lr_at(warmup, total, cfg) == cfg.lr_base


def test_lr_final_step_is_min_lr():
    cfg = sched()
    assert lr_at(99, 100, cfg) == cfg.min_lr


def test_lr_midpoint_anchor():
    # warmup 2 of 21 steps, midpoint of the cosine span
    cfg = sched()
    total, warmup = 21, 2
    midpoint = warmup + (total - 1 - warmup) // 2
    assert abs(lr_at(midpoint, total, cfg) - 5.005e-4) < 1e-12


def test_lr_warmup_is_linear_from_zero():
    cfg = sched()
    total = 100
    assert lr_at(0, total, cfg) == 0.0
    assert abs(lr_at(5, total, cfg) - cfg.lr_base * 0.5) < 1e-15


def test_lr_continuous_at_warmup_boundary():
    cfg = sched()
    total = 40
    warmup = int(0.1 * total)
    ramp_limit = cfg.lr_base * warmup / warmup
    assert abs(lr_at(warmup, total, cfg) - ramp_limit) <= 1e-12


def test_lr_non_increasing_after_warmup():
    cfg = sched()
    total = 200
    warmup = int(0.1 * total)
    vals = [lr_at(s, total, cfg) for s in range(warmup, total)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_lr_rejects_out_of_range_step():
    cfg = sched()
    with pytest.raises(ValueError):
        lr_at(100, 100, cfg)
    with pytest.raises(ValueError):
        lr_at(-1, 100, cfg)


def test_lr_frozen_stage_is_all_zero():
    cfg = sched(lr_base=0.0, min_lr=0.0, warmup_frac=0.0)
    assert all(lr_at(s, 10, cfg) == 0.0 for s in range(10))


@given(st.integers(2, 500), st.integers(0, 499))
@settings(max_examples=200, deadline=None)
def test_lr_bounded_by_base(total, step):
    if step >= total:
        step = step % total
    cfg = sched()
    lr = lr_at(step, total, cfg)
    assert 0.0 <= lr <= cfg.lr_base + 1e-18


# --- stage configs ---


def test_default_stage_fields():
    s1 = default_stage1()
    assert s1.lr_base == 1e-3 and s1.epochs == 15
    assert s1.sample_weighting == WEIGHT_ANNOTATORS and s1.data_scope == "all"
    s2 = default_stage2()
    assert s2.lr_base == 3e-4 and s2.epochs == 5
    assert s2.sample_weighting == WEIGHT_UNIFORM and s2.data_scope == SCOPE_HIGH_QUALITY


@pytest.mark.parametrize(
    "kw",
    [
        dict(lr_base=1e-6, min_lr=1e-3),
        dict(epochs=0),
        dict(sample_weighting="votes"),
        dict(data_scope="everything"),
        dict(warmup_frac=1.0),
        dict(batch_size=0),
    ],
)
def test_stage_config_validation(kw):
    base = dict(
        lr_base=1e-3,
        epochs=1,
        sample_weighting=WEIGHT_UNIFORM,
        data_scope="all",
    )
    base.update(kw)
    with pytest.raises(ValueError):
        StageConfig(**base)


# --- run record ---


def base_record(**kw):
    return RunRecord(**{**dict(model=ModelConfig(), stage1=default_stage1(),
                               stage2=default_stage2(), augment=AugmentConfig(),
                               filter=FilterSpec(fs=100.0), k=5, seed=0, variant="full"),
                        **kw})


def test_flipping_any_one_run_record_field_changes_its_hash():
    base = base_record()
    flips = {"model": replace(base.model, dropout_rate=0.3),
             "stage1": default_stage1(epochs=14), "stage2": default_stage2(epochs=4),
             "augment": None, "filter": FilterSpec(fs=100.0, mode="causal"),
             "k": 4, "seed": 1, "variant": "no_central"}
    assert set(flips) == {f.name for f in fields(RunRecord)}
    hashes = {name: config_hash(replace(base, **{name: v})) for name, v in flips.items()}
    assert len(set(hashes.values())) == len(flips)
    assert config_hash(base) not in hashes.values()


def test_a_float_field_holding_an_int_hashes_and_reads_back_as_its_float():
    import json

    from eegimage.util import from_jsonable, to_jsonable

    ints = base_record(model=replace(ModelConfig(), dropout_rate=0),
                       stage1=default_stage1(lr_base=1))
    floats = base_record(model=replace(ModelConfig(), dropout_rate=0.0),
                         stage1=default_stage1(lr_base=1.0))
    assert config_hash(ints) == config_hash(floats)
    back = from_jsonable(RunRecord, json.loads(json.dumps(to_jsonable(ints))))
    assert back == floats and type(back.model.dropout_rate) is float
    assert config_hash(back) == config_hash(ints)


@pytest.mark.parametrize("kw", [dict(k=True), dict(k=2.0), dict(seed="0"), dict(seed=None)])
def test_a_run_record_rejects_a_k_or_seed_that_is_not_an_int(kw):
    with pytest.raises(ValueError, match=f"'{next(iter(kw))}' must be an integer"):
        base_record(**kw)


# --- weighting and scope ---


def test_sample_weights_modes():
    votes = np.array([3.0, 10.0, 15.0])
    assert np.array_equal(sample_weights(votes, WEIGHT_ANNOTATORS), votes)
    assert np.array_equal(sample_weights(votes, WEIGHT_UNIFORM), np.ones(3))


def test_scope_boundary_at_ten_votes():
    votes = np.array([9.0, 10.0, 11.0])
    assert list(scope_indices(votes, SCOPE_HIGH_QUALITY)) == [1, 2]
    assert list(scope_indices(votes, "all")) == [0, 1, 2]


def test_high_quality_scope_scan_oracle():
    ds = tiny_problem(n_patients=8, segs=4, seed=3)
    idx = scope_indices(ds.n_votes, SCOPE_HIGH_QUALITY)
    want = [i for i, e in enumerate(ds.manifest.entries) if sum(e.votes) >= 10]
    assert list(idx) == want
    assert all(ds.n_votes[i] >= HIGH_QUALITY_MIN_VOTES for i in idx)


def test_equal_weights_make_stage_losses_coincide():
    # power-of-two weights commute with float rounding, so the weighted
    # batch loss sum/sum(w) must equal the plain mean bit for bit
    rng = np.random.default_rng(5)
    cfg = tiny_cfg(dtype="float64", input_mean=0.0, dropout_rate=0.0)
    params = init_params(cfg, seed=5)
    params.set("dense_w", rng.normal(size=params.get("dense_w").shape) * 0.1)
    x = rng.standard_normal((8, 4, 100))
    y = rng.random((8, 6))
    y /= y.sum(axis=1, keepdims=True)
    _, _, cache = forward_batch(x, params, cfg, want_cache=True)
    w = np.full(8, 2.0)
    loss_sum, _ = backward_batch(y, w, params, cfg, cache)
    assert loss_sum / w.sum() == kl_div_rows(y, cache.probs).mean()


def test_scaling_the_weights_scales_the_loss_and_its_gradients():
    # a power-of-two factor commutes with float rounding, so the scaled loss
    # and every gradient must be exactly four times the unscaled ones
    rng = np.random.default_rng(6)
    cfg = tiny_cfg(dtype="float64", input_mean=0.0, dropout_rate=0.0)
    params = init_params(cfg, seed=6)
    x = rng.standard_normal((8, 4, 100))
    y = rng.random((8, 6))
    y /= y.sum(axis=1, keepdims=True)
    w = rng.random(8) + 0.5
    runs = []
    for scale in (1.0, 4.0):
        _, _, cache = forward_batch(x, params, cfg, want_cache=True)
        runs.append(backward_batch(y, scale * w, params, cfg, cache))
    (loss, grads), (loss4, grads4) = runs
    assert loss > 0.0 and loss4 == 4.0 * loss
    for (name, g), (_, g4) in zip(grads.named_arrays(), grads4.named_arrays()):
        np.testing.assert_array_equal(g4, 4.0 * g, err_msg=name)


# --- Adam ---


def test_adam_first_step_size_is_lr():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    before = params.get("dense_b").copy()
    grads = params.zeros_like()
    grads.get("dense_b")[...] = 5.0
    Adam(params, params.trainable_names(cfg)).step(params, grads, lr=1e-2)
    moved = before - params.get("dense_b")
    # bias-corrected first step is lr * g / (|g| + eps) = ~lr
    assert np.allclose(moved, 1e-2, rtol=1e-6)


def reference_adam_step(opt, params, grads, lr):
    """The textbook update, written with a fresh array at every operation."""
    opt.t += 1
    bc1 = 1.0 - opt.beta1**opt.t
    bc2 = 1.0 - opt.beta2**opt.t
    for n in opt.names:
        g = grads.get(n)
        opt.m[n] = opt.beta1 * opt.m[n] + (1.0 - opt.beta1) * g
        opt.v[n] = opt.beta2 * opt.v[n] + (1.0 - opt.beta2) * g * g
        mhat = opt.m[n] / bc1
        vhat = opt.v[n] / bc2
        arr = params.get(n)
        arr -= (lr * mhat / (np.sqrt(vhat) + opt.eps)).astype(arr.dtype)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adam_step_is_bit_equal_to_the_textbook_update(dtype):
    cfg = tiny_cfg(dtype=dtype)
    params = init_params(cfg, seed=0)
    ref_params = params.copy()
    names = params.trainable_names(cfg)
    opt, ref = Adam(params, names), Adam(ref_params, names)
    rng = np.random.default_rng(1)
    for step in range(200):
        grads = params.zeros_like()
        for n in names:
            g = grads.get(n)
            g[...] = rng.normal(size=g.shape) * 10.0 ** rng.uniform(-8, 1)
        lr = 1e-3 * (1 + step % 7)
        opt.step(params, grads, lr)
        reference_adam_step(ref, ref_params, grads, lr)
    for n in names:
        assert params.get(n).dtype == ref_params.get(n).dtype
        assert np.array_equal(params.get(n), ref_params.get(n)), n
        assert np.array_equal(opt.m[n], ref.m[n]) and np.array_equal(opt.v[n], ref.v[n]), n


def test_adam_skips_frozen_embedding():
    cfg = tiny_cfg(learnable_embedding=False)
    params = init_params(cfg, seed=0)
    opt = Adam(params, params.trainable_names(cfg))
    assert "embedding" not in opt.names


# --- train_stage ---


def stage_inputs(seed=0, dropout=0.0):
    ds = tiny_problem(n_patients=6, segs=3, seed=seed)
    cfg = tiny_cfg(dropout_rate=dropout)
    params = init_params(cfg, seed=seed)
    n = len(ds)
    train_idx = np.arange(n - 4)
    x_val = ds.x_uv[n - 4 :]
    y_val = ds.y[n - 4 :]
    return cfg, params, ds, train_idx, x_val, y_val


def test_frozen_stage_leaves_params_unchanged():
    cfg, params, ds, train_idx, x_val, y_val = stage_inputs()
    before = {n: a.copy() for n, a in params.named_arrays()}
    stage = StageConfig(
        lr_base=0.0,
        epochs=2,
        sample_weighting=WEIGHT_UNIFORM,
        data_scope="all",
        batch_size=4,
        min_lr=0.0,
        warmup_frac=0.0,
    )
    train_stage(params, cfg, stage, ds, train_idx, x_val, y_val, None,
                np.random.default_rng(0))
    for name, arr in params.named_arrays():
        if name == "embedding":
            # re-projection is idempotent only up to last-ulp rounding
            assert np.allclose(arr, before[name], atol=1e-15)
        else:
            assert np.array_equal(arr, before[name]), name


def test_stage_restores_best_snapshot():
    cfg, params, ds, train_idx, x_val, y_val = stage_inputs(seed=2, dropout=0.2)
    stage = StageConfig(
        lr_base=5e-3,
        epochs=4,
        sample_weighting=WEIGHT_ANNOTATORS,
        data_scope="all",
        batch_size=4,
    )
    history = []
    result = train_stage(params, cfg, stage, ds, train_idx, x_val, y_val, None,
                         np.random.default_rng(1), log=history.append)
    assert validation_loss(x_val, y_val, params, cfg)[0] == result.best_val_loss
    assert result.best_val_loss == min(r["val_loss"] for r in history)


def test_stage_history_records_schema():
    cfg, params, ds, train_idx, x_val, y_val = stage_inputs(seed=3)
    stage = StageConfig(
        lr_base=1e-3, epochs=2, sample_weighting=WEIGHT_UNIFORM,
        data_scope="all", batch_size=8,
    )
    history = []
    train_stage(params, cfg, stage, ds, train_idx, x_val, y_val, None,
                np.random.default_rng(2), log=history.append)
    assert len(history) == 2
    for rec in history:
        assert {"epoch", "step", "lr", "train_loss", "val_loss"} <= set(rec)


def test_stage_ends_with_embedding_on_simplex():
    # the per-step sweep lives in the acceptance suite; here we check the
    # invariant survives a whole aggressive stage
    cfg, params, ds, train_idx, x_val, y_val = stage_inputs(seed=4)
    stage = StageConfig(
        lr_base=5e-3, epochs=3, sample_weighting=WEIGHT_UNIFORM,
        data_scope="all", batch_size=2,
    )
    train_stage(params, cfg, stage, ds, train_idx, x_val, y_val, None,
                np.random.default_rng(3))
    flat = params.embedding.reshape(-1, cfg.kernel_len).astype(np.float64)
    assert flat.min() >= -1e-9
    assert np.abs(flat.sum(axis=1) - 1.0).max() <= 1e-9


def test_stage_empty_slice_errors():
    cfg, params, ds, train_idx, x_val, y_val = stage_inputs(seed=5)
    ds.n_votes[:] = 3.0  # nothing reaches the high-quality cut
    stage = StageConfig(
        lr_base=1e-3, epochs=1, sample_weighting=WEIGHT_UNIFORM,
        data_scope=SCOPE_HIGH_QUALITY, batch_size=4,
    )
    with pytest.raises(ValueError):
        train_stage(params, cfg, stage, ds, train_idx, x_val, y_val, None,
                    np.random.default_rng(4))


def test_stage_descends_on_learnable_data():
    cfg, params, ds, train_idx, x_val, y_val = stage_inputs(seed=6)
    stage = StageConfig(
        lr_base=1e-3, epochs=6, sample_weighting=WEIGHT_ANNOTATORS,
        data_scope="all", batch_size=4,
    )
    history = []
    train_stage(params, cfg, stage, ds, train_idx, x_val, y_val, None,
                np.random.default_rng(5), log=history.append)
    assert history[-1]["train_loss"] < history[0]["train_loss"]


# --- cross-validation ---


def test_run_cv_oof_covers_every_sample():
    ds = tiny_problem(n_patients=6, segs=3, seed=7)
    cv = run_cv(
        ds, tiny_cfg(),
        default_stage1(epochs=1, batch_size=8),
        default_stage2(epochs=1, batch_size=8),
        None, k=3, seed=0,
    )
    assert cv.oof_probs.shape == (len(ds), 6)
    assert np.isfinite(cv.oof_probs).all()
    assert np.allclose(cv.oof_probs.sum(axis=1), 1.0, atol=1e-9)


def test_run_cv_float32_oof_rows_lie_on_the_simplex():
    ds = tiny_problem(n_patients=6, segs=3, seed=7)
    cfg = tiny_cfg()
    assert cfg.dtype == "float32"
    cv = run_cv(
        ds, cfg,
        default_stage1(epochs=2, batch_size=8),
        default_stage2(epochs=1, batch_size=8),
        None, k=3, seed=0,
    )
    assert np.abs(cv.oof_probs.sum(axis=1) - 1.0).max() <= 1e-12
    # the folds' held-out rows are every row, once
    held_out = np.concatenate([fr.val_indices for fr in cv.folds])
    assert np.array_equal(np.sort(held_out), np.arange(len(ds)))


def test_run_cv_no_patient_leakage():
    ds = tiny_problem(n_patients=8, segs=2, seed=8)
    cv = run_cv(
        ds, tiny_cfg(),
        default_stage1(epochs=1, batch_size=8),
        default_stage2(epochs=1, batch_size=8),
        None, k=4, seed=1,
    )
    fold_of = cv.fold_assignment.fold_of_patient
    for fr in cv.folds:
        val_patients = {ds.patient_ids[i] for i in fr.val_indices}
        assert all(fold_of[p] == fr.fold for p in val_patients)
        train_patients = set(ds.patient_ids) - val_patients
        assert not (val_patients & train_patients)


def test_run_cv_is_deterministic():
    ds = tiny_problem(n_patients=5, segs=2, seed=9)
    args = (
        ds, tiny_cfg(),
        default_stage1(epochs=1, batch_size=8),
        default_stage2(epochs=1, batch_size=8),
    )
    cv1 = run_cv(*args, None, k=2, seed=3)
    cv2 = run_cv(*args, None, k=2, seed=3)
    assert np.array_equal(cv1.oof_probs, cv2.oof_probs)


def test_run_cv_beats_uniform_on_easy_data(tmp_path):
    # strong class-dependent offsets make the task nearly separable
    ds = tiny_problem(n_patients=8, segs=4, seed=10)
    consensus = ds.y.argmax(axis=1)
    for i, c in enumerate(consensus):
        ds.x_uv[i] += 60.0 * (c - 2.5)
        ds.y[i] = 0.0
        ds.y[i, c] = 1.0
    cv = run_cv(
        ds, tiny_cfg(),
        default_stage1(epochs=4, batch_size=8),
        default_stage2(epochs=1, batch_size=8),
        None, k=4, seed=0, out_dir=tmp_path,
    )
    oof_kld = float(kl_div_rows(ds.y, cv.oof_probs).mean())
    assert oof_kld < math.log(6)


def test_run_cv_checkpoint_reproduces_val_loss(tmp_path):
    ds = tiny_problem(n_patients=5, segs=3, seed=11)
    cv = run_cv(
        ds, tiny_cfg(),
        default_stage1(epochs=2, batch_size=8),
        default_stage2(epochs=1, batch_size=8),
        None, k=2, seed=4, out_dir=tmp_path,
    )
    for fr in cv.folds:
        params, cfg, meta = load_checkpoint(fr.checkpoint)
        reloaded, _ = validation_loss(ds.x_uv[fr.val_indices], ds.y[fr.val_indices],
                                      params, cfg)
        assert reloaded == meta["best_val_loss"] == fr.best_val_loss


def _spy_predict_batched(monkeypatch):
    import eegimage.train as train

    calls, orig = [], train.predict_batched

    def spy(x, *a, **k):
        calls.append(len(x))
        return orig(x, *a, **k)

    monkeypatch.setattr(train, "predict_batched", spy)
    return calls


def test_run_cv_takes_the_oof_rows_from_the_best_validation_pass(tmp_path, monkeypatch):
    ds = tiny_problem(n_patients=5, segs=3, seed=11)
    calls = _spy_predict_batched(monkeypatch)
    cv = run_cv(
        ds, tiny_cfg(),
        default_stage1(epochs=3, batch_size=8),
        default_stage2(epochs=2, batch_size=8),
        None, k=2, seed=4, out_dir=tmp_path,
    )
    # one validation pass per epoch of each stage, no extra pass for the OOF rows
    assert calls == [len(f.val_indices) for f in cv.folds for _ in range(3 + 2)]
    for fr in cv.folds:
        params, cfg, _ = load_checkpoint(fr.checkpoint)
        fresh = onto_simplex(predict_batched(ds.x_uv[fr.val_indices], [(params, cfg)])[0][0])
        assert np.array_equal(cv.oof_probs[fr.val_indices], fresh)


def test_run_cv_recomputes_the_oof_rows_when_stage_2_never_improves(tmp_path, monkeypatch):
    import eegimage.train as train

    ds = tiny_problem(n_patients=5, segs=3, seed=11)
    orig = train.validation_loss

    def nan_in_stage_2(*args):
        loss, probs = orig(*args)
        nan_in_stage_2.calls += 1
        if nan_in_stage_2.calls % 3 == 0:  # the one stage-2 epoch of each fold
            loss = float("nan")
        return loss, probs

    nan_in_stage_2.calls = 0
    monkeypatch.setattr(train, "validation_loss", nan_in_stage_2)
    calls = _spy_predict_batched(monkeypatch)
    cv = run_cv(ds, tiny_cfg(), default_stage1(epochs=2, batch_size=8),
                default_stage2(epochs=1, batch_size=8), None, k=2, seed=4, out_dir=tmp_path)
    assert [f.best_val_loss for f in cv.folds] == [float("inf")] * 2
    # stage 2 restored its starting point, stage 1's best, and the OOF rows
    # are predicted again from it
    assert calls == [len(f.val_indices) for f in cv.folds for _ in range(3 + 1)]
    for fr in cv.folds:
        params, cfg, _ = load_checkpoint(fr.checkpoint)
        fresh = onto_simplex(predict_batched(ds.x_uv[fr.val_indices], [(params, cfg)])[0][0])
        assert np.array_equal(cv.oof_probs[fr.val_indices], fresh)


def test_train_stage_holds_one_step_cache_at_a_time(monkeypatch):
    import weakref

    import eegimage.train as train

    cfg, params, ds, train_idx, x_val, y_val = stage_inputs()
    caches, forward, validate = [], train.forward_batch, train.validation_loss

    def alive():
        return [ref for ref in caches if ref() is not None]

    def tracked_forward(*a, **k):
        assert not alive(), "the previous step's cache outlived its step"
        out = forward(*a, **k)
        if k.get("want_cache"):
            caches.append(weakref.ref(out[2]))
        return out

    def tracked_validation(*a, **k):
        assert not alive(), "a step's cache is alive through the validation pass"
        return validate(*a, **k)

    monkeypatch.setattr(train, "forward_batch", tracked_forward)
    monkeypatch.setattr(train, "validation_loss", tracked_validation)
    stage = StageConfig(lr_base=1e-3, epochs=2, sample_weighting=WEIGHT_UNIFORM,
                        data_scope="all", batch_size=4)
    history = []
    train_stage(params, cfg, stage, ds, train_idx, x_val, y_val, None,
                np.random.default_rng(0), log=history.append)
    assert len(history) == 2 and len(caches) == 2 * -(-train_idx.size // 4)


def test_run_cv_scales_each_fold_not_the_whole_dataset(monkeypatch):
    """run_cv hands each fold's validation rows over in microvolts; they are
    scaled a batch at a time as they enter the model, never as a fold copy."""
    import eegimage.train as train

    ds = tiny_problem(n_patients=6, segs=3, seed=7)
    rows, rescaled, scale = [], [], train.clip_scale_array

    def spy(x):
        rows.append(len(x))
        rescaled.append(bool(x.min() >= 0 and x.max() <= 255))
        return scale(x)

    monkeypatch.setattr(train, "clip_scale_array", spy)
    cv = run_cv(ds, tiny_cfg(), default_stage1(epochs=1, batch_size=8),
                default_stage2(epochs=1, batch_size=8), None, k=3, seed=0)
    assert rows and max(rows) <= 8 < len(ds)
    assert not any(rescaled), "a batch was scaled twice"
    # each fold's validation rows fit one eval batch: one call per pass
    for fr in cv.folds:
        assert len(fr.val_indices) in rows


# Run in a fresh interpreter: calls one training entry point directly, as a
# program using the package's API would, then frees three 24 MiB arrays twice
# and prints how much of glibc's brk heap is kept for reuse.
HEAP_AFTER = """
import ctypes, sys
import numpy as np
sys.path.insert(0, sys.argv[2])
from test_train import StageConfig, WEIGHT_UNIFORM, stage_inputs, train_stage
from eegimage.analysis import PretextConfig, pretrain_backbone
from eegimage.model import ModelConfig

if sys.argv[1] == "train_stage":
    cfg, params, ds, train_idx, x_val, y_val = stage_inputs()
    stage = StageConfig(lr_base=1e-3, epochs=1, sample_weighting=WEIGHT_UNIFORM,
                        data_scope="all", batch_size=4)
    train_stage(params, cfg, stage, ds, train_idx, x_val, y_val, None,
                np.random.default_rng(0))
elif sys.argv[1] == "pretrain_backbone":
    pretrain_backbone(ModelConfig(backbone_channels=(6, 8)), seed=0, pretext=PretextConfig(
        n_train=64, n_test=64, epochs=1, batch_size=32, min_accuracy=0.0))
for _ in range(2):
    arrays = [np.ones(3 << 20) for _ in range(3)]
    del arrays
class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

info = ctypes.CDLL(None).mallinfo2
info.restype = MallInfo2
print(info().arena)
"""


def heap_kept_after(entry):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH"))
        if p)
    res = subprocess.run(
        [sys.executable, "-c", HEAP_AFTER, entry, str(Path(__file__).parent)],
        capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    return int(res.stdout.split()[-1])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
@pytest.mark.parametrize("entry", ["train_stage", "pretrain_backbone"])
def test_training_keeps_freed_heap_for_a_direct_caller(entry):
    """Each training step frees its arrays before the next; the training
    entry points fix glibc's thresholds themselves, so freed pages stay in
    the heap for any caller, not only the CLI."""
    assert heap_kept_after("nothing") < 72 << 20  # glibc's own thresholds trim it
    assert heap_kept_after(entry) >= 72 << 20


def test_run_cv_rejects_empty_fold():
    ds = tiny_problem(n_patients=3, segs=2, seed=12)
    with pytest.raises(ValueError):
        run_cv(
            ds, tiny_cfg(),
            default_stage1(epochs=1, batch_size=8),
            default_stage2(epochs=1, batch_size=8),
            None, k=5, seed=0,
        )


def test_run_cv_checks_every_stage_before_training_any_fold(tmp_path, monkeypatch):
    import eegimage.train as train
    from eegimage.cli import main
    from eegimage.data import load_manifest
    from eegimage.preprocess import FilterSpec

    assert main(["gen", "--out-dir", str(tmp_path), "--patients", "6", "--segments", "3",
                 "--fs", "100", "--duration", "5"]) == 0
    manifest = load_manifest(tmp_path / "manifest.csv")
    ds = train.load_dataset(manifest, FilterSpec(fs=100.0))
    trained = []
    monkeypatch.setattr(train, "train_stage", lambda *a, **k: trained.append(a))
    # with seed 4, fold 1's training patients hold no high-quality segment
    with pytest.raises(ValueError) as err:
        run_cv(ds, tiny_cfg(), default_stage1(epochs=1, batch_size=8),
               default_stage2(epochs=1, batch_size=8), None, k=2, seed=4)
    assert str(err.value) == ("fold 1 stage 2 (high_quality_only): none of its 9 training "
                              f"segments has >= {HIGH_QUALITY_MIN_VOTES} votes")
    assert trained == []


@pytest.mark.parametrize("pretrained", [True, False])
def test_run_cv_refuses_a_backbone_that_disagrees_with_pretrained(tmp_path, monkeypatch,
                                                                   pretrained):
    import eegimage.train as train

    ds = tiny_problem(n_patients=4, segs=2, seed=12)
    cfg = tiny_cfg(pretrained=pretrained)
    backbone = None if pretrained else init_params(cfg, seed=0)
    trained = []
    monkeypatch.setattr(train, "train_stage", lambda *a, **k: trained.append(a))
    with pytest.raises(ValueError, match=f"pretrained={pretrained} but backbone is "
                                         f"{'None' if pretrained else 'given'}"):
        run_cv(ds, cfg, default_stage1(epochs=1, batch_size=8),
               default_stage2(epochs=1, batch_size=8), None, k=2, seed=0, out_dir=tmp_path,
               backbone=backbone)
    assert trained == [] and not list(tmp_path.iterdir())


# --- ensembling ---


def test_ensemble_identical_models_is_identity():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    x = np.random.default_rng(0).normal(scale=30, size=(3, 4, 100)).astype(np.float32)
    single = ensemble_predict(predict_batched(x, [(params, cfg)])[0])
    triple = ensemble_predict(predict_batched(x, [(params, cfg)] * 3)[0])
    assert np.allclose(single, triple, atol=1e-15)


def test_ensemble_mean_matches_oracle():
    rng = np.random.default_rng(1)
    cfg = tiny_cfg()
    sets = []
    for s in range(5):
        p = init_params(cfg, seed=s)
        p.set("dense_w", rng.normal(size=p.get("dense_w").shape) * 0.05)
        sets.append((p, cfg))
    x = rng.normal(scale=600, size=(4, 4, 100)).astype(np.float32)
    got = ensemble_predict(predict_batched(x, sets)[0])
    want = np.mean([forward_batch(clip_scale_array(x), p, c)[0] for p, c in sets], axis=0)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.allclose(got.sum(axis=1), 1.0, atol=1e-9)


def per_fold_outputs(x_uv, param_sets, batch_size=64):
    """The eval batch loop run once per fold, each batch clipped and scaled
    again for every fold: [(float64 probs, feats in the model dtype)] per
    model."""
    out = []
    for params, cfg in param_sets:
        probs, feats = zip(*(forward_batch(clip_scale_array(x_uv[i : i + batch_size]),
                                           params, cfg)
                             for i in range(0, len(x_uv), batch_size)))
        out.append((np.concatenate(probs).astype(np.float64), np.concatenate(feats)))
    return out


def spy_clip_scale(monkeypatch, module):
    rows = []
    monkeypatch.setattr(module, "clip_scale_array",
                        lambda x: rows.append(len(x)) or clip_scale_array(x))
    return rows


def test_predict_batched_scales_each_batch_once_for_every_fold(monkeypatch):
    import eegimage.train as train

    rng = np.random.default_rng(4)
    cfg = tiny_cfg()
    sets = [(init_params(cfg, seed=s), cfg) for s in range(3)]
    x = rng.uniform(-1200, 1200, size=(10, 4, 100)).astype(np.float32)
    want = per_fold_outputs(x, sets, batch_size=4)
    rows = spy_clip_scale(monkeypatch, train)
    with monkeypatch.context() as m:
        m.setattr(train, "PREDICT_BATCH", 4)
        probs, feats = predict_batched(x, sets)
    assert rows == [4, 4, 2]
    for (p, f), (wp, wf) in zip(zip(probs, feats), want):
        assert p.dtype == wp.dtype and np.array_equal(p, wp)
        assert f.dtype == wf.dtype and np.array_equal(f, wf)

    rows.clear()
    got = ensemble_predict(predict_batched(x, sets)[0])
    assert rows == [10]  # PREDICT_BATCH, 64
    want = per_fold_outputs(x, sets)
    assert np.array_equal(got, onto_simplex(np.mean([p for p, _ in want], axis=0)))

    rows.clear()
    y = np.full((10, cfg.n_classes), 1 / cfg.n_classes)
    loss, probs = validation_loss(x, y, *sets[1])
    assert rows == [10] and np.array_equal(probs, want[1][0])
    assert loss == float(kl_div_rows(y, want[1][0]).mean())


def test_ensemble_rejects_models_with_different_class_counts():
    cfg = tiny_cfg()
    other = replace(cfg, n_classes=5)
    sets = [(init_params(cfg, seed=0), cfg), (init_params(other, seed=0), other)]
    with pytest.raises(ValueError, match=r"n_classes \[5, 6\]"):
        ensemble_predict(predict_batched(np.zeros((1, 4, 100), np.float32), sets)[0])


def test_ensemble_requires_models():
    with pytest.raises(ValueError):
        ensemble_predict(predict_batched(np.zeros((1, 4, 100)), [])[0])


# --- dataset loading ---


def test_dataset_refuses_rows_that_do_not_match_its_manifest():
    manifest = make_manifest(3, 2, seed=0)
    for rows in (5, 7):
        with pytest.raises(ValueError) as err:
            Dataset(manifest, np.zeros((rows, 4, 100), np.float32))
        assert str(err.value) == f"x_uv has {rows} rows, the manifest lists 6 segments"


def test_load_dataset_labels_and_ids_are_the_manifests(tmp_path):
    import eegimage.train as train
    from eegimage.cli import main
    from eegimage.data import load_manifest
    from eegimage.preprocess import FilterSpec

    assert main(["gen", "--out-dir", str(tmp_path), "--patients", "4", "--segments", "3",
                 "--fs", "100", "--duration", "5"]) == 0
    manifest = load_manifest(tmp_path / "manifest.csv")
    ds = train.load_dataset(manifest, FilterSpec(fs=100.0))
    votes = np.array([e.votes for e in manifest.entries], dtype=np.float64)
    assert ds.manifest is manifest and len(ds) == len(manifest) == 12
    assert ds.y.dtype == ds.n_votes.dtype == np.float64
    assert np.array_equal(ds.y, votes / votes.sum(axis=1, keepdims=True))
    assert np.array_equal(ds.n_votes, votes.sum(axis=1))
    assert ds.patient_ids == [e.patient_id for e in manifest.entries]
    assert ds.segment_ids == [e.segment_id for e in manifest.entries]


@pytest.mark.parametrize("mode", ["zero_phase", "causal"])
def test_load_dataset_designs_the_bandpass_once(tmp_path, monkeypatch, mode):
    import eegimage.train as train
    from eegimage.data import read_signal
    from eegimage.preprocess import FilterSpec, filter_array
    from eegimage.synthgen import SynthConfig, generate

    manifest = generate(SynthConfig(n_patients=2, segments_per_patient=3, fs=100.0,
                                    t_total_s=5.0, seed=0), tmp_path)
    designs, design = [], train.design_bandpass

    def spy(spec):
        designs.append(spec)
        return design(spec)

    monkeypatch.setattr(train, "design_bandpass", spy)
    spec = FilterSpec(fs=100.0, mode=mode)
    ds = train.load_dataset(manifest, spec)
    assert designs == [spec]
    per_segment = [filter_array(read_signal(manifest.segment_path(e)).samples, spec)
                   for e in manifest.entries]
    assert np.array_equal(ds.x_uv, np.stack(per_segment).astype(np.float32))


# one segment, the edges of one block, and two full blocks and a tail
@pytest.mark.parametrize("n_segments", [1, FILTER_BLOCK - 1, FILTER_BLOCK, FILTER_BLOCK + 1,
                                        2 * FILTER_BLOCK + 6])
@pytest.mark.parametrize("mode", ["zero_phase", "causal"])
def test_load_dataset_filters_blocks_bit_identical_to_each_segment(tmp_path, monkeypatch,
                                                                    mode, n_segments):
    import eegimage.train as train
    from eegimage.data import read_signal
    from eegimage.preprocess import FilterSpec, filter_array
    from eegimage.synthgen import SynthConfig, generate

    manifest = generate(SynthConfig(n_patients=n_segments, segments_per_patient=1, fs=100.0,
                                    t_total_s=5.0, seed=0), tmp_path)
    blocks = []

    def spy(x, spec, sos=None):
        blocks.append(len(x))
        return filter_array(x, spec, sos)

    monkeypatch.setattr(train, "filter_array", spy)
    spec = FilterSpec(fs=100.0, mode=mode)
    ds = train.load_dataset(manifest, spec)
    full, rest = divmod(n_segments, train.FILTER_BLOCK)
    assert blocks == [train.FILTER_BLOCK] * full + ([rest] if rest else [])
    per_segment = [filter_array(read_signal(manifest.segment_path(e)).samples, spec)
                   for e in manifest.entries]
    assert ds.x_uv.dtype == np.float32
    assert np.array_equal(ds.x_uv, np.stack(per_segment).astype(np.float32))
