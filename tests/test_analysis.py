"""Ablation harness, grating pretext pretraining, embedding extraction, and
report emission."""

import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_manifest
from test_model import textbook_silu
from test_train import per_fold_outputs, spy_clip_scale
from eegimage.analysis import (
    AblationRow,
    PretextConfig,
    ablation_to_csv,
    emit_report,
    extract_embeddings,
    grating_dataset,
    patient_level_kld,
    pretrain_backbone,
    run_ablation,
)
from eegimage.metrics import evaluate
from eegimage.preprocess import clip_scale_array
from eegimage.model import (
    ModelConfig,
    ModelParams,
    backbone_backward,
    backbone_forward,
    forward_batch,
    init_params,
    kl_div_rows,
)
from eegimage.train import (
    SCOPE_ALL,
    SCOPE_HIGH_QUALITY,
    WEIGHT_ANNOTATORS,
    WEIGHT_UNIFORM,
    Adam,
    Dataset,
    StageConfig,
    predict_batched,
    train_stage,
)

SMALL_PRETEXT = PretextConfig(n_train=512, n_test=128, epochs=4)


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
    manifest = make_manifest(n_patients, segs, seed=seed)
    rng = np.random.default_rng(seed + 1)
    n = len(manifest.entries)
    return Dataset(manifest, rng.normal(scale=30.0, size=(n, 4, t)).astype(np.float32))


def quick_stage(scope=SCOPE_ALL, weighting=WEIGHT_ANNOTATORS, **kw):
    base = dict(
        lr_base=1e-3,
        epochs=1,
        sample_weighting=weighting,
        data_scope=scope,
        batch_size=8,
    )
    base.update(kw)
    return StageConfig(**base)


# --- grating pretext ---


def test_grating_dataset_shapes_and_range():
    x, y = grating_dataset(12, 32, 8, 3, np.random.default_rng(0))
    assert x.shape == (12, 32, 32, 3)
    assert y.shape == (12,)
    assert x.min() >= 0.0 and x.max() <= 255.0
    assert set(np.unique(y)).issubset(set(range(8)))


def test_grating_dataset_deterministic():
    a, ya = grating_dataset(8, 16, 8, 3, np.random.default_rng(5))
    b, yb = grating_dataset(8, 16, 8, 3, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ya, yb)
    c, _ = grating_dataset(8, 16, 8, 3, np.random.default_rng(6))
    assert not np.array_equal(a, c)


def test_grating_dataset_holds_one_copy_of_its_images():
    import tracemalloc

    tracemalloc.start()
    try:
        x, _ = grating_dataset(128, 32, 8, 3, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * x.nbytes


def test_float32_grating_dataset_is_the_float64_one_cast():
    a, ya = grating_dataset(24, 16, 8, 3, np.random.default_rng(4))
    b, yb = grating_dataset(24, 16, 8, 3, np.random.default_rng(4), np.float32)
    assert a.dtype == np.float64 and b.dtype == np.float32
    assert np.array_equal(b, a.astype(np.float32)) and np.array_equal(ya, yb)


def test_float32_grating_dataset_holds_no_float64_copy():
    import tracemalloc

    tracemalloc.start()
    try:
        x, _ = grating_dataset(128, 32, 8, 3, np.random.default_rng(0), np.float32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.dtype == np.float32 and peak <= 1.1 * x.nbytes


def float64_pretext_reference(cfg, seed, px):
    """The pretext loop with every array in float64 and the textbook SiLU
    derivative, whatever cfg.dtype says: the conv stack it trains."""
    rng = np.random.default_rng([seed, 9001])
    n_cls = px.n_orientations
    x, y = grating_dataset(px.n_train + px.n_test, px.image_size, n_cls, cfg.groups, rng)
    proto = init_params(cfg, seed=seed + 17)
    net = ModelParams({
        **{n: a.astype(np.float64) for n, a in proto.named_arrays() if n != "embedding"},
        "dense_w": np.zeros((cfg.backbone_channels[-1], n_cls)),
        "dense_b": np.zeros(n_cls),
    })
    adam = Adam(net)
    for _ in range(px.epochs):
        order = rng.permutation(px.n_train)
        for s in range(0, px.n_train, px.batch_size):
            sel = order[s : s + px.batch_size]
            _, _, cache = backbone_forward(x[sel], net, cfg.conv_stride, want_cache=True)
            _, grads, _ = backbone_backward(np.eye(n_cls)[y[sel]],
                                            np.full(sel.size, 1.0 / sel.size), net, cache)
            adam.step(net, grads, px.lr)
    return net.conv_layers()


def test_float64_pretraining_is_the_float64_reference_byte_for_byte(monkeypatch):
    import eegimage.model as model

    px = PretextConfig(n_train=192, n_test=64, epochs=2, min_accuracy=0.0)
    cfg = ModelConfig(dtype="float64")
    net, _ = pretrain_backbone(cfg, seed=1, pretext=px)
    with monkeypatch.context() as m:
        m.setattr(model, "silu", textbook_silu)
        want = float64_pretext_reference(cfg, 1, px)
    got = net.conv_layers()
    assert len(want) == len(got) == 4
    for a, ref in zip(sum(got, ()), sum(want, ())):
        assert a.dtype == np.float64 and a.tobytes() == ref.tobytes()


def test_float32_pretraining_feeds_the_conv_backward_no_subnormals(monkeypatch):
    import eegimage.model as model

    bwd, seen = model.conv2d_backward, []

    def spy(dout, cache, *a, **k):
        tiny = np.finfo(dout.dtype).tiny
        seen.append((dout.dtype, cache[0].dtype,
                     int(np.count_nonzero((dout != 0) & (np.abs(dout) < tiny)))))
        return bwd(dout, cache, *a, **k)

    monkeypatch.setattr(model, "conv2d_backward", spy)
    cfg = ModelConfig(backbone_channels=(6, 8))
    px = PretextConfig(n_train=256, n_test=64, epochs=2, min_accuracy=0.0)
    net, _ = pretrain_backbone(cfg, seed=0, pretext=px)
    assert seen and {(d, c) for d, c, _ in seen} == {(cfg.np_dtype, cfg.np_dtype)}
    assert sum(n for _, _, n in seen) == 0
    assert all(a.dtype == cfg.np_dtype for a in net.arrays.values())
    # the same run without the cut does make them
    seen.clear()
    monkeypatch.setattr(model, "silu", textbook_silu)
    pretrain_backbone(cfg, seed=0, pretext=px)
    assert sum(n for _, _, n in seen) > 0


def test_pretext_held_out_pass_runs_in_training_batches(monkeypatch):
    import eegimage.analysis as analysis

    px = PretextConfig(n_train=128, n_test=160, epochs=2, batch_size=64, min_accuracy=0.0)
    cfg = ModelConfig(backbone_channels=(6, 8))
    forward, held_out = analysis.backbone_forward, []

    def spy(img, net, *a, **k):
        if not k.get("want_cache"):
            held_out.append((img, net))
        return forward(img, net, *a, **k)

    monkeypatch.setattr(analysis, "backbone_forward", spy)
    _, acc = pretrain_backbone(cfg, seed=2, pretext=px)
    assert [len(img) for img, _ in held_out] == [64, 64, 32]
    # the accuracy of one forward over all held-out images
    _, y = grating_dataset(px.n_train + px.n_test, px.image_size, px.n_orientations,
                           cfg.groups, np.random.default_rng([2, 9001]))
    probs, _ = forward(np.concatenate([img for img, _ in held_out]), held_out[0][1],
                       cfg.conv_stride)
    assert acc == float((probs.argmax(axis=1) == y[px.n_train :]).mean())


def test_pretext_reaches_90_percent():
    _, acc = pretrain_backbone(ModelConfig(backbone_channels=(8, 16, 32)), seed=0)
    assert acc >= 0.90


def test_pretext_deterministic_and_transfers():
    cfg = ModelConfig(backbone_channels=(8, 16, 32))
    net1, acc1 = pretrain_backbone(cfg, seed=3, pretext=SMALL_PRETEXT)
    net2, acc2 = pretrain_backbone(cfg, seed=3, pretext=SMALL_PRETEXT)
    assert acc1 == acc2 and list(net1.arrays) == list(net2.arrays)
    for name, a in net1.named_arrays():
        np.testing.assert_array_equal(a, net2.get(name))
    # trained weights moved away from the random init they started from
    proto = init_params(cfg, seed=3 + 17)
    w1 = [w for w, _ in net1.conv_layers()]
    assert max(np.abs(a - p).max() for a, p in zip(w1, [w for w, _ in proto.conv_layers()])) > 0
    assert all(w.dtype == cfg.np_dtype for w in w1)
    # the model takes a copy of every conv array by name and keeps its own head
    model = init_params(cfg, seed=5, backbone=net1)
    for (w, b), (pw, pb) in zip(model.conv_layers(), net1.conv_layers()):
        assert np.array_equal(w, pw) and np.array_equal(b, pb)
        assert not np.shares_memory(w, pw) and not np.shares_memory(b, pb)
    assert model.get("dense_w").shape == (cfg.backbone_channels[-1], cfg.n_classes)


def test_pretext_failure_raises():
    # zero training epochs leaves the zero-init head at chance accuracy
    with pytest.raises(RuntimeError, match="accuracy"):
        pretrain_backbone(
            ModelConfig(backbone_channels=(6, 8)),
            seed=0,
            pretext=PretextConfig(n_train=64, n_test=64, epochs=0),
        )


# --- patient-level aggregation ---


def test_patient_level_kld_matches_manual_grouping():
    ds = tiny_problem(n_patients=3, segs=2)
    rng = np.random.default_rng(9)
    probs = rng.dirichlet(np.ones(6), size=ds.y.shape[0])
    vec = patient_level_kld(ds, probs)
    per_sample = kl_div_rows(ds.y, probs)
    pid = np.array(ds.patient_ids)
    expected = [per_sample[pid == p].mean() for p in sorted(set(ds.patient_ids))]
    np.testing.assert_allclose(vec, expected)
    assert vec.shape == (3,)


# --- ablation harness ---


def test_run_ablation_row_structure():
    ds = tiny_problem()
    rows = run_ablation(
        ds,
        tiny_cfg(),
        quick_stage(),
        quick_stage(scope=SCOPE_HIGH_QUALITY, weighting=WEIGHT_UNIFORM, lr_base=3e-4),
        None,
        seeds=[0, 1],
        k=2,
        variants=("full", "no_eeg2img"),
    )
    assert [r.variant for r in rows] == ["full", "no_eeg2img"]
    full, other = rows
    assert full.p_vs_full is None
    assert 0.0 < other.p_vs_full <= 1.0
    for r in rows:
        assert len(r.per_seed_kld) == 2
        assert abs(r.mean_kld - np.mean(r.per_seed_kld)) < 1e-12
        assert r.patient_kld.shape == (6 * 2,)  # patients x seeds, concatenated
        assert np.all(r.patient_kld >= 0.0)


def test_run_ablation_rejects_bad_arguments():
    ds = tiny_problem()
    with pytest.raises(ValueError):
        run_ablation(
            ds, tiny_cfg(), quick_stage(), quick_stage(), None, seeds=[]
        )
    with pytest.raises(ValueError):
        run_ablation(
            ds, tiny_cfg(), quick_stage(), quick_stage(), None,
            seeds=[0], variants=("no_eeg2img",),
        )


def test_pretrained_and_random_backbones_diverge_in_training():
    # the two inits must lead the first epoch to different validation losses;
    # which one is lower is data-dependent, so only inequality is asserted
    ds = tiny_problem()
    cfg = tiny_cfg()
    net, _ = pretrain_backbone(
        cfg, seed=0, pretext=PretextConfig(n_train=256, n_test=64, epochs=2, min_accuracy=0.0)
    )
    x_val = ds.x_uv[12:]
    y_val = ds.y[12:]
    losses = {}
    for tag, backbone in (("pretrained", net), ("random", None)):
        params = init_params(cfg, seed=5, backbone=backbone)
        history = []
        train_stage(
            params, cfg, quick_stage(), ds, np.arange(12), x_val, y_val,
            None, np.random.default_rng(7), log=history.append,
        )
        losses[tag] = history[0]["val_loss"]
    assert losses["pretrained"] != losses["random"]


def test_ablation_csv_layout(tmp_path):
    rows = [
        AblationRow("full", 0.5, [0.4, 0.6], None),
        AblationRow("no_eeg2img", 0.7, [0.6, 0.8], 0.03125),
    ]
    emit_report(tmp_path, ablation_rows=rows, comment="run xyz")
    text = (tmp_path / "ablation.csv").read_text()
    assert text == "# run xyz\n" + ablation_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "# run xyz"
    assert lines[1] == "variant,mean_kld,p_vs_full,kld_seed0,kld_seed1"
    assert lines[2].startswith("full,0.500000,,")
    assert "0.03125" in lines[3]


# --- embedding extraction ---


def test_extract_embeddings_averages_folds(monkeypatch):
    import eegimage.train as train

    cfg = tiny_cfg()
    x = np.random.default_rng(1).uniform(-1200, 1200, size=(10, 4, 100))
    sets = [(init_params(cfg, seed=s), cfg) for s in (0, 1)]
    monkeypatch.setattr(train, "PREDICT_BATCH", 4)
    out = extract_embeddings(*predict_batched(x, sets))
    singles = []
    for params, c in sets:
        _, feat = forward_batch(clip_scale_array(x), params, c)
        singles.append(feat)
    np.testing.assert_allclose(out, np.mean(singles, axis=0), atol=1e-12)
    assert out.shape == (10, cfg.backbone_channels[-1])


@pytest.mark.parametrize("use_probs", [False, True])
def test_extract_embeddings_scales_each_batch_once_for_every_fold(monkeypatch, use_probs):
    import eegimage.train as train

    cfg = tiny_cfg()
    x = np.random.default_rng(4).uniform(-1200, 1200, size=(9, 4, 100)).astype(np.float32)
    sets = [(init_params(cfg, seed=s), cfg) for s in (0, 1)]
    want = per_fold_outputs(x, sets, batch_size=4)
    rows = spy_clip_scale(monkeypatch, train)
    monkeypatch.setattr(train, "PREDICT_BATCH", 4)
    out = extract_embeddings(*predict_batched(x, sets), use_probs=use_probs)
    assert rows == [4, 4, 1]
    folds = [p.astype(f.dtype) if use_probs else f for p, f in want]
    assert out.dtype == np.float32 and np.array_equal(out, np.mean(folds, axis=0))


def test_extract_embeddings_probs_flag():
    cfg = tiny_cfg()
    x = np.random.default_rng(2).uniform(-1200, 1200, size=(6, 4, 100))
    sets = [(init_params(cfg, seed=0), cfg)]
    out = extract_embeddings(*predict_batched(x, sets), use_probs=True)
    assert out.shape == (6, cfg.n_classes)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)


# --- report emission ---


def small_report(seed=0, n=60):
    rng = np.random.default_rng(seed)
    y = rng.dirichlet(np.ones(6), size=n)
    probs = rng.dirichlet(np.ones(6), size=n)
    consensus = np.arange(n) % 6  # every class present
    folds = np.arange(n) % 2
    patients = [f"p{i % 7}" for i in range(n)]
    return evaluate(y, probs, consensus, folds, patients)


def test_emit_report_writes_all_sections(tmp_path):
    report = small_report()
    coords = np.random.default_rng(3).normal(size=(12, 2))
    rows = [
        AblationRow("full", 0.5, [0.5], None),
        AblationRow("no_central", 0.6, [0.6], 0.5),
    ]
    written = emit_report(
        tmp_path,
        report=report,
        tsne_data=(coords, np.arange(12) % 6, [f"s{i}" for i in range(12)]),
        ablation_rows=rows,
        comment="smoke",
    )
    names = {p.name for p in written}
    assert {
        "report.json", "confusion.csv", "confusion.svg",
        "roc_seizure.csv", "roc_other.csv", "roc.svg",
        "tsne.csv", "tsne.svg", "ablation.csv", "ablation.svg",
    } <= names
    for p in written:
        assert p.exists() and p.stat().st_size > 0
        if p.suffix == ".svg":
            ET.fromstring(p.read_text())  # well-formed XML


def test_emit_report_skips_empty_roc(tmp_path):
    report = small_report()
    written = emit_report(tmp_path, report=replace(report, roc_curves={}))
    names = {p.name for p in written}
    assert "report.json" in names and "confusion.csv" in names
    assert not any(n.startswith("roc") for n in names)
    assert not (tmp_path / "roc.svg").exists()


def test_emit_report_names_the_file_it_cannot_write(tmp_path):
    report = small_report()
    (tmp_path / "confusion.csv").mkdir()
    with pytest.raises(OSError, match="failed writing .*confusion.csv"):
        emit_report(tmp_path, report=report)
    assert (tmp_path / "report.json").is_file()


def test_emit_report_reruns_byte_identical(tmp_path):
    report = small_report()
    coords = np.random.default_rng(4).normal(size=(10, 2))
    kwargs = dict(
        report=report,
        tsne_data=(coords, np.arange(10) % 6, [f"s{i}" for i in range(10)]),
        ablation_rows=[AblationRow("full", 0.5, [0.5], None)],
        comment="det",
    )
    first = emit_report(tmp_path / "a", **kwargs)
    second = emit_report(tmp_path / "b", **kwargs)
    assert [p.name for p in first] == [p.name for p in second]
    for pa, pb in zip(first, second):
        assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("use_probs", [False, True])
def test_extract_embeddings_is_the_float32_fold_mean_of_the_forward_outputs(monkeypatch,
                                                                             use_probs):
    import eegimage.train as train

    cfg = tiny_cfg()
    x = np.random.default_rng(3).uniform(-1200, 1200, size=(7, 4, 100))
    sets = [(init_params(cfg, seed=s), cfg) for s in (0, 1, 2)]
    monkeypatch.setattr(train, "PREDICT_BATCH", 3)
    out = extract_embeddings(*predict_batched(x, sets), use_probs=use_probs)
    chunks = [[forward_batch(clip_scale_array(x[i : i + 3]), params, c)[int(not use_probs)]
               for i in range(0, 7, 3)] for params, c in sets]
    expected = np.mean([np.concatenate(c) for c in chunks], axis=0)
    assert out.dtype == np.float32 and np.array_equal(out, expected)
