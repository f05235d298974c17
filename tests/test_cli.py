"""Command-line interface: exit codes, config precedence, artifact stamping,
and the gen/train/evaluate/predict/tsne round trip on a tiny dataset."""

import csv
import json
import re
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eegimage.cli import DATA_DIR_ENV, SERVED_FEATURES, SERVED_FEATURES_SIDECAR, main
from eegimage.data import load_manifest, read_signal, write_signal
from eegimage.model import init_params, load_checkpoint, save_checkpoint
from eegimage.preprocess import FilterSpec, filter_array
from eegimage.train import ensemble_predict, load_dataset, load_predictions, predict_batched


def run_gen(out, patients=3, segments=2, seed=0, extra=()):
    return main(
        [
            "gen", "--out-dir", str(out),
            "--patients", str(patients), "--segments", str(segments),
            "--fs", "100", "--duration", "5", "--seed", str(seed),
            *extra,
        ]
    )


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


TINY_TRAIN = ["--folds", "2", "--stage1-epochs", "1", "--stage2-epochs", "1",
              "--batch-size", "8", "--backbone", "6,8", "--no-pretrain", "--no-augment",
              "--seed", "0"]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A 2-fold training run on 18 tiny synthetic segments."""
    data = tmp_path_factory.mktemp("cli_data")
    assert run_gen(data, patients=6, segments=3) == 0
    run = tmp_path_factory.mktemp("cli_run")
    assert main(["train", "--data-dir", str(data), "--out-dir", str(run), *TINY_TRAIN]) == 0
    return data, run


# --- exit codes ---


def test_unknown_flag_exits_2(capsys):
    assert main(["gen", "--frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    assert main(["transmogrify"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for sub in ("gen", "preprocess", "train", "evaluate", "ablate", "tsne", "predict"):
        assert sub in out


def test_missing_data_exits_1(tmp_path, capsys):
    rc = main(["train", "--data-dir", str(tmp_path / "nowhere")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_preprocess_without_out_dir_exits_1(tmp_path, capsys):
    data = tmp_path / "d"
    assert run_gen(data) == 0
    rc = main(["preprocess", "--data-dir", str(data)])
    assert rc == 1
    assert "out-dir" in capsys.readouterr().err


# --- gen ---


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_gen(a, seed=7) == 0
    assert run_gen(b, seed=7) == 0
    ta, tb = tree_bytes(a), tree_bytes(b)
    assert ta.keys() == tb.keys()
    assert all(ta[k] == tb[k] for k in ta)
    c = tmp_path / "c"
    assert run_gen(c, seed=8) == 0
    assert tree_bytes(c) != ta


def test_gen_artifacts_embed_hash_and_seed(tmp_path):
    out = tmp_path / "d"
    assert run_gen(out, seed=7) == 0
    first = (out / "manifest.csv").read_text().splitlines()[0]
    assert first.startswith("#") and "config_hash=" in first and "seed=7" in first
    meta = json.loads((out / "gen_meta.json").read_text())
    assert meta["seed"] == 7 and meta["config_hash"]


def test_gen_and_preprocess_stamp_their_manifest_with_their_records_hash(tmp_path):
    data, out = tmp_path / "d", tmp_path / "filtered"
    assert run_gen(data, seed=7) == 0
    assert main(["preprocess", "--data-dir", str(data), "--out-dir", str(out),
                 "--seed", "3"]) == 0
    for d, meta, seed in ((data, "gen_meta.json", 7), (out, "preprocess_meta.json", 3)):
        record = json.loads((d / meta).read_text())
        first = (d / "manifest.csv").read_text().splitlines()[0]
        assert first == f"# config_hash={record['config_hash']} seed={seed}"
        assert record["seed"] == seed


def test_gen_env_var_default_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "envdata"))
    assert main(["gen", "--patients", "2", "--segments", "2",
                 "--fs", "100", "--duration", "5"]) == 0
    assert (tmp_path / "envdata" / "manifest.csv").exists()


# --- config precedence ---


def test_flags_beat_config_file_beat_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"patients": 4, "segments": 3}))
    out = tmp_path / "d"
    rc = main(
        [
            "gen", "--out-dir", str(out), "--config", str(cfg),
            "--patients", "2", "--fs", "100", "--duration", "5",
        ]
    )
    assert rc == 0
    manifest = load_manifest(out / "manifest.csv")
    patients = {e.patient_id for e in manifest.entries}
    assert len(patients) == 2  # flag overrode the config file
    assert len(manifest.entries) == 2 * 3  # config file overrode the default


def test_unknown_config_keys_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"patience": 99}))
    rc = main(["gen", "--out-dir", str(tmp_path / "d"), "--config", str(cfg)])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("text,want", [
    ("{", "not JSON: Expecting property"),
    ("[]", "not a JSON object, got []"),
    ("42", "not a JSON object, got 42"),
    ("null", "not a JSON object, got null"),
    ('"abc"', 'not a JSON object, got "abc"'),
])
@pytest.mark.parametrize("command", ["gen", "train"])
def test_config_file_that_is_not_json_exits_1_naming_it(tmp_path, capsys, command, text, want):
    cfg, out = tmp_path / "bad.json", tmp_path / "out"
    cfg.write_text(text)
    rc = main([command, "--data-dir", str(tmp_path / "nowhere"), "--out-dir", str(out),
               "--config", str(cfg)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: {want}")
    assert not out.exists()


# --- preprocess ---


def test_preprocess_writes_filtered_copy(tmp_path):
    data, out = tmp_path / "d", tmp_path / "filtered"
    assert run_gen(data) == 0
    assert main(["preprocess", "--data-dir", str(data), "--out-dir", str(out)]) == 0
    src = load_manifest(data / "manifest.csv")
    dst = load_manifest(out / "manifest.csv")
    assert [e.segment_id for e in src.entries] == [e.segment_id for e in dst.entries]
    for e in src.entries:
        before = read_signal(src.segment_path(e))
        after = read_signal(dst.segment_path(e))
        ids = ("segment_id", "recording_id", "patient_id", "fs")
        assert [getattr(after, k) for k in ids] == [getattr(before, k) for k in ids]
        assert after.samples.shape == before.samples.shape
        # each segment is stored as float32 of one bandpass call on it alone
        want = filter_array(before.samples, FilterSpec(fs=before.fs)).astype(np.float32)
        np.testing.assert_array_equal(after.samples, want)
        assert not np.allclose(after.samples, before.samples)  # filter did something
    meta = json.loads((out / "preprocess_meta.json").read_text())
    assert meta["filter"]["mode"] == "zero_phase"


def test_preprocess_of_a_preprocess_output_copies_it(tmp_path):
    data, once, twice = tmp_path / "d", tmp_path / "once", tmp_path / "twice"
    assert run_gen(data) == 0
    assert main(["preprocess", "--data-dir", str(data), "--out-dir", str(once)]) == 0
    assert main(["preprocess", "--data-dir", str(once), "--out-dir", str(twice)]) == 0
    # the recorded filter is not applied a second time
    signals = sorted((once / "signals").iterdir())
    assert len(signals) == 6
    for path in signals:
        assert (twice / "signals" / path.name).read_bytes() == path.read_bytes(), path.name
    assert (twice / "preprocess_meta.json").read_bytes() == \
        (once / "preprocess_meta.json").read_bytes()


def test_preprocess_of_a_preprocess_output_under_another_filter_exits_1(tmp_path, capsys):
    data, once, twice = tmp_path / "d", tmp_path / "once", tmp_path / "twice"
    assert run_gen(data) == 0
    assert main(["preprocess", "--data-dir", str(data), "--out-dir", str(once)]) == 0
    capsys.readouterr()
    rc = main(["preprocess", "--data-dir", str(once), "--out-dir", str(twice),
               "--filter-mode", "causal"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {once / 'preprocess_meta.json'}: field 'filter': "), err
    assert not twice.exists()  # nothing written


def test_training_on_a_preprocess_output_equals_training_on_its_source(tmp_path,
                                                                      monkeypatch):
    import eegimage.train as train

    data, filtered = tmp_path / "d", tmp_path / "filtered"
    assert run_gen(data, patients=6, segments=3) == 0
    assert main(["preprocess", "--data-dir", str(data), "--out-dir", str(filtered)]) == 0
    filter_calls, orig = [], train.filter_array
    monkeypatch.setattr(train, "filter_array",
                        lambda *a, **k: filter_calls.append(len(a[0])) or orig(*a, **k))
    runs, filtered_rows = {}, {}
    for name, d in (("raw", data), ("filtered", filtered)):
        runs[name] = tmp_path / f"run_{name}"
        filter_calls.clear()
        assert main(["train", "--data-dir", str(d), "--out-dir", str(runs[name]),
                     *TINY_TRAIN]) == 0
        filtered_rows[name] = sum(filter_calls)
    # the preprocess output is stacked as read, not bandpassed a second time
    assert filtered_rows == {"raw": 18, "filtered": 0}
    for artifact in ("oof_predictions.csv", "cv_summary.json", "fold0.ckpt", "fold1.ckpt"):
        assert (runs["raw"] / artifact).read_bytes() == \
            (runs["filtered"] / artifact).read_bytes(), artifact


def test_training_a_preprocess_output_under_another_filter_exits_1(tmp_path, capsys):
    data, filtered, run = tmp_path / "d", tmp_path / "filtered", tmp_path / "run"
    assert run_gen(data, patients=6, segments=3) == 0
    assert main(["preprocess", "--data-dir", str(data), "--out-dir", str(filtered)]) == 0
    capsys.readouterr()
    rc = main(["train", "--data-dir", str(filtered), "--out-dir", str(run), *TINY_TRAIN,
               "--filter-mode", "causal"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {filtered / 'preprocess_meta.json'}: field 'filter': mode 'zero_phase' "
        "differs from the run's 'causal'; these segments are already filtered\n")
    assert not run.exists()


@pytest.mark.parametrize("fault", ["fs", "shape"])
def test_preprocess_rejects_a_segment_unlike_the_first(tmp_path, capsys, fault):
    data, out = tmp_path / "d", tmp_path / "filtered"
    assert run_gen(data) == 0
    path = data / "signals" / "s000003.eeg"
    seg = read_signal(path)
    write_signal(path, replace(seg, fs=200.0) if fault == "fs"
                 else replace(seg, samples=seg.samples[:-1]))
    capsys.readouterr()
    rc = main(["preprocess", "--data-dir", str(data), "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "s000003.eeg" in err and f": {fault}:" in err
    if fault == "fs":
        assert "200.0 Hz" in err and "100.0 Hz" in err
    else:
        assert "(15, 500)" in err and "(16, 500)" in err
    assert not out.exists()  # nothing written


def _edit_manifest(data, fault):
    """Rewrite the manifest with one fault; returns the expected line and
    column of the message."""
    path = data / "manifest.csv"
    lines = path.read_text().splitlines(keepends=True)
    if fault == "no_rows":
        path.write_text("".join(lines[:2]))  # comment and header
        return None, None
    # line 4 is the second segment, s000001; column 3 is votes_seizure
    cells = lines[3].split(",")
    if fault == "zero_sum":
        cells[3:9] = ["0"] * 6
        column = "columns votes_*"
    else:
        cells[3] = {"not_a_number": "x", "negative": "-1", "fraction": "1.5"}[fault]
        column = "column votes_seizure"
    lines[3] = ",".join(cells)
    path.write_text("".join(lines))
    return 4, column


@pytest.mark.parametrize("command", ["train", "ablate", "preprocess"])
@pytest.mark.parametrize("fault", ["no_rows", "not_a_number", "negative", "fraction",
                                   "zero_sum"])
def test_a_bad_manifest_fails_before_any_work_naming_the_file(tmp_path, capsys, monkeypatch,
                                                               command, fault):
    import eegimage.cli
    import eegimage.data

    data, out = tmp_path / "d", tmp_path / "out"
    assert run_gen(data) == 0
    line, column = _edit_manifest(data, fault)
    read = []
    for module in (eegimage.cli, eegimage.data):
        monkeypatch.setattr(module, "read_signal", lambda *a, **k: read.append(a))
    capsys.readouterr()
    rc = main([command, "--data-dir", str(data), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {data / 'manifest.csv'}")
    if fault == "no_rows":
        assert "lists no segments" in err
    else:
        assert f"line {line}: segment 's000001', {column}" in err
    assert read == [] and not out.exists()


# --- train / evaluate / predict / tsne round trip ---


def test_train_outputs(trained_run):
    _, run = trained_run
    assert sorted(p.name for p in run.glob("fold*.ckpt")) == ["fold0.ckpt", "fold1.ckpt"]
    summary = json.loads((run / "cv_summary.json").read_text())
    assert summary["k"] == 2 and summary["seed"] == 0 and summary["config_hash"]
    assert len(summary["fold_val_loss"]) == 2
    header = (run / "oof_predictions.csv").read_text().splitlines()[0]
    assert header.startswith("#") and "config_hash=" in header
    assert (run / "progress.jsonl").stat().st_size > 0


def test_evaluate_report_fields(trained_run, tmp_path, capsys):
    data, run = trained_run
    out = tmp_path / "eval"
    rc = main(["evaluate", "--data-dir", str(data), "--run-dir", str(run),
               "--out-dir", str(out)])
    assert rc == 0
    assert "mean KLD" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    for key in (
        "mean_kld", "mean_kld_ci", "auroc", "auroc_ci", "optimal_thresholds",
        "confusion", "sensitivity", "precision", "consensus_accuracy",
        "n_samples", "n_patients", "fold_kld",
    ):
        assert key in report
    assert report["n_samples"] == 18 and report["n_patients"] == 6
    assert np.isfinite(report["mean_kld"])


def test_predict_csv_shape_and_normalization(trained_run, tmp_path):
    data, run = trained_run
    out_csv = tmp_path / "preds.csv"
    rc = main(["predict", "--data-dir", str(data), "--run-dir", str(run),
               "--out", str(out_csv)])
    assert rc == 0
    with open(out_csv) as f:
        rows = [r for r in csv.reader(f) if not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    assert len(header) == 7
    assert header[0] == "id" and header[1] == "seizure_vote"
    assert len(body) == 18
    manifest = load_manifest(data / "manifest.csv")
    assert [r[0] for r in body] == [e.segment_id for e in manifest.entries]
    for r in body:
        probs = np.array([float(v) for v in r[1:]])
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert np.all(probs >= 0.0)


def test_predict_without_checkpoints_exits_1(trained_run, tmp_path, capsys):
    data, _ = trained_run
    rc = main(["predict", "--data-dir", str(data), "--run-dir", str(tmp_path)])
    assert rc == 1
    assert "checkpoint" in capsys.readouterr().err


def test_predict_rejects_segments_at_another_rate(trained_run, tmp_path, capsys):
    _, run = trained_run
    other = tmp_path / "d200"
    assert main(["gen", "--out-dir", str(other), "--patients", "3", "--segments", "2",
                 "--fs", "200", "--duration", "5", "--seed", "0"]) == 0
    rc = main(["predict", "--data-dir", str(other), "--run-dir", str(run),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "s000000.eeg" in err and "200.0 Hz" in err


@pytest.mark.parametrize("fs, want", [
    ("100", ["500 samples", "backbone 16,32,64,128", "`backbone`"]),
    ("101", ["505 samples", "stride 10"]),
])
def test_train_on_segments_too_short_for_the_model_fails_before_any_work(tmp_path, capsys,
                                                                          monkeypatch, fs, want):
    """At the default backbone a 5-s segment leaves a last feature map too
    narrow for the central columns; the command fails on the first segment's
    sample count before it loads, pretrains or writes anything."""
    import eegimage.cli as cli

    data, out = tmp_path / "data", tmp_path / "run"
    assert run_gen(data, patients=3, segments=2, extra=["--fs", fs]) == 0
    capsys.readouterr()
    for name in ("load_dataset", "pretrain_backbone"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: pytest.fail(_name))
    rc = main(["train", "--data-dir", str(data), "--out-dir", str(out), "--seed", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data / 'signals' / 's000000.eeg'}: "), err
    assert all(w in err for w in want), err
    assert not out.exists()


@pytest.mark.parametrize("ragged", ["channels", "samples"])
def test_train_rejects_a_ragged_segment_naming_it(tmp_path, capsys, ragged):
    data = tmp_path / "data"
    assert run_gen(data, patients=3, segments=2) == 0
    path = data / "signals" / "s000003.eeg"
    seg = read_signal(path)
    if ragged == "channels":
        seg = replace(seg, samples=seg.samples[:-1])
    else:
        seg = replace(seg, samples=seg.samples[:, :400])
    write_signal(path, seg)
    capsys.readouterr()
    rc = main(["train", "--data-dir", str(data), "--out-dir", str(tmp_path / "run"),
               "--folds", "2", "--backbone", "6,8", "--no-pretrain", "--seed", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "s000003.eeg" in err
    assert str(seg.samples.shape) in err and "(16, 500)" in err


@pytest.mark.parametrize("folds", ["fold1", "another_run"])
def test_predict_rejects_folds_trained_with_another_config(trained_run, tmp_path, capsys,
                                                           folds):
    """Every fold checkpoint is checked against the run record: one fold
    of another config, and folds that agree with each other but come from
    another run, are refused naming the first checkpoint that differs."""
    data, run = trained_run
    mixed = tmp_path / "mixed"
    shutil.copytree(run, mixed)
    if folds == "fold1":
        cfg = load_checkpoint(mixed / "fold1.ckpt")[1]
        other = replace(cfg, backbone_channels=(6, 10))
        save_checkpoint(mixed / "fold1.ckpt", init_params(other, seed=0), other)
    else:
        other_run = tmp_path / "other"
        assert main(["train", "--data-dir", str(data), "--out-dir", str(other_run),
                     *TINY_TRAIN, "--backbone", "6,10"]) == 0
        for path in other_run.glob("fold*.ckpt*"):
            shutil.copy(path, mixed / path.name)
    capsys.readouterr()
    rc = main(["predict", "--data-dir", str(data), "--run-dir", str(mixed),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    bad = mixed / ("fold1.ckpt" if folds == "fold1" else "fold0.ckpt")
    assert err.startswith(f"error: {bad}: ")
    assert "cv_summary.json" in err and "backbone_channels" in err
    assert not (tmp_path / "p.csv").exists()


def _cut_segments(data, cut):
    """Keep the samples[cut] (channels, samples) of every segment under data."""
    for path in sorted((data / "signals").glob("*.eeg")):
        seg = read_signal(path)
        write_signal(path, replace(seg, samples=seg.samples[cut]))


def test_train_on_segments_with_another_channel_count_fails_before_any_work(tmp_path, capsys,
                                                                            monkeypatch):
    """The model takes n_channels channels; 8-channel segments fail naming
    the first segment and the field before anything is loaded or
    pretrained, with augmentation on."""
    import eegimage.cli as cli

    data, out = tmp_path / "data", tmp_path / "run"
    assert run_gen(data, patients=3, segments=2) == 0
    _cut_segments(data, np.s_[:8])
    capsys.readouterr()
    for name in ("load_dataset", "pretrain_backbone"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: pytest.fail(_name))
    rc = main(["train", "--data-dir", str(data), "--out-dir", str(out), "--folds", "2",
               "--backbone", "6,8", "--seed", "0"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {data / 'signals' / 's000000.eeg'}: 8 channels, the model's "
        "n_channels is 16\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "tsne"])
@pytest.mark.parametrize("cut, want", [
    (np.s_[:8], "8 channels, the model's n_channels is 16\n"),
    # the run's backbone 6,8 leaves no central columns on 1-s segments
    (np.s_[:, :100], "100 samples are too short for backbone 6,8 ("),
], ids=["channels", "samples"])
def test_serving_segments_the_model_does_not_fit_exits_1(trained_run, tmp_path, capsys,
                                                         monkeypatch, command, cut, want):
    """predict and tsne check that the run's model fits the first served
    segment, as train does, before they load a checkpoint or write
    anything."""
    _, run = trained_run
    data = tmp_path / "data"
    assert run_gen(data, patients=6, segments=3) == 0
    _cut_segments(data, cut)
    capsys.readouterr()
    loaded = spy_loaded_checkpoints(monkeypatch)
    rc = main([command, "--data-dir", str(data), "--run-dir", str(run),
               *_run_reader_args(command, tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data / 'signals' / 's000000.eeg'}: {want}"), err
    assert loaded == []
    assert not (tmp_path / "p.csv").exists() and not (tmp_path / "out").exists()


def test_predict_serves_the_recorded_causal_filter(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    assert run_gen(data, patients=6, segments=3) == 0
    assert main(["train", "--data-dir", str(data), "--out-dir", str(run),
                 "--folds", "2", "--stage1-epochs", "2", "--stage2-epochs", "1",
                 "--batch-size", "8", "--backbone", "6,8", "--no-pretrain",
                 "--no-augment", "--seed", "0", "--filter-mode", "causal"]) == 0
    out_csv = tmp_path / "preds.csv"
    assert main(["predict", "--data-dir", str(data), "--run-dir", str(run),
                 "--out", str(out_csv)]) == 0
    _, served = load_predictions(out_csv)
    manifest = load_manifest(data / "manifest.csv")
    models = [load_checkpoint(p)[:2] for p in sorted(run.glob("fold*.ckpt"))]

    def ensemble(mode):
        ds = load_dataset(manifest, FilterSpec(fs=100.0, mode=mode))
        return ensemble_predict(predict_batched(ds.x_uv, models)[0])

    # predictions.csv holds 12 decimals
    assert np.abs(served - ensemble("causal")).max() < 1e-11
    assert np.abs(served - ensemble("zero_phase")).max() > 1e-6


def test_no_command_scales_more_than_one_batch(tmp_path, monkeypatch):
    """Segments are clipped and scaled a batch at a time as they enter the
    model: no caller holds a scaled copy of a fold or of the served set, and
    a served batch is scaled once for all fold models. A tsne right after
    predict reuses predict's features and scales nothing; without them it
    serves the set itself."""
    from eegimage.preprocess import clip_scale_array

    data, run = tmp_path / "data", tmp_path / "run"
    assert run_gen(data, patients=8, segments=10) == 0  # 80 segments
    rows = []
    for name, module in list(sys.modules.items()):
        if name.startswith("eegimage.") and \
                getattr(module, "clip_scale_array", None) is clip_scale_array:
            monkeypatch.setattr(module, "clip_scale_array",
                                lambda x: rows.append(len(x)) or clip_scale_array(x))
    tsne = ["--run-dir", str(run), "--out-dir", str(tmp_path / "t"),
            "--perplexity", "4", "--iterations", "300"]
    for command, args, want in (
        ("train", ["--out-dir", str(run), *TINY_TRAIN], None),
        ("predict", ["--run-dir", str(run), "--out", str(tmp_path / "p.csv")], [64, 16]),
        ("tsne", tsne, []),  # it maps the features predict left
    ):
        rows.clear()
        assert main([command, "--data-dir", str(data), *args]) == 0
        if want is None:  # 64 is predict_batched's batch, 8 the training batch
            assert rows and max(rows) <= 64, (command, rows)
        else:  # 80 segments, 2 folds
            assert rows == want, (command, rows)
    for name in (SERVED_FEATURES, SERVED_FEATURES_SIDECAR):
        (run / name).unlink()
    rows.clear()
    assert main(["tsne", "--data-dir", str(data), *tsne]) == 0
    assert rows == [64, 16], rows


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_served_blocks_give_the_whole_set_outputs(trained_run, tmp_path, monkeypatch, n):
    """predict and tsne load the served set PREDICT_BATCH (64) segments at a
    time; the probabilities they write, the features predict leaves in the
    run dir and the features t-SNE maps (predict's) are those of one
    load_dataset and one ensemble_predict / extract_embeddings over every
    row, byte for byte."""
    import eegimage.cli as cli
    from eegimage.analysis import extract_embeddings

    _, run = trained_run
    data = tmp_path / "data"
    assert run_gen(data, patients=n, segments=1) == 0
    seen, export, tsne = {}, cli.export_predictions, cli.tsne

    def export_spy(path, ids, probs, **k):
        seen.update(ids=ids, probs=probs)
        return export(path, ids, probs, **k)

    def tsne_spy(emb, *a, **k):
        seen["emb"] = emb
        return tsne(emb, *a, **k)

    monkeypatch.setattr(cli, "export_predictions", export_spy)
    monkeypatch.setattr(cli, "tsne", tsne_spy)
    assert main(["predict", "--data-dir", str(data), "--run-dir", str(run),
                 "--out", str(tmp_path / "p.csv")]) == 0
    rc = main(["tsne", "--data-dir", str(data), "--run-dir", str(run),
               "--out-dir", str(tmp_path / "t"), "--perplexity", "4", "--iterations", "300"])
    assert rc == (1 if n == 1 else 0)  # t-SNE needs 10 points

    manifest = load_manifest(data / "manifest.csv")
    models = [load_checkpoint(p)[:2] for p in sorted(run.glob("fold*.ckpt"))]
    ds = load_dataset(manifest, FilterSpec(fs=100.0))
    assert seen["ids"] == ds.segment_ids
    probs, feats = predict_batched(ds.x_uv, models)
    emb = extract_embeddings(probs, feats)
    assert same_bytes(seen["probs"], ensemble_predict(probs))
    assert same_bytes(np.load(run / SERVED_FEATURES), emb)
    assert same_bytes(seen["emb"], emb)


def test_predict_memory_does_not_grow_with_the_served_set(trained_run, tmp_path):
    """predict holds one PREDICT_BATCH of served segments, not the whole set:
    its live-allocation peak on 256 segments stays within 1.25x its peak on
    64."""
    import tracemalloc

    _, run = trained_run
    peaks = []
    for patients in (8, 32):  # 8 segments each
        data = tmp_path / f"data{patients}"
        assert run_gen(data, patients=patients, segments=8) == 0
        tracemalloc.start()
        try:
            assert main(["predict", "--data-dir", str(data), "--run-dir", str(run),
                         "--out", str(tmp_path / "p.csv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= 1.25 * peaks[0], peaks


# --- the served features predict leaves for tsne ---


def run_tsne(data, run, out, *extra):
    return main(["tsne", "--data-dir", str(data), "--run-dir", str(run), "--out-dir", str(out),
                 "--perplexity", "4", "--iterations", "300", *extra])


def run_predict(data, run, out_csv):
    return main(["predict", "--data-dir", str(data), "--run-dir", str(run),
                 "--out", str(out_csv)])


@pytest.fixture
def served_run(trained_run, tmp_path):
    """Copies of trained_run's data and run dir, served by predict."""
    data, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(trained_run[0], data)
    shutil.copytree(trained_run[1], run)
    assert run_predict(data, run, tmp_path / "p.csv") == 0
    return data, run


def spy_served_rows(monkeypatch):
    """The row count of each served forward pass from now on."""
    import eegimage.cli as cli

    rows, orig = [], cli.predict_batched
    monkeypatch.setattr(cli, "predict_batched",
                        lambda x, *a, **k: rows.append(len(x)) or orig(x, *a, **k))
    return rows


def spy_loaded_checkpoints(monkeypatch) -> list:
    """Every checkpoint path `cli.load_checkpoint` loads from now on."""
    import eegimage.cli as cli

    loaded, load = [], cli.load_checkpoint
    monkeypatch.setattr(cli, "load_checkpoint", lambda p: loaded.append(p) or load(p))
    return loaded


def tsne_without_cache(data, run, out, *extra) -> bytes:
    """tsne.csv of a run whose served features are deleted first."""
    for name in (SERVED_FEATURES, SERVED_FEATURES_SIDECAR):
        (run / name).unlink(missing_ok=True)
    assert run_tsne(data, run, out, *extra) == 0
    return (out / "tsne.csv").read_bytes()


def test_tsne_maps_the_features_predict_left_as_it_maps_its_own(served_run, tmp_path,
                                                                monkeypatch, capsys):
    data, run = served_run
    sidecar = json.loads((run / SERVED_FEATURES_SIDECAR).read_text())
    assert sidecar["rows"] == 18 and sorted(sidecar) == ["input_sha256", "npy_sha256", "rows"]
    rows = spy_served_rows(monkeypatch)
    capsys.readouterr()
    assert run_tsne(data, run, tmp_path / "hit", "-v") == 0
    assert rows == []
    assert f"INFO eegimage: reusing the served features in {run / SERVED_FEATURES}\n" in \
        capsys.readouterr().err
    cold = tsne_without_cache(data, run, tmp_path / "cold")
    assert rows == [18]
    assert (tmp_path / "hit" / "tsne.csv").read_bytes() == cold


def _retrain_on_other_data(data, run, tmp_path):
    """The same flags on other segments: the same record, other weights."""
    before = (run / "cv_summary.json").read_text()
    other = tmp_path / "other_data"
    assert run_gen(other, patients=6, segments=3, seed=1) == 0
    assert main(["train", "--data-dir", str(other), "--out-dir", str(run), *TINY_TRAIN]) == 0
    assert json.loads((run / "cv_summary.json").read_text())["config_hash"] == \
        json.loads(before)["config_hash"]


def _flip_one_byte(data, run, tmp_path):
    path = data / "signals" / "s000005.eeg"
    raw = bytearray(path.read_bytes())
    raw[-4] ^= 1  # the low mantissa byte of the last sample
    path.write_bytes(bytes(raw))


def _list_a_subset(data, run, tmp_path):
    lines = (data / "manifest.csv").read_text().splitlines(keepends=True)
    (data / "manifest.csv").write_text("".join(lines[:2 + 15]))  # stamp, header, 15 rows


def _truncate_the_features(data, run, tmp_path):
    path = run / SERVED_FEATURES
    path.write_bytes(path.read_bytes()[:-4])


def _copy_another_runs_sidecar(data, run, tmp_path):
    other = tmp_path / "other_run"
    shutil.copytree(run, other)
    _retrain_on_other_data(data, other, tmp_path)
    assert run_predict(data, other, tmp_path / "other.csv") == 0
    shutil.copy(other / SERVED_FEATURES_SIDECAR, run / SERVED_FEATURES_SIDECAR)


@pytest.mark.parametrize("change", [_retrain_on_other_data, _flip_one_byte, _list_a_subset,
                                    _truncate_the_features, _copy_another_runs_sidecar],
                         ids=lambda f: f.__name__.strip("_"))
def test_tsne_recomputes_the_features_when_an_input_changed(served_run, tmp_path,
                                                            monkeypatch, capsys, change):
    """Each change keeps the run's config_hash, so a cache keyed on it alone
    would map stale features."""
    data, run = served_run
    change(data, run, tmp_path)
    rows = spy_served_rows(monkeypatch)
    capsys.readouterr()
    assert run_tsne(data, run, tmp_path / "t", "-v") == 0
    n = len(load_manifest(data / "manifest.csv"))
    assert rows == [n]
    assert f"INFO eegimage: computing the served features: {run / SERVED_FEATURES} is " \
           "missing or not of these inputs\n" in capsys.readouterr().err
    cold = tsne_without_cache(data, run, tmp_path / "cold")
    assert (tmp_path / "t" / "tsne.csv").read_bytes() == cold


def test_tsne_of_probabilities_always_recomputes(served_run, tmp_path, monkeypatch):
    data, run = served_run
    rows = spy_served_rows(monkeypatch)
    assert run_tsne(data, run, tmp_path / "t", "--use-probs") == 0
    assert rows == [18]
    cold = tsne_without_cache(data, run, tmp_path / "cold", "--use-probs")
    assert (tmp_path / "t" / "tsne.csv").read_bytes() == cold


@pytest.mark.parametrize("name, method", [(SERVED_FEATURES, "write_bytes"),
                                          (SERVED_FEATURES_SIDECAR, "write_text")])
def test_predict_that_cannot_write_the_features_warns_and_exits_0(trained_run, tmp_path,
                                                                  monkeypatch, capsys,
                                                                  name, method):
    """A full disk under the .npy or its sidecar costs tsne its cache, not
    predict its predictions."""
    data, run = trained_run[0], tmp_path / "run"
    shutil.copytree(trained_run[1], run)
    for served in (SERVED_FEATURES, SERVED_FEATURES_SIDECAR):
        (run / served).unlink(missing_ok=True)
    write = getattr(Path, method)

    def failing_write(self, *a, **k):
        if self == run / name:
            raise OSError("No space left on device")
        return write(self, *a, **k)

    monkeypatch.setattr(Path, method, failing_write)
    capsys.readouterr()
    assert run_predict(data, run, tmp_path / "p.csv") == 0
    err = capsys.readouterr().err
    assert err == (f"WARNING eegimage: could not write {run / name} (No space left "
                   "on device); tsne will recompute the served features\n")
    assert len(load_predictions(tmp_path / "p.csv")[0]) == 18
    assert not (run / SERVED_FEATURES_SIDECAR).exists()
    rows = spy_served_rows(monkeypatch)
    assert run_tsne(data, run, tmp_path / "t") == 0
    assert rows == [18]


def test_tsne_hit_loads_no_fold_checkpoint(served_run, tmp_path, monkeypatch):
    """A hit on the features predict left needs no model: their input
    digest covers every checkpoint byte predict checked."""
    data, run = served_run
    loaded = spy_loaded_checkpoints(monkeypatch)
    assert run_tsne(data, run, tmp_path / "hit") == 0
    assert loaded == []


def test_tsne_miss_loads_each_fold_checkpoint_once(served_run, tmp_path, monkeypatch):
    data, run = served_run
    loaded = spy_loaded_checkpoints(monkeypatch)
    tsne_without_cache(data, run, tmp_path / "miss")
    assert loaded == sorted(run.glob("fold*.ckpt")) and len(loaded) == 2


@pytest.mark.parametrize("command", ["predict", "tsne"])
def test_serving_names_a_segment_shaped_unlike_the_first_in_a_later_block(trained_run,
                                                                          tmp_path, capsys,
                                                                          command):
    """Blocks are checked against the set's first segment, not their own: a
    set whose segments from index 64 on hold 400 samples, not 500, fails on
    the first of them."""
    _, run = trained_run
    data = tmp_path / "data"
    assert run_gen(data, patients=8, segments=10) == 0
    manifest = load_manifest(data / "manifest.csv")
    for e in manifest.entries[64:]:
        path = manifest.segment_path(e)
        seg = read_signal(path)
        write_signal(path, replace(seg, samples=seg.samples[:, :400]))
    capsys.readouterr()
    out = (["--out", str(tmp_path / "p.csv")] if command == "predict" else
           ["--out-dir", str(tmp_path / "t"), "--perplexity", "4", "--iterations", "300"])
    rc = main([command, "--data-dir", str(data), "--run-dir", str(run), *out])
    assert rc == 1
    first, bad = (manifest.segment_path(manifest.entries[i]) for i in (0, 64))
    assert capsys.readouterr().err == (
        f"error: {bad}: shape: (16, 400) (channels, samples), the first segment "
        f"{first} is (16, 500)\n")
    assert not (tmp_path / "p.csv").exists() and not (tmp_path / "t").exists()


def test_non_finite_loss_exits_1_naming_where(tmp_path, capsys, monkeypatch):
    import eegimage.train as train

    data = tmp_path / "data"
    assert run_gen(data, patients=6, segments=3) == 0

    def non_finite(*a, **k):
        raise FloatingPointError("non-finite loss nan")

    monkeypatch.setattr(train, "backward_batch", non_finite)
    capsys.readouterr()
    rc = main(["train", "--data-dir", str(data), "--out-dir", str(tmp_path / "run"),
               "--folds", "2", "--backbone", "6,8", "--no-pretrain", "--seed", "0"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: fold 0 stage 1 epoch 0 step 0: non-finite loss nan\n")


def test_tsne_subcommand(trained_run, tmp_path, capsys):
    data, run = trained_run
    out = tmp_path / "viz"
    rc = main(["tsne", "--data-dir", str(data), "--run-dir", str(run),
               "--out-dir", str(out), "--perplexity", "4", "--iterations", "300"])
    assert rc == 0
    capsys.readouterr()
    lines = (out / "tsne.csv").read_text().splitlines()
    assert lines[0].startswith("#")  # stamped comment
    assert lines[1] == "id,x,y,consensus"
    assert len(lines) == 2 + 18
    assert (out / "tsne.svg").exists()


def test_tsne_prints_its_objective_and_writes_only_the_map(trained_run, tmp_path, capsys,
                                                          monkeypatch):
    import eegimage.cli as cli

    data, run = trained_run
    results, orig = [], cli.tsne

    def spy(*a, **k):
        results.append((k, orig(*a, **k)))
        return results[-1][1]

    monkeypatch.setattr(cli, "tsne", spy)
    printed = []
    for out in (tmp_path / "a", tmp_path / "b"):
        capsys.readouterr()
        assert main(["tsne", "--data-dir", str(data), "--run-dir", str(run),
                     "--out-dir", str(out), "--perplexity", "4", "--iterations", "300"]) == 0
        printed.append(capsys.readouterr().out.splitlines()[0])
        assert sorted(p.name for p in out.iterdir()) == ["tsne.csv", "tsne.svg"]
    assert printed[0] == printed[1]
    kwargs, result = results[0]
    assert kwargs == {"trace_every": 50}
    np.testing.assert_array_equal(result.trace_iterations, [0, 50, 100, 150, 200, 250, 299])
    trace = result.objective_trace
    assert printed[0] == f"KL {trace[0]:.2f} -> {trace[-1]:.2f} over 300 iterations"


def test_tsne_with_a_nan_perplexity_exits_1_naming_it(trained_run, tmp_path, capsys):
    data, run = trained_run
    out = tmp_path / "viz"
    capsys.readouterr()
    rc = main(["tsne", "--data-dir", str(data), "--run-dir", str(run),
               "--out-dir", str(out), "--perplexity", "nan", "--iterations", "300"])
    assert rc == 1
    assert capsys.readouterr().err == "error: perplexity must be a finite number > 1, got nan\n"
    assert not (out / "tsne.csv").exists()


def test_ablate_with_config_file(tmp_path, capsys):
    data = tmp_path / "d"
    assert run_gen(data, patients=6, segments=3) == 0
    cfg = tmp_path / "abl.json"
    cfg.write_text(json.dumps({"pretrain": False, "augment": False}))
    out = tmp_path / "abl"
    rc = main(
        [
            "ablate", "--data-dir", str(data), "--out-dir", str(out),
            "--config", str(cfg), "--seeds", "1", "--folds", "2",
            "--stage1-epochs", "1", "--stage2-epochs", "1",
            "--backbone", "6,8", "--variants", "full,no_eeg2img",
        ]
    )
    assert rc == 0
    assert "no_eeg2img" in capsys.readouterr().out
    text = (out / "ablation.csv").read_text()
    assert "full," in text and "no_eeg2img," in text
    assert (out / "ablation.svg").exists()


def test_ablate_logs_each_epoch_at_v_and_writes_no_more(tmp_path, capsys):
    data = tmp_path / "d"
    assert run_gen(data, patients=6, segments=3) == 0
    cfg = tmp_path / "abl.json"
    cfg.write_text(json.dumps({"pretrain": False, "augment": False}))
    out = tmp_path / "abl"
    capsys.readouterr()
    rc = main(
        [
            "ablate", "--data-dir", str(data), "--out-dir", str(out), "-v",
            "--config", str(cfg), "--seeds", "2", "--folds", "2",
            "--stage1-epochs", "2", "--stage2-epochs", "1", "--backbone", "6,8",
            "--variants", "full,no_central",
        ]
    )
    assert rc == 0
    records = [json.loads(line.split("epoch ", 1)[1])
               for line in capsys.readouterr().err.splitlines() if " epoch {" in line]
    # 2 seeds x 2 variants x 2 folds x (2 + 1) epochs, in training order
    assert len(records) == 24
    assert set(records[0]) == {"variant", "seed", "fold", "stage", "epoch", "step", "lr",
                               "train_loss", "val_loss"}
    cells = [(r["seed"], r["variant"], r["fold"], r["stage"], r["epoch"]) for r in records]
    assert cells[:4] == [(0, "full", 0, 1, 0), (0, "full", 0, 1, 1), (0, "full", 0, 2, 0),
                         (0, "full", 1, 1, 0)]
    assert cells[6][:2] == (0, "no_central") and cells[12][:2] == (1, "full")
    assert all(np.isfinite(r["train_loss"]) and np.isfinite(r["val_loss"]) for r in records)
    assert sorted(p.name for p in out.iterdir()) == ["ablation.csv", "ablation.svg"]


def test_ablate_no_pretrain_and_no_augment_flags(tmp_path, monkeypatch):
    import eegimage.analysis as analysis
    import eegimage.train as train

    def forbidden(*a, **k):
        raise AssertionError("called although switched off by flag")

    monkeypatch.setattr(analysis, "pretrain_backbone", forbidden)
    monkeypatch.setattr(train, "apply_array", forbidden)
    data = tmp_path / "d"
    assert run_gen(data, patients=6, segments=3) == 0
    out = tmp_path / "abl"
    rc = main(
        [
            "ablate", "--data-dir", str(data), "--out-dir", str(out),
            "--no-pretrain", "--no-augment", "--seeds", "1", "--folds", "2",
            "--stage1-epochs", "1", "--stage2-epochs", "1",
            "--backbone", "6,8", "--variants", "full,no_central",
        ]
    )
    assert rc == 0
    text = (out / "ablation.csv").read_text()
    assert "full," in text and "no_central," in text


# --- option strings ---


COMMON_OPTIONS = {"-h", "--help", "--seed", "--data-dir", "--out-dir", "--config", "-v",
                  "--verbosity"}
TRAINING_OPTIONS = {"--folds", "--stage1-epochs", "--stage2-epochs", "--backbone",
                    "--no-pretrain", "--no-augment"}


@pytest.mark.parametrize("command,own", [
    ("train", {"--variant", "--batch-size", "--lr1", "--lr2", "--dropout", "--row-layout",
               "--filter-mode"}),
    ("ablate", {"--seeds", "--variants"}),
])
def test_training_commands_accept_exactly_their_options(command, own):
    from eegimage.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    accepted = {o for a in sub.choices[command]._actions for o in a.option_strings}
    assert accepted == COMMON_OPTIONS | TRAINING_OPTIONS | own


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("flag", [["--seed", "5"], ["--config", "c.json"]])
def test_commands_that_read_no_config_reject_seed_and_config(tmp_path, capsys, command, flag):
    rc = main([command, "--data-dir", str(tmp_path), "--run-dir", str(tmp_path), *flag])
    assert rc == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_predict_rejects_out_dir_it_would_ignore(tmp_path, capsys, monkeypatch):
    """predict writes one CSV to --out; an --out-dir would leave it in the
    working directory instead of where the caller asked."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "runs" / "x"
    rc = main(["predict", "--data-dir", str(tmp_path), "--run-dir", str(tmp_path),
               "--out-dir", str(out)])
    assert rc == 2
    assert f"unrecognized arguments: --out-dir {out}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# --- config value types ---


@pytest.mark.parametrize("command,key,value,want", [
    ("train", "stage1_epochs", "2", "an integer"),
    ("train", "folds", True, "an integer"),
    ("train", "dropout", "0.1", "a number"),
    ("train", "pretrain", 1, "a boolean"),
    ("train", "variant", 3, "a string"),
    ("train", "backbone", [8, "16"], "a string or a list of integers"),
    ("ablate", "seeds", 2.0, "an integer"),
    ("ablate", "augment", "false", "a boolean"),
    ("ablate", "backbone", 8, "a string or a list of integers"),
    ("tsne", "perplexity", True, "a number"),
    ("tsne", "iterations", None, "an integer"),
    ("tsne", "use_probs", 1, "a boolean"),
])
def test_config_value_of_the_wrong_type_exits_1_before_any_output(tmp_path, capsys, command,
                                                                  key, value, want):
    cfg, out = tmp_path / "c.json", tmp_path / "out"
    cfg.write_text(json.dumps({key: value}))
    run = ["--run-dir", str(tmp_path / "run")] if command == "tsne" else []
    rc = main([command, "--data-dir", str(tmp_path / "nowhere"), "--out-dir", str(out),
               "--config", str(cfg), *run])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: {key} must be {want}, got {json.dumps(value)}\n")
    assert not out.exists()


def test_config_values_of_the_default_type_are_accepted(tmp_path):
    import argparse

    from eegimage.cli import TRAIN_DEFAULTS, TSNE_DEFAULTS, _effective

    cfg = tmp_path / "c.json"
    values = {"backbone": [6, 8], "dropout": 0, "lr1": 0.002, "pretrain": False,
              "variant": "no_central", "folds": 2}
    cfg.write_text(json.dumps(values))
    merged = _effective(argparse.Namespace(config=cfg), TRAIN_DEFAULTS)
    assert merged == {**TRAIN_DEFAULTS, **values, "backbone": (6, 8)}
    assert type(merged["dropout"]) is float  # read as its default's type
    cfg.write_text(json.dumps({"perplexity": 5, "use_probs": True}))
    merged = _effective(argparse.Namespace(config=cfg, perplexity=7.5), TSNE_DEFAULTS)
    assert merged["perplexity"] == 7.5 and merged["use_probs"] is True


# --- damaged inputs name their file ---


@pytest.mark.parametrize("command", ["train", "predict"])
def test_a_truncated_signal_file_fails_naming_it(trained_run, tmp_path, capsys, command):
    _, run = trained_run
    data = tmp_path / "data"
    assert run_gen(data, patients=6, segments=3) == 0
    path = data / "signals" / "s000004.eeg"
    path.write_bytes(path.read_bytes()[:-6])
    capsys.readouterr()
    args = (["--run-dir", str(run), "--out", str(tmp_path / "p.csv")] if command == "predict"
            else ["--out-dir", str(tmp_path / "run"), "--folds", "2", "--no-pretrain",
                  "--backbone", "6,8"])
    assert main([command, "--data-dir", str(data), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: samples: ")


def _damaged_run(run, tmp_path, edit):
    """A copy of run whose oof_predictions.csv lines went through edit."""
    damaged = tmp_path / "damaged"
    shutil.copytree(run, damaged)
    path = damaged / "oof_predictions.csv"
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    return damaged, path


@pytest.mark.parametrize("last, want", [
    (None, "6 columns, expected 7"),
    # AUROC and the ROC curves rank every probability; NaN has no rank
    ("nan", "segment 's000003' has a non-finite probability"),
    ("inf", "segment 's000003' has a non-finite probability"),
], ids=["missing-column", "nan", "inf"])
def test_evaluate_names_the_line_of_a_malformed_row(trained_run, tmp_path, capsys, last,
                                                    want):
    data, run = trained_run

    def edit_the_last_column(lines):
        lines[5] = lines[5].rsplit(",", 1)[0] + (f",{last}" if last else "") + "\n"
        return lines

    damaged, path = _damaged_run(run, tmp_path, edit_the_last_column)
    capsys.readouterr()
    rc = main(["evaluate", "--data-dir", str(data), "--run-dir", str(damaged)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}: line 6: {want}\n"


def test_evaluate_names_the_first_prediction_off_the_manifest_order(trained_run, tmp_path,
                                                                    capsys):
    data, run = trained_run

    def swap_rows(lines):  # line 0 is the stamp, line 1 the header
        lines[4], lines[6] = lines[6], lines[4]
        return lines

    damaged, path = _damaged_run(run, tmp_path, swap_rows)
    capsys.readouterr()
    rc = main(["evaluate", "--data-dir", str(data), "--run-dir", str(damaged)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {path}: prediction row 3 is segment 's000004', "
        "the manifest lists 's000002'\n")


SUMMARY_FAULTS = [("drop", "filter"), ("drop", "config_hash"), ("drop", "k"),
                  ("string", "seed"), ("string", "filter"), ("not_json", None),
                  ("drop", "augment"), ("drop", "stage1"), ("edit_hash", "config_hash")]


def _run_reader_args(command, tmp_path):
    out_dir = ["--out-dir", str(tmp_path / "out")]
    return {"evaluate": out_dir, "predict": ["--out", str(tmp_path / "p.csv")],
            "tsne": [*out_dir, "--perplexity", "4", "--iterations", "300"]}[command]


# evaluate reads no field of the filter spec
@pytest.mark.parametrize("command,fault,field", [
    *[(c, *f) for c in ("evaluate", "predict", "tsne") for f in SUMMARY_FAULTS],
    ("predict", "bad_filter", "filter"), ("tsne", "bad_filter", "filter"),
])
def test_a_malformed_cv_summary_fails_naming_the_file_and_field(trained_run, tmp_path,
                                                                  capsys, command, fault, field):
    data, run = trained_run
    damaged = tmp_path / "damaged"
    shutil.copytree(run, damaged)
    path = damaged / "cv_summary.json"
    summary = json.loads(path.read_text())
    if fault == "drop":
        del summary[field]
    elif fault == "string":
        summary[field] = "0"
    elif fault == "bad_filter":
        summary["filter"]["cutoff"] = 3.0
    elif fault == "edit_hash":
        summary["config_hash"] = "0" * 16
    path.write_text("{" if fault == "not_json" else json.dumps(summary))
    capsys.readouterr()
    rc = main([command, "--data-dir", str(data), "--run-dir", str(damaged),
               *_run_reader_args(command, tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert (f"'{field}'" in err) if field else "not JSON" in err


@pytest.mark.parametrize("command", ["evaluate", "predict", "tsne"])
def test_each_run_reader_reads_the_summary_once(trained_run, tmp_path, monkeypatch, command):
    import eegimage.cli as cli

    data, run = trained_run
    calls, orig = [], cli._read_summary
    monkeypatch.setattr(cli, "_read_summary", lambda d: calls.append(d) or orig(d))
    assert main([command, "--data-dir", str(data), "--run-dir", str(run),
                 *_run_reader_args(command, tmp_path)]) == 0
    assert calls == [run]


# --- run records and stamps ---


def test_train_stamps_augmentation_and_reads_back_the_record_it_built(tmp_path, monkeypatch):
    import eegimage.cli as cli

    built, orig = [], cli._training_setup
    monkeypatch.setattr(cli, "_training_setup",
                        lambda *a, **k: built.append(orig(*a, **k)) or built[-1])
    data = tmp_path / "data"
    assert run_gen(data, patients=6, segments=3) == 0
    hashes = []
    for name, extra in (("aug", []), ("noaug", ["--no-augment"])):
        run = tmp_path / name
        assert main(["train", "--data-dir", str(data), "--out-dir", str(run), "--folds", "2",
                     "--stage1-epochs", "1", "--stage2-epochs", "1", "--batch-size", "8",
                     "--backbone", "6,8", "--no-pretrain", "--seed", "0", *extra]) == 0
        rec = built[-1][1]
        assert (rec.augment is None) == bool(extra)
        assert cli._read_summary(run) == rec
        hashes.append(json.loads((run / "cv_summary.json").read_text())["config_hash"])
    assert hashes[0] != hashes[1]


def test_ablate_stamps_its_folds(tmp_path, monkeypatch):
    import eegimage.cli as cli
    from eegimage.analysis import AblationRow

    def canned(*a, **k):
        return [AblationRow("full", 1.0, [1.0], None)]

    monkeypatch.setattr(cli, "run_ablation", canned)
    data = tmp_path / "data"
    assert run_gen(data, patients=6, segments=3) == 0
    stamps = []
    for folds in ("2", "3"):
        out = tmp_path / f"abl{folds}"
        assert main(["ablate", "--data-dir", str(data), "--out-dir", str(out), "--seeds", "1",
                     "--folds", folds, "--variants", "full"]) == 0
        stamps.append((out / "ablation.csv").read_text().splitlines()[0])
    assert stamps[0].startswith("# config_hash=") and stamps[0] != stamps[1]


def test_every_stamp_in_a_served_run_is_its_summarys(trained_run, tmp_path):
    from eegimage.cli import _read_summary
    from eegimage.tsne import TsneConfig
    from eegimage.util import config_hash

    data, run = trained_run
    served = tmp_path / "run"
    shutil.copytree(run, served)
    assert main(["evaluate", "--data-dir", str(data), "--run-dir", str(served),
                 "--out-dir", str(served / "eval")]) == 0
    assert main(["predict", "--data-dir", str(data), "--run-dir", str(served),
                 "--out", str(served / "predictions.csv")]) == 0
    summary = json.loads((served / "cv_summary.json").read_text())
    stamps = {(str(p.relative_to(served)), m)
              for p in served.rglob("*") if p.suffix in (".csv", ".svg", ".json")
              for m in re.findall(r"config_hash=\w+ seed=\d+", p.read_text())}
    assert {name for name, _ in stamps} >= {"oof_predictions.csv", "predictions.csv",
                                            "eval/report.json", "eval/confusion.csv"}
    assert {m for _, m in stamps} == {f"config_hash={summary['config_hash']} seed=0"}
    # a t-SNE map is stamped with its run and its own config
    assert main(["tsne", "--data-dir", str(data), "--run-dir", str(served),
                 "--out-dir", str(tmp_path / "tsne"), "--perplexity", "4",
                 "--iterations", "300"]) == 0
    tsne_hash = config_hash({"run": _read_summary(served),
                             "tsne": TsneConfig(perplexity=4.0, iterations=300, seed=0)})
    for name in ("tsne.csv", "tsne.svg"):
        assert f"config_hash={tsne_hash} seed=0" in (tmp_path / "tsne" / name).read_text()


def test_a_run_with_integer_float_config_values_is_served(tmp_path):
    data = tmp_path / "data"
    assert run_gen(data, patients=6, segments=3) == 0
    summaries = []
    for name, values in (("ints", {"dropout": 0, "lr1": 1}),
                         ("floats", {"dropout": 0.0, "lr1": 1.0})):
        cfg, run = tmp_path / f"{name}.json", tmp_path / name
        cfg.write_text(json.dumps(values))
        assert main(["train", "--data-dir", str(data), "--out-dir", str(run), "--folds", "2",
                     "--stage1-epochs", "1", "--stage2-epochs", "1", "--batch-size", "8",
                     "--backbone", "6,8", "--no-pretrain", "--no-augment", "--seed", "0",
                     "--config", str(cfg)]) == 0
        summaries.append(json.loads((run / "cv_summary.json").read_text()))
    assert summaries[0]["model"]["dropout_rate"] == 0.0
    assert summaries[0]["config_hash"] == summaries[1]["config_hash"]
    run = tmp_path / "ints"
    assert main(["evaluate", "--data-dir", str(data), "--run-dir", str(run)]) == 0
    assert main(["predict", "--data-dir", str(data), "--run-dir", str(run),
                 "--out", str(tmp_path / "p.csv")]) == 0
    assert main(["tsne", "--data-dir", str(data), "--run-dir", str(run),
                 "--perplexity", "4", "--iterations", "300"]) == 0
