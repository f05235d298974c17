"""Smoke tests of the scripts in scripts/: each runs at small settings, exits
0 and leaves the files it promises; the studies' tables carry the stamp of
the eegimage command that wrote them. artifact_hashes.py also lists every file
it leaves as ``sha256  relative/path``. No hash or score value is asserted."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=600,
    )


def test_artifact_hashes_quick_lists_every_file(tmp_path):
    out = tmp_path / "a"
    res = run_script("artifact_hashes.py", "--out", out, "--quick")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines[:3]
    paths = [line.split("  ", 1)[1] for line in lines]
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert paths == files
    assert {"small/manifest.csv", "run_pre/fold0.ckpt", "run_pre/predictions.csv",
            "run_pre/eval/report.json", "run_pre/tsne/tsne.csv"} <= set(paths)
    assert not any(p.startswith(("run_nopre/", "run_big/", "ablation/")) for p in paths)
    # a second run refuses to mix its files into the first one's
    again = run_script("artifact_hashes.py", "--out", out, "--quick")
    assert again.returncode != 0 and "not empty" in again.stderr


def test_run_pipeline_quick_leaves_every_stage_output(tmp_path):
    out = tmp_path / "p"
    res = run_script("run_pipeline.py", "--out", out, "--quick")
    assert res.returncode == 0, res.stderr
    for name in ("data/manifest.csv", "train/cv_summary.json", "train/oof_predictions.csv",
                 "train/progress.jsonl", "eval/report.json", "eval/tsne.csv",
                 "predictions.csv"):
        assert (out / name).is_file(), name
    assert sorted(p.name for p in (out / "train").glob("fold*.ckpt")) == [
        "fold0.ckpt", "fold1.ckpt", "fold2.ckpt"]
    assert f"artifacts in {out}" in res.stdout


def test_run_ablation_study_small_writes_its_table(tmp_path):
    out = tmp_path / "abl"
    res = run_script("run_ablation_study.py", "--out", out, "--seeds", 1, "--folds", 2,
                     "--patients", 6, "--segments", 4)
    assert res.returncode == 0, res.stderr
    assert (out / "data" / "manifest.csv").is_file() and (out / "ablation.svg").is_file()
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash="), lines[0]  # written by eegimage ablate
    rows = [line.split(",")[0] for line in lines[1:]]
    assert rows == ["variant", "full", "no_central", "no_pretrain", "no_eeg2img"]
    assert "beats no_eeg2img in" in res.stdout


def test_noise_robustness_small_writes_one_row_per_level(tmp_path):
    out = tmp_path / "noise"
    res = run_script("noise_robustness.py", "--out", out, "--seeds", 1,
                     "--noise-levels", 10, 40)
    assert res.returncode == 0, res.stderr
    with open(out / "noise_sweep.csv") as f:
        rows = list(csv.DictReader(f))
    assert [float(r["noise_rms_uv"]) for r in rows] == [10.0, 40.0]
    assert set(rows[0]) == {"noise_rms_uv", "full_kld", "no_eeg2img_kld", "gap"}
    for level in (10, 40):
        assert (out / f"data_rms{level}" / "manifest.csv").is_file()
        table = (out / f"ablation_rms{level}" / "ablation.csv").read_text()
        assert table.startswith("# config_hash="), table  # written by eegimage ablate


def test_memory_peaks_quick_reports_every_phase_and_command(tmp_path):
    res = run_script("memory_peaks.py", "--out", tmp_path / "phases", "--quick")
    assert res.returncode == 0, res.stderr
    phases = {}
    for line in res.stdout.splitlines():
        m = re.fullmatch(r"(\w+) +calls +(\d+) +live_peak_mib +([\d.]+) +maxrss_mib +[\d.]+"
                         r" +maxrss_rise_mib +[\d.]+ +minflt +\d+", line)
        assert m, line
        phases[m[1]] = (int(m[2]), float(m[3]))
    assert list(phases) == ["load_dataset", "pretrain_backbone", "run_cv", "validation_loss"]
    assert all(calls >= 1 and peak > 0 for calls, peak in phases.values()), phases
    # validation runs inside run_cv, so its peak counts there too
    assert phases["run_cv"][1] >= phases["validation_loss"][1]

    res = run_script("memory_peaks.py", "--out", tmp_path / "serve", "--quick",
                     "--commands", "serve", "--rounds", 1)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    setup, rounds = lines[:3], lines[3:]
    assert all(re.fullmatch(r"setup \w+ +maxrss_mib +[\d.]+", line) for line in setup), setup
    assert [line.split()[1] for line in setup] == ["gen", "train", "gen"]
    assert [line.split()[2] for line in rounds] == ["predict", "tsne"]
    assert all(re.search(r"minflt +\d+ +sys_s +[\d.]+ +user_s", line) for line in rounds)


def test_perfbench_tracer_finds_every_function_it_wraps():
    """perfbench/tracer.py wraps package functions by module and name; a
    refactor that renames or inlines one breaks --trace 1 and the untraced
    serve and ablate checks."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer(stage_of_cout={})
    try:
        for spans in (False, True):
            tracer.install(spans=spans)
            assert tracer.errors() == [], spans
            assert tracer.patched, spans
    finally:
        tracer.uninstall()


def test_perfbench_checks_read_what_the_commands_write(tmp_path):
    """perfbench/checks.py reads artifacts with its own parsers: the signal
    and checkpoint layouts, the sidecar fields of reference_forward and
    cv_summary.json's filter, which the benchmark reads as FilterSpec(**...).
    A rename in any of them fails here, not only as a failed benchmark
    check."""
    import importlib.util
    import json

    from eegimage.cli import main
    from eegimage.data import load_manifest
    from eegimage.preprocess import FilterSpec
    from eegimage.train import load_dataset

    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    data, run, preds = tmp_path / "data", tmp_path / "run", tmp_path / "p.csv"
    for argv in (
        ["gen", "--out-dir", data, "--patients", 6, "--segments", 3, "--duration", 5,
         "--seed", 0],
        ["train", "--data-dir", data, "--out-dir", run, "--folds", 2, "--stage1-epochs", 1,
         "--stage2-epochs", 1, "--batch-size", 8, "--backbone", "6,8", "--no-pretrain",
         "--seed", 0],
        ["predict", "--data-dir", data, "--run-dir", run, "--out", preds],
    ):
        assert main([str(a) for a in argv]) == 0, argv
    filt = json.loads((run / "cv_summary.json").read_text())["filter"]
    ckpts = sorted(run.glob("fold*.ckpt"))
    sample = [0, 5, 10, 17]
    assert len(ckpts) == 2 and checks.check_simplex(ckpts) == []
    assert checks.check_forward(ckpts, data, filt, preds, sample) == []
    x_uv = load_dataset(load_manifest(data / "manifest.csv"), FilterSpec(**filt)).x_uv
    assert checks.check_bandpass(data, filt, sample, x_uv[sample]) == []
