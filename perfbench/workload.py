"""One workload in one process: set-up, timed rounds, correctness checks.

Run by ``run.py`` in a fresh child process with ``src`` on the path and the
BLAS thread count fixed. Prints readable lines, then one JSON object as the
last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import calibrate
import checks
from tracer import Tracer

SETUP_REPEATS = 7
WARMUP_S = 2.0
# seconds of calibration kernel before the first set-up and after each
CAL_S = 0.3
DEFAULT_BACKBONE = (16, 32, 64, 128)
ABLATE_BACKBONE = (8, 16, 32)

# Inputs of each workload (see README.md for why these sizes).
TRAIN_CV_GEN = dict(patients=16, segments=10)  # 160 segments, fs 100 Hz, 10 s
TRAIN_CV_TRAIN = dict(folds=2, stage1_epochs=5, stage2_epochs=1)
ABLATE_GEN = dict(patients=9, segments=6, noise_rms=40.0, duration=5.0)  # 54 segments
ABLATE_SEEDS = 1
SERVE_TRAIN_GEN = dict(patients=6, segments=4)  # 24 segments to fit the served folds
SERVE_TRAIN = dict(folds=2, stage1_epochs=1, stage2_epochs=1)
SERVE_GEN = dict(patients=24, segments=10)  # 240 served segments
SERVE_SEED_OFFSET = 1_000_003
CHECK_SAMPLE = 8


def _stage_layers(stages: int, train: bool) -> tuple[str, ...]:
    out = []
    for i in range(stages):
        c = f"model.conv{i}"
        out += [f"{c}.fwd_ms", f"{c}.fwd_gflops", f"{c}.fwd_flop_per_sample",
                f"{c}.im2col_bytes_per_sample", f"model.silu{i}.fwd_ms"]
        if train:
            out += [f"{c}.bwd_ms", f"{c}.bwd_gflops", f"model.silu{i}.bwd_ms",
                    f"model.pretrain.conv{i}.fwd_ms", f"model.pretrain.conv{i}.bwd_ms"]
    return tuple(out)


# per-layer metrics that every workload runs, and those of training
COMMON_LAYERS = (
    "data.read_signal.ms", "data.read_signal.calls", "preprocess.filter_array.ms",
    "preprocess.filter_array.calls", "preprocess.design_bandpass.calls_per_segment",
    "preprocess.clip_scale_array.ms", "model.eeg_to_image_batch.ms",
    "model.forward_batch.eval_ms_per_segment", "model.eval_im2col_bytes_per_segment",
    "train.load_dataset.s", "train.predict_batched.ms_per_segment", "analysis.emit_report.s",
    "synthgen.generate.s", "cli.gen.s", "data.self_s", "preprocess.self_s", "model.self_s",
    "train.self_s", "analysis.self_s", "synthgen.self_s", "cli.self_s")
TRAINING_LAYERS = (
    "augment.apply_array.ms", "augment.self_s", "model.eeg_to_image_backward.ms",
    "model.forward_batch.train_ms", "model.backward_batch.ms", "train.train_stage.s",
    "train.step_ms", "train.adam_step.ms", "train.project_rows_simplex.ms",
    "train.validation_loss.s", "train.steps", "train.samples_trained",
    "analysis.pretrain_backbone.s")


def _flags(d: dict) -> list[str]:
    out = []
    for k, v in d.items():
        out += [f"--{k.replace('_', '-')}", str(v)]
    return out


class Runner:
    """Calls the user-facing CLI in-process and records its wall time, less
    the time the calibration kernel ran inside it."""

    def __init__(self, tracer: Tracer, log_path: Path):
        self.tracer = tracer
        self.sampler = tracer.sampler
        self.log = open(log_path, "a")
        self.failed_commands: list[str] = []

    def __call__(self, *argv) -> float:
        from eegimage.cli import main

        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(self.log), self.tracer.span(f"cli.{argv[0]}"):
            t0, k0 = time.perf_counter(), self.sampler.spent
            rc = main(argv)
            dt = time.perf_counter() - t0 - (self.sampler.spent - k0)
        if rc != 0:
            self.failed_commands.append(" ".join(argv))
        return dt

    def close(self):
        self.log.close()


class Workload:
    backbone = DEFAULT_BACKBONE
    # per-layer metrics the workload runs: a traced run fails if one reads 0
    layers: tuple[str, ...] = ()

    def __init__(self, root: Path, seed: int, run: Runner):
        self.root, self.seed, self.run = root, seed, run

    @property
    def setup_dir(self) -> Path:
        return self.root / "setup"

    @property
    def round_dir(self) -> Path:
        return self.root / "round"

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> dict:
        """Run the timed commands once; returns times and counts."""
        raise NotImplementedError

    def results(self, rounds: list[dict]) -> dict[str, tuple[float, str]]:
        """Figures for the readable lines: a mean KLD from the last round's
        outputs, and the workload's own throughput (median over rounds)."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


class TrainCv(Workload):
    layers = COMMON_LAYERS + TRAINING_LAYERS + _stage_layers(4, train=True) + (
        "model.save_checkpoint.ms", "metrics.evaluate.ms", "metrics.self_s", "cli.train.s",
        "cli.evaluate.s")

    def setup(self):
        self.run("gen", "--out-dir", self.setup_dir / "data", "--seed", self.seed,
                 *_flags(TRAIN_CV_GEN))

    def round(self):
        data, run = self.setup_dir / "data", self.round_dir / "run"
        before = self.run.tracer.samples_trained
        t_train = self.run("train", "--data-dir", data, "--out-dir", run, "--seed", 0,
                           *_flags(TRAIN_CV_TRAIN))
        samples = self.run.tracer.samples_trained - before
        t_eval = self.run("evaluate", "--data-dir", data, "--run-dir", run)
        return {"run_s": t_train + t_eval, "rate": samples / t_train,
                "ops": TRAIN_CV_TRAIN["folds"]}

    def results(self, rounds):
        report = json.loads((self.round_dir / "run" / "eval" / "report.json").read_text())
        auroc = [v for v in report["auroc"].values() if v is not None]
        return {"oof_mean_kld": (report["mean_kld"], "nats"),
                "train_samples_per_s": (_median(rounds, "rate"), "samples/s"),
                "oof_macro_auroc": (float(np.mean(auroc)), "1")}

    def check(self):
        from eegimage.data import load_manifest
        from eegimage.model import backward_batch, forward_batch, load_checkpoint
        from eegimage.preprocess import FilterSpec
        from eegimage.train import load_dataset

        data, run = self.setup_dir / "data", self.round_dir / "run"
        summary = json.loads((run / "cv_summary.json").read_text())
        report = json.loads((run / "eval" / "report.json").read_text())
        errors = checks.check_kld(run / "oof_predictions.csv", data / "manifest.csv",
                                  report["mean_kld"])
        errors += checks.check_simplex(sorted(run.glob("fold*.ckpt")))
        # bandpass and gradient on the first segments of the training data
        manifest = load_manifest(data / "manifest.csv")
        manifest.entries = manifest.entries[:CHECK_SAMPLE]
        ds = load_dataset(manifest, FilterSpec(**summary["filter"]))
        errors += checks.check_bandpass(data, summary["filter"], list(range(CHECK_SAMPLE)),
                                        ds.x_uv)
        params, cfg, _ = load_checkpoint(run / "fold0.ckpt")
        cfg64 = replace(cfg, dtype="float64")
        p64 = params.copy()
        for name, arr in list(p64.named_arrays()):
            p64.set(name, arr.astype(np.float64))
        x = checks.clip_scale(ds.x_uv.astype(np.float64))
        errors += checks.check_gradient(forward_batch, backward_batch, p64, cfg64, x,
                                        ds.y, ds.n_votes, self.seed)
        return errors


class AblateSmall(Workload):
    backbone = ABLATE_BACKBONE
    variants = ("full", "no_central", "no_pretrain", "no_eeg2img")
    layers = COMMON_LAYERS + TRAINING_LAYERS + _stage_layers(3, train=True) + (
        "analysis.run_ablation.s", "cli.ablate.s")

    def setup(self):
        self.run("gen", "--out-dir", self.setup_dir / "data", "--seed", self.seed,
                 *_flags(ABLATE_GEN))

    def round(self):
        self.run.tracer.run_cv_results.clear()
        before = self.run.tracer.samples_trained
        t = self.run("ablate", "--data-dir", self.setup_dir / "data", "--out-dir",
                     self.round_dir / "ablation", "--seeds", ABLATE_SEEDS, "--seed", 0)
        samples = self.run.tracer.samples_trained - before
        return {"run_s": t, "rate": samples / t,
                "ops": ABLATE_SEEDS * len(self.variants)}

    def _rows(self) -> dict[str, list[float]]:
        rows = checks.csv_rows(self.round_dir / "ablation" / "ablation.csv")
        return {r["variant"]: [float(r[f"kld_seed{i}"]) for i in range(ABLATE_SEEDS)]
                for r in rows}

    def results(self, rounds):
        full = self._rows()["full"]
        return {"full_mean_kld": (float(np.mean(full)), "nats"),
                "train_samples_per_s": (_median(rounds, "rate"), "samples/s")}

    def check(self):
        rows = self._rows()
        _, votes, _ = checks.read_manifest(self.setup_dir / "data" / "manifest.csv")
        y = votes / votes.sum(axis=1, keepdims=True)
        cells = self.run.tracer.run_cv_results
        errors = []
        if sorted(rows) != sorted(self.variants) or len(cells) != ABLATE_SEEDS * len(self.variants):
            return [f"ablation covered {sorted(rows)} in {len(cells)} cells"]
        for j, (seed, oof) in enumerate(cells):
            tag = self.variants[j % len(self.variants)]
            errors += checks.check_probabilities(oof, f"{tag} seed {seed}",
                                                 checks.FLOAT32_SUM_TOL)
            mine = float(checks.kld_rows(y, oof).mean())
            if abs(mine - rows[tag][j // len(self.variants)]) > 1e-6:
                errors.append(f"{tag}: ablation.csv KLD {rows[tag]} vs recomputed {mine:.6f}")
        return errors


class Serve(Workload):
    layers = COMMON_LAYERS + _stage_layers(4, train=False) + (
        "model.eval_forwards_per_segment_fold", "model.load_checkpoint.ms",
        "train.ensemble_predict.s", "analysis.extract_embeddings.s", "tsne.joint_affinities.s",
        "tsne.tsne.s", "tsne.iteration_ms", "tsne.kl_objective.ms",
        "tsne.q_evaluations_per_iteration", "tsne.self_s", "cli.predict.s", "cli.tsne.s")

    def setup(self):
        train_data, run = self.setup_dir / "train_data", self.setup_dir / "run"
        self.run("gen", "--out-dir", train_data, "--seed", self.seed, *_flags(SERVE_TRAIN_GEN))
        self.run("train", "--data-dir", train_data, "--out-dir", run, "--seed", 0,
                 "--no-pretrain", *_flags(SERVE_TRAIN))
        self.run("gen", "--out-dir", self.setup_dir / "data",
                 "--seed", self.seed + SERVE_SEED_OFFSET, *_flags(SERVE_GEN))

    def round(self):
        data, run = self.setup_dir / "data", self.setup_dir / "run"
        self.run.tracer.tsne_calls.clear()
        self.round_dir.mkdir(parents=True, exist_ok=True)
        t_pred = self.run("predict", "--data-dir", data, "--run-dir", run,
                          "--out", self.round_dir / "predictions.csv")
        t_tsne = self.run("tsne", "--data-dir", data, "--run-dir", run,
                          "--out-dir", self.round_dir / "tsne")
        n = SERVE_GEN["patients"] * SERVE_GEN["segments"]
        return {"run_s": t_pred + t_tsne, "rate": n / t_pred, "ops": n,
                "tsne_s": t_tsne}

    def results(self, rounds):
        ids, probs = checks.read_predictions(self.round_dir / "predictions.csv")
        _, votes, _ = checks.read_manifest(self.setup_dir / "data" / "manifest.csv")
        y = votes / votes.sum(axis=1, keepdims=True)
        return {"served_mean_kld": (float(checks.kld_rows(y, probs).mean()), "nats"),
                "predict_segments_per_s": (_median(rounds, "rate"), "segments/s"),
                "tsne_s": (_median(rounds, "tsne_s"), "s")}

    def check(self):
        data, run = self.setup_dir / "data", self.setup_dir / "run"
        filt = json.loads((run / "cv_summary.json").read_text())["filter"]
        ckpts = sorted(run.glob("fold*.ckpt"))
        ids, probs = checks.read_predictions(self.round_dir / "predictions.csv")
        mids, _, _ = checks.read_manifest(data / "manifest.csv")
        errors = [] if ids == mids else ["predictions.csv ids do not follow the manifest"]
        errors += checks.check_probabilities(probs, "predictions.csv", 1e-9)
        errors += checks.check_simplex(ckpts)
        sample = list(range(0, len(ids), max(1, len(ids) // CHECK_SAMPLE)))[:CHECK_SAMPLE]
        errors += checks.check_forward(ckpts, data, filt, self.round_dir / "predictions.csv",
                                       sample)
        if len(self.run.tracer.tsne_calls) != 1:
            return errors + ["tsne ran other than once in the last round"]
        features, result = self.run.tracer.tsne_calls[0]
        errors += checks.check_tsne(features, result.coords, result.objective_trace,
                                    self.round_dir / "tsne" / "tsne.csv", ids)
        return errors


WORKLOADS = {"train_cv": TrainCv, "ablate_small": AblateSmall, "serve": Serve}


def _median(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def _rounds(wl: Workload, seconds: float) -> list[dict]:
    """Whole rounds, at least one, until the next would overrun ``seconds``
    of round time. ``kernel_s`` is the mean kernel time inside the round."""
    out = []
    sampler = wl.run.sampler
    while True:
        shutil.rmtree(wl.round_dir, ignore_errors=True)
        n0 = len(sampler.times)
        sampler.start()
        with wl.run.tracer.span("round"):
            r = wl.round()
        sampler.stop()
        inside = sampler.times[n0:] or [calibrate.kernel_s(CAL_S)]
        r["kernel_s"] = statistics.mean(inside)
        r["ticks"] = len(sampler.times) - n0
        out.append(r)
        if sum(r["run_s"] for r in out) + _median(out, "run_s") > seconds:
            return out


def _setups(wl: Workload, cal: list[float]) -> list[float]:
    """Wall times of ``SETUP_REPEATS`` set-ups; the calibration kernel is
    timed after each."""
    out = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(wl.setup_dir, ignore_errors=True)
        with wl.run.tracer.span("setup"):
            t0 = time.perf_counter()
            wl.setup()
            out.append(time.perf_counter() - t0)
        cal.append(calibrate.kernel_s(CAL_S))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    import eegimage.cli  # noqa: F401  (every module loads before set-up is timed)

    out = args.out
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cls = WORKLOADS[args.workload]
    tracer = Tracer({c: i for i, c in enumerate(cls.backbone)}, calibrate.Sampler())
    run = Runner(tracer, out / "cli.log")
    wl = cls(out, args.seed, run)
    traced = bool(args.trace)

    tracer.install(spans=traced)
    # the host runs slow for about a second after idling; warm it first
    calibrate.kernel_s(WARMUP_S)
    cal = [calibrate.kernel_s(CAL_S)]
    setup_times = _setups(wl, cal)

    overhead = 0.0
    if traced:
        # one round with hooks only, as the base of the tracing overhead
        tracer.install(spans=False)
        untraced = _rounds(wl, 0.0)[0]["run_s"]
        tracer.install(spans=True)
        rounds = _rounds(wl, args.seconds - untraced)
        overhead = _median(rounds, "run_s") - untraced
        tracer.install(spans=False)
    else:
        rounds = _rounds(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(r["ops"] for r in rounds)
    failed = attempted if run.failed_commands else 0
    errors = [f"command failed: {c}" for c in run.failed_commands]
    results = {}
    if not errors:
        results = wl.results(rounds)
        errors = wl.check()
    run.close()

    if traced:
        tracer.write(out / "trace.jsonl")
        metrics = tracer.layer_metrics(len(rounds), overhead)
        errors += tracer.errors()
        errors += [f"per-layer metric {name} reads 0 on a workload that runs it"
                   for name in wl.layers if not metrics[name][0] > 0]
    else:
        # times at the reference speed of the host (see calibrate.py)
        ref = calibrate.REFERENCE_S
        metrics = {
            "setup_s": (statistics.median(setup_times) * ref / statistics.median(cal), "s"),
            "run_s": (statistics.median(r["run_s"] * ref / r["kernel_s"] for r in rounds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "wall_setup_s": (statistics.median(setup_times), "s"),
            "wall_run_s": (_median(rounds, "run_s"), "s"),
            "round_kernel_ms": (1e3 * _median(rounds, "kernel_s"), "ms"),
            "kernel_calls_per_round": (_median(rounds, "ticks"), "count"),
        }
        metrics.update(results)
    for e in errors:
        print(f"CHECK FAILED [{args.workload}]: {e}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: wall times, set-up "
          + " ".join(f"{t:.3f}" for t in setup_times) + " s; rounds "
          + " ".join(f"{r['run_s']:.3f}" for r in rounds) + " s; kernel after set-ups "
          + " ".join(f"{1e3 * t:.1f}" for t in cal) + " ms, in rounds "
          + " ".join(f"{1e3 * r['kernel_s']:.1f}" for r in rounds) + " ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    gated = _gated_names(traced)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k in gated},
    }
    print(json.dumps(result))
    return 0


def _gated_names(traced: bool) -> set[str]:
    """Metric names listed in BENCHMARK.json for this mode."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
