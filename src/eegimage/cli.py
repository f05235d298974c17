"""Command-line entry point: gen / preprocess / train / evaluate / ablate /
tsne / predict.

Exit codes: 0 success, 1 data or runtime error (message on stderr), 2 usage.
Config precedence: CLI flags > --config JSON file > built-in defaults. Every
artifact embeds the run's config hash and seed (JSON field or comment line).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    emit_report,
    extract_embeddings,
    pretrain_backbone,
    run_ablation,
)
from .augment import AugmentConfig
from .data import (
    CLASS_NAMES,
    load_manifest,
    read_segments,
    read_signal,
    save_manifest,
    split_folds,
    write_signal,
)
from .metrics import evaluate, optimal_threshold, roc_curve
from .model import ModelConfig, load_checkpoint, variant_config
from .preprocess import FilterSpec, clip_scale_array, design_bandpass, filter_segment
from .synthgen import SynthConfig, generate
from .train import (
    default_stage1,
    default_stage2,
    ensemble_predict,
    export_predictions,
    load_dataset,
    load_predictions,
    run_cv,
)
from .tsne import TsneConfig, tsne
from .util import config_hash, to_jsonable

DATA_DIR_ENV = "EEGIMAGE_DATA_DIR"
log = logging.getLogger("eegimage")


def _subcommand(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, with the flags every command takes."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    p.add_argument("--seed", type=int, default=None, help="master RNG seed (default 0)")
    p.add_argument("--data-dir", type=Path, default=None,
                   help=f"dataset directory (default ${DATA_DIR_ENV} or ./data)")
    p.add_argument("--out-dir", type=Path, default=None, help="output directory")
    p.add_argument("--config", type=Path, default=None,
                   help="JSON config file; flags override its values")
    p.add_argument("-v", "--verbosity", action="count", default=0,
                   help="-v info, -vv debug")
    return p


TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
              dict: "an object"}


def _check_type(path: Path, key: str, value, default) -> None:
    """A config file value must have its default's JSON type, so a bool is
    no int; an int also passes for a float, and backbone may be a list of ints."""
    kinds = (int, float) if type(default) is float else (type(default),)
    ok = type(value) in kinds
    if key == "backbone" and type(value) is list:
        ok = all(type(v) is int for v in value)
    if not ok:
        want = TYPE_NAMES[type(default)] + (" or a list of integers" if key == "backbone" else "")
        raise ValueError(f"{path}: {key} must be {want}, got {json.dumps(value)}")


def _add_training(p: argparse.ArgumentParser) -> None:
    """The flags train and ablate share."""
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--stage1-epochs", dest="stage1_epochs", type=int, default=None)
    p.add_argument("--stage2-epochs", dest="stage2_epochs", type=int, default=None)
    p.add_argument("--backbone", type=str, default=None,
                   help="comma-separated stage widths, e.g. 16,32,64,128")
    p.add_argument("--no-pretrain", dest="pretrain", action="store_false", default=None)
    p.add_argument("--no-augment", dest="augment", action="store_false", default=None)


def _effective(args: argparse.Namespace, defaults: dict) -> dict:
    """flags > config file > defaults. Each config file value must have its
    default's type."""
    merged = dict(defaults)
    if args.config is not None:
        with open(args.config) as f:
            try:
                file_cfg = json.load(f)
            except json.JSONDecodeError as e:
                raise ValueError(f"{args.config}: not JSON: {e}") from None
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys in {args.config}: {sorted(unknown)}")
        for k, v in file_cfg.items():
            _check_type(args.config, k, v, defaults[k])
        merged.update(file_cfg)
    for k in defaults:
        v = getattr(args, k, None)
        if v is not None:
            merged[k] = v
    return merged


def _data_dir(args) -> Path:
    if args.data_dir is not None:
        return args.data_dir
    env = os.environ.get(DATA_DIR_ENV)
    return Path(env) if env else Path("data")


def _setup_logging(verbosity: int) -> None:
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr, force=True)


GEN_DEFAULTS = dict(patients=60, segments=20, fs=100.0, duration=10.0,
                    label_noise=0.1, noise_rms=15.0, seed=0)


def cmd_gen(args) -> int:
    cfg_d = _effective(args, GEN_DEFAULTS)
    out = args.out_dir or _data_dir(args)
    cfg = SynthConfig(
        n_patients=cfg_d["patients"],
        segments_per_patient=cfg_d["segments"],
        fs=cfg_d["fs"],
        t_total_s=cfg_d["duration"],
        label_noise=cfg_d["label_noise"],
        noise_rms_uv=cfg_d["noise_rms"],
        seed=cfg_d["seed"],
    )
    h = config_hash(cfg)
    comment = f"config_hash={h} seed={cfg.seed}"
    generate(cfg, out, header_comment=comment)
    with open(Path(out) / "gen_meta.json", "w") as f:
        json.dump({"config": to_jsonable(cfg), "config_hash": h, "seed": cfg.seed},
                  f, sort_keys=True, indent=1)
        f.write("\n")
    log.info("generated %d patients x %d segments into %s",
             cfg.n_patients, cfg.segments_per_patient, out)
    return 0


PREPROCESS_DEFAULTS = dict(seed=0, filter_mode="zero_phase", low_hz=0.5,
                           high_hz=45.0, order=3)


def cmd_preprocess(args) -> int:
    cfg_d = _effective(args, PREPROCESS_DEFAULTS)
    data = _data_dir(args)
    out = args.out_dir
    if out is None:
        raise ValueError("preprocess requires --out-dir")
    out = Path(out)
    manifest = load_manifest(data / "manifest.csv")
    # every segment is checked against the first before anything is written
    segs = list(read_segments(manifest))
    spec = FilterSpec(fs=segs[0].fs, order=cfg_d["order"], low_hz=cfg_d["low_hz"],
                      high_hz=cfg_d["high_hz"], mode=cfg_d["filter_mode"])
    sos = design_bandpass(spec)
    (out / "signals").mkdir(parents=True, exist_ok=True)
    for e, seg in zip(manifest.entries, segs):
        write_signal(out / e.path, filter_segment(seg, spec, sos))
    h = config_hash(spec)
    comment = f"config_hash={h} seed={cfg_d['seed']}"
    save_manifest(manifest, out / "manifest.csv", header_comment=comment)
    with open(out / "preprocess_meta.json", "w") as f:
        json.dump({"filter": to_jsonable(spec), "config_hash": h,
                   "seed": cfg_d["seed"]}, f, sort_keys=True, indent=1)
        f.write("\n")
    return 0


TRAIN_DEFAULTS = dict(
    seed=0, folds=5, variant="full",
    stage1_epochs=15, stage2_epochs=5, batch_size=32,
    lr1=1e-3, lr2=3e-4, dropout=0.2, row_layout="channel_major",
    backbone="16,32,64,128", pretrain=True, augment=True,
    filter_mode="zero_phase",
)


def _backbone_tuple(s) -> tuple[int, ...]:
    if isinstance(s, (list, tuple)):
        return tuple(int(v) for v in s)
    return tuple(int(v) for v in str(s).split(","))


def _training_setup(args, defaults: dict, variant: str | None = None):
    """Merged config, manifest, (model_cfg, stage1, stage2, aug, filt) for
    `variant` (the config's own when None) and the filtered dataset; the
    bandpass takes fs from the first segment."""
    cfg_d = _effective(args, defaults)
    manifest = load_manifest(_data_dir(args) / "manifest.csv")
    fs = read_signal(manifest.segment_path(manifest.entries[0])).fs
    model_cfg = variant_config(
        ModelConfig(
            backbone_channels=_backbone_tuple(cfg_d["backbone"]),
            dropout_rate=cfg_d["dropout"],
            row_layout=cfg_d["row_layout"],
            pretrained=cfg_d["pretrain"],
        ),
        variant or cfg_d["variant"],
    )
    stage1 = default_stage1(lr_base=cfg_d["lr1"], epochs=cfg_d["stage1_epochs"],
                            batch_size=cfg_d["batch_size"])
    stage2 = default_stage2(lr_base=cfg_d["lr2"], epochs=cfg_d["stage2_epochs"],
                            batch_size=cfg_d["batch_size"])
    aug = AugmentConfig() if cfg_d["augment"] else None
    filt = FilterSpec(fs=fs, mode=cfg_d["filter_mode"])
    log.info("loading and filtering %d segments", len(manifest))
    return cfg_d, manifest, (model_cfg, stage1, stage2, aug, filt), load_dataset(manifest, filt)


def cmd_train(args) -> int:
    # every input is validated before the output directory is made
    cfg_d, manifest, (model_cfg, stage1, stage2, aug, filt), ds = _training_setup(
        args, TRAIN_DEFAULTS)
    out = Path(args.out_dir or "runs/train")
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg_d["seed"]
    run_hash = config_hash({"model": to_jsonable(model_cfg),
                            "stage1": to_jsonable(stage1),
                            "stage2": to_jsonable(stage2),
                            "filter": to_jsonable(filt)})
    comment = f"config_hash={run_hash} seed={seed}"

    backbone = None
    if model_cfg.pretrained:
        log.info("pretraining backbone on the grating pretext")
        cw, cb, acc = pretrain_backbone(model_cfg, seed)
        backbone = (cw, cb)
        log.info("pretext held-out accuracy %.3f", acc)

    with open(out / "progress.jsonl", "w") as progress:
        def plog(rec):
            progress.write(json.dumps(rec, sort_keys=True) + "\n")
            log.info("fold %s stage %s epoch %s: train %.4f val %.4f",
                     rec.get("fold"), rec.get("stage"), rec.get("epoch"),
                     rec.get("train_loss"), rec.get("val_loss"))

        cv = run_cv(manifest, ds, model_cfg, stage1, stage2, aug,
                    k=cfg_d["folds"], seed=seed, out_dir=out, log=plog,
                    pretrained_backbone=backbone)

    export_predictions(out / "oof_predictions.csv", ds.segment_ids, cv.oof_probs,
                       header_comment=comment)
    summary = {
        "config_hash": run_hash,
        "seed": seed,
        "k": cfg_d["folds"],
        "variant": cfg_d["variant"],
        "model": to_jsonable(model_cfg),
        "stage1": to_jsonable(stage1),
        "stage2": to_jsonable(stage2),
        "filter": to_jsonable(filt),
        "fold_val_loss": cv.fold_val_losses(),
        "fold_sizes": cv.fold_assignment.fold_sizes(),
        "n_segments": len(ds),
    }
    with open(out / "cv_summary.json", "w") as f:
        json.dump(summary, f, sort_keys=True, indent=1)
        f.write("\n")
    print(f"out-of-fold predictions and {cfg_d['folds']} checkpoints in {out}")
    return 0


def cmd_evaluate(args) -> int:
    run_dir = Path(args.run_dir)
    out = Path(args.out_dir or run_dir / "eval")
    manifest = load_manifest(_data_dir(args) / "manifest.csv")
    summary = _read_summary(run_dir)
    k, seed = summary["k"], summary["seed"]
    pred_path = run_dir / "oof_predictions.csv"
    ids, probs = load_predictions(pred_path)
    expected = [e.segment_id for e in manifest.entries]
    if ids != expected:  # None stands for a row past the end of the shorter list
        i, got, want = next((i, a, b) for i, (a, b) in
                            enumerate(zip(ids + [None], expected + [None])) if a != b)
        raise ValueError(f"{pred_path}: prediction row {i + 1} is segment {got!r}, "
                         f"the manifest lists {want!r}")
    folds = split_folds(manifest, k=k, seed=seed)
    fold_of_sample = np.array([folds.fold_of_patient[e.patient_id]
                               for e in manifest.entries])
    consensus = manifest.consensus_labels()
    report = evaluate(manifest.soft_labels(), probs, consensus, fold_of_sample,
                      [e.patient_id for e in manifest.entries])
    roc_points = {}
    for c, name in enumerate(CLASS_NAMES):
        try:
            fpr, tpr, thr = roc_curve(consensus, probs[:, c], c)
        except ValueError:
            continue
        roc_points[name] = (fpr, tpr, thr, optimal_threshold(fpr, tpr, thr))
    comment = f"config_hash={summary['config_hash']} seed={seed}"
    emit_report(out, report=report, roc_points=roc_points, comment=comment)
    print(f"mean KLD {report.mean_kld:.4f}, consensus accuracy "
          f"{report.consensus_accuracy:.3f}; report in {out}")
    return 0


# defaults follow the short schedule validated on the high-noise synthetic set
ABLATE_DEFAULTS = dict(
    seed=0, seeds=5, folds=3, stage1_epochs=6, stage2_epochs=2, batch_size=16,
    lr1=1e-3, lr2=3e-4, dropout=0.2, row_layout="channel_major",
    backbone="8,16,32", pretrain=True, augment=True, filter_mode="zero_phase",
    variants=",".join(("full", "no_central", "no_pretrain", "no_eeg2img")),
)


def cmd_ablate(args) -> int:
    cfg_d, manifest, (model_cfg, stage1, stage2, aug, _), ds = _training_setup(
        args, ABLATE_DEFAULTS, variant="full")
    out = Path(args.out_dir or "runs/ablation")
    seeds = [cfg_d["seed"] + i for i in range(cfg_d["seeds"])]
    variants = tuple(str(cfg_d["variants"]).split(","))
    rows = run_ablation(manifest, ds, model_cfg, stage1, stage2, aug,
                        seeds=seeds, k=cfg_d["folds"], variants=variants,
                        log=lambda rec: log.info("epoch %s", json.dumps(rec, sort_keys=True)))
    run_hash = config_hash({"model": to_jsonable(model_cfg),
                            "stage1": to_jsonable(stage1),
                            "stage2": to_jsonable(stage2),
                            "seeds": seeds})
    comment = f"config_hash={run_hash} seed={cfg_d['seed']}"
    emit_report(out, ablation_rows=rows, comment=comment)
    for r in rows:
        p = "" if r.p_vs_full is None else f"  p={r.p_vs_full:.4g}"
        print(f"{r.variant:12s} mean KLD {r.mean_kld:.4f}{p}")
    return 0


TSNE_DEFAULTS = dict(seed=0, perplexity=30.0, iterations=1000, use_probs=False)


def cmd_tsne(args) -> int:
    cfg_d = _effective(args, TSNE_DEFAULTS)
    out = Path(args.out_dir or Path(args.run_dir) / "eval")
    manifest, param_sets, _, ds, x_scaled = _load_run(args)
    emb = extract_embeddings(param_sets, x_scaled, use_probs=cfg_d["use_probs"])
    cfg = TsneConfig(perplexity=cfg_d["perplexity"], iterations=cfg_d["iterations"],
                     seed=cfg_d["seed"])
    result = tsne(emb, cfg)
    comment = f"config_hash={config_hash(cfg)} seed={cfg_d['seed']}"
    emit_report(out, tsne_data=(result.coords, manifest.consensus_labels(),
                                ds.segment_ids), comment=comment)
    print(f"t-SNE coordinates for {len(ds)} segments in {out}")
    return 0


SUMMARY_FIELDS = {"k": int, "seed": int, "config_hash": str, "filter": dict}


def _read_summary(run_dir: Path) -> dict:
    """cv_summary.json, checked for the fields evaluate, predict and tsne read."""
    path = run_dir / "cv_summary.json"
    with open(path) as f:
        try:
            summary = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not JSON: {e}") from None
    for name, kind in SUMMARY_FIELDS.items():
        if not isinstance(summary, dict) or type(summary.get(name)) is not kind:
            raise ValueError(f"{path}: field {name!r} is missing or not {TYPE_NAMES[kind]}")
    return summary


def _load_fold_models(run_dir: Path):
    ckpts = sorted(run_dir.glob("fold*.ckpt"))
    if not ckpts:
        raise FileNotFoundError(f"no fold checkpoints under {run_dir}")
    sets = []
    for c in ckpts:
        params, cfg, _ = load_checkpoint(c)
        if sets and cfg != sets[0][1]:
            first = sets[0][1]
            fields = [f.name for f in dataclasses.fields(cfg)
                      if getattr(cfg, f.name) != getattr(first, f.name)]
            raise ValueError(f"{c}: model config differs from {ckpts[0]} "
                             f"in {', '.join(fields)}")
        sets.append((params, cfg))
    return sets


PREDICT_DEFAULTS = dict(seed=0)


def _load_run(args):
    """Manifest, fold models, cv_summary.json and the dataset filtered with
    the run's recorded bandpass, so serving filters as training did; also
    the segments scaled for the model."""
    run_dir = Path(args.run_dir)
    manifest = load_manifest(_data_dir(args) / "manifest.csv")
    param_sets = _load_fold_models(run_dir)
    summary = _read_summary(run_dir)
    try:
        filt = FilterSpec(**summary["filter"])
    except (TypeError, ValueError) as e:
        raise ValueError(f"{run_dir / 'cv_summary.json'}: field 'filter': {e}") from None
    ds = load_dataset(manifest, filt)
    return manifest, param_sets, summary, ds, clip_scale_array(ds.x_uv)


def cmd_predict(args) -> int:
    cfg_d = _effective(args, PREDICT_DEFAULTS)
    out_path = Path(args.out or "predictions.csv")
    _, param_sets, summary, ds, x_scaled = _load_run(args)
    probs = ensemble_predict(param_sets, x_scaled)
    comment = f"config_hash={summary['config_hash']} seed={cfg_d['seed']}"
    export_predictions(out_path, ds.segment_ids, probs, header_comment=comment)
    print(f"wrote {len(ds)} ensemble predictions to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eegimage",
        description="EEG harmful-activity classification via learned "
                    "signal-to-image embedding",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "gen", cmd_gen, help="generate a synthetic labeled dataset")
    p.add_argument("--patients", type=int, default=None)
    p.add_argument("--segments", type=int, default=None, help="segments per patient")
    p.add_argument("--fs", type=float, default=None, help="sampling rate Hz")
    p.add_argument("--duration", type=float, default=None, help="segment seconds")
    p.add_argument("--label-noise", dest="label_noise", type=float, default=None)
    p.add_argument("--noise-rms", dest="noise_rms", type=float, default=None,
                   help="sensor pink-noise RMS in microvolts")

    p = _subcommand(sub, "preprocess", cmd_preprocess, help="bandpass-filter a dataset in place")
    p.add_argument("--filter-mode", dest="filter_mode",
                   choices=("zero_phase", "causal"), default=None)
    p.add_argument("--low-hz", dest="low_hz", type=float, default=None)
    p.add_argument("--high-hz", dest="high_hz", type=float, default=None)
    p.add_argument("--order", type=int, default=None)

    p = _subcommand(sub, "train", cmd_train, help="two-stage k-fold cross-validated training")
    _add_training(p)
    p.add_argument("--variant", choices=("full", "no_central", "no_pretrain",
                                         "no_eeg2img"), default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr1", type=float, default=None, help="stage-1 base lr")
    p.add_argument("--lr2", type=float, default=None, help="stage-2 base lr")
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--row-layout", dest="row_layout",
                   choices=("channel_major", "kernel_major"), default=None)
    p.add_argument("--filter-mode", dest="filter_mode",
                   choices=("zero_phase", "causal"), default=None)

    p = _subcommand(sub, "evaluate", cmd_evaluate, help="metrics report from a training run")
    p.add_argument("--run-dir", type=Path, required=True)

    p = _subcommand(sub, "ablate", cmd_ablate, help="retrain component-removal variants")
    _add_training(p)
    p.add_argument("--seeds", type=int, default=None, help="number of seeds")
    p.add_argument("--variants", type=str, default=None,
                   help="comma-separated subset of "
                        "full,no_central,no_pretrain,no_eeg2img")

    p = _subcommand(sub, "tsne", cmd_tsne, help="2-D embedding of model outputs")
    p.add_argument("--run-dir", type=Path, required=True)
    p.add_argument("--perplexity", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--use-probs", dest="use_probs", action="store_true",
                   default=None)

    p = _subcommand(sub, "predict", cmd_predict, help="fold-ensemble inference to CSV")
    p.add_argument("--run-dir", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None, help="output CSV path")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    _setup_logging(args.verbosity)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, RuntimeError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
