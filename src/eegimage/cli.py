"""Command-line entry point: gen / preprocess / train / evaluate / ablate /
tsne / predict.

Exit codes: 0 success, 1 data or runtime error (message on stderr), 2 usage.
Config precedence: CLI flags > --config JSON file > built-in defaults. Every
artifact embeds the run's config hash and seed (JSON field or comment line).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
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
    DatasetManifest,
    load_manifest,
    read_signal,
    save_manifest,
    split_folds,
    write_signal,
)
from .metrics import evaluate
from .model import (ModelConfig, central_cone, checkpoint_sidecar, load_checkpoint,
                    variant_config)
from .preprocess import PREPROCESS_META, FilterSpec
from .synthgen import SynthConfig, generate
from .train import (
    PREDICT_BATCH,
    RunRecord,
    default_stage1,
    default_stage2,
    ensemble_predict,
    export_predictions,
    load_dataset,
    load_predictions,
    predict_batched,
    run_cv,
)
from .tsne import TsneConfig, tsne
from .util import (TYPE_NAMES, _pin_malloc_thresholds, from_jsonable, read_json_object,
                   read_record, stamp, write_record)

DATA_DIR_ENV = "EEGIMAGE_DATA_DIR"
log = logging.getLogger("eegimage")


def _subcommand(sub, name: str, func, help: str, configurable: bool = True,
                writes_dir: bool = True) -> argparse.ArgumentParser:
    """The parser of one subcommand, with the flags every command takes,
    --seed and --config for a command that reads a config, and --out-dir for
    a command that writes a directory."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    if configurable:
        p.add_argument("--seed", type=int, default=None, help="master RNG seed (default 0)")
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file; flags override its values")
    p.add_argument("--data-dir", type=Path, default=None,
                   help=f"dataset directory (default ${DATA_DIR_ENV} or ./data)")
    if writes_dir:
        p.add_argument("--out-dir", type=Path, default=None, help="output directory")
    p.add_argument("-v", "--verbosity", action="count", default=0,
                   help="-v info, -vv debug")
    return p


def _check_type(path: Path, key: str, value, default):
    """A config file value read as its default's type by the records' own
    reader, so a bool is no int and an int becomes a float where the default
    is one; backbone may also be a list of ints."""
    kind = tuple[int, ...] if key == "backbone" and type(value) is list else type(default)
    try:
        return from_jsonable(kind, value)
    except ValueError:
        want = TYPE_NAMES[type(default)] + (" or a list of integers" if key == "backbone" else "")
        raise ValueError(f"{path}: {key} must be {want}, got {json.dumps(value)}") from None


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
        file_cfg = read_json_object(args.config)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys in {args.config}: {sorted(unknown)}")
        merged.update({k: _check_type(args.config, k, v, defaults[k])
                       for k, v in file_cfg.items()})
    merged.update({k: v for k in defaults if (v := getattr(args, k, None)) is not None})
    return merged


def _data_dir(args) -> Path:
    return args.data_dir or Path(os.environ.get(DATA_DIR_ENV) or "data")


def _setup_logging(verbosity: int) -> None:
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr, force=True)


def _field_defaults(kind: type, names: dict[str, str]) -> dict:
    """Each config key's default: the default of the `kind` field it names."""
    fields = {f.name: f.default for f in dataclasses.fields(kind)}
    return {key: fields[name] for key, name in names.items()}


# gen's config keys and the SynthConfig fields they set
GEN_FIELDS = dict(patients="n_patients", segments="segments_per_patient", fs="fs",
                  duration="t_total_s", label_noise="label_noise",
                  noise_rms="noise_rms_uv", seed="seed")
GEN_DEFAULTS = _field_defaults(SynthConfig, GEN_FIELDS)


def cmd_gen(args) -> int:
    cfg_d = _effective(args, GEN_DEFAULTS)
    out = args.out_dir or _data_dir(args)
    cfg = SynthConfig(**{name: cfg_d[key] for key, name in GEN_FIELDS.items()})
    generate(cfg, out, header_comment=stamp(cfg, cfg.seed))
    write_record(Path(out) / "gen_meta.json", cfg, "config", seed=cfg.seed)
    log.info("generated %d patients x %d segments into %s",
             cfg.n_patients, cfg.segments_per_patient, out)
    return 0


PREPROCESS_DEFAULTS = {"seed": 0, **_field_defaults(
    FilterSpec, dict(filter_mode="mode", low_hz="low_hz", high_hz="high_hz", order="order"))}


def cmd_preprocess(args) -> int:
    cfg_d = _effective(args, PREPROCESS_DEFAULTS)
    out = args.out_dir
    if out is None:
        raise ValueError("preprocess requires --out-dir")
    manifest = load_manifest(_data_dir(args) / "manifest.csv")
    first = read_signal(manifest.segment_path(manifest.entries[0]))
    spec = FilterSpec(fs=first.fs, order=cfg_d["order"], low_hz=cfg_d["low_hz"],
                      high_hz=cfg_d["high_hz"], mode=cfg_d["filter_mode"])
    # every segment is checked against the first, and a directory this command
    # wrote is copied, or refused under another spec, before anything is written
    ds = load_dataset(manifest, spec)
    (out / "signals").mkdir(parents=True, exist_ok=True)
    for e, x in zip(manifest.entries, ds.x_uv):
        write_signal(out / e.path, dataclasses.replace(
            first, samples=x, segment_id=e.segment_id, recording_id=e.recording_id,
            patient_id=e.patient_id))
    save_manifest(manifest, out / "manifest.csv", header_comment=stamp(spec, cfg_d["seed"]))
    write_record(out / PREPROCESS_META, spec, "filter", seed=cfg_d["seed"])
    return 0


TRAIN_DEFAULTS = dict(
    seed=0, folds=5, variant="full",
    stage1_epochs=15, stage2_epochs=5, batch_size=32,
    lr1=1e-3, lr2=3e-4, dropout=0.2, row_layout="channel_major",
    backbone="16,32,64,128", pretrain=True, augment=True,
    filter_mode="zero_phase",
)


def _backbone_tuple(s) -> tuple[int, ...]:
    """A flag's or default's "16,32" as ints; a config file's list is read as a tuple."""
    return s if isinstance(s, tuple) else tuple(int(v) for v in s.split(","))


def _check_fits_model(path: Path, shape: tuple[int, int], cfg: ModelConfig) -> None:
    """Fail, naming the segment file, its channel or sample count and the
    field to change, when the model cannot run on segments of shape
    (channels, samples)."""
    n_ch, t = shape
    if n_ch != cfg.n_channels:
        raise ValueError(f"{path}: {n_ch} channels, the model's n_channels is "
                         f"{cfg.n_channels}")
    try:
        width = cfg.image_width(t)
    except ValueError:
        raise ValueError(f"{path}: {t} samples are not a multiple of the embedding "
                         f"stride {cfg.stride}") from None
    if cfg.pool_full_width:
        return
    try:
        central_cone(width, len(cfg.backbone_channels), cfg.conv_kernel, cfg.conv_stride,
                     cfg.central_fraction)
    except ValueError as e:
        spec = ",".join(map(str, cfg.backbone_channels))
        raise ValueError(f"{path}: {t} samples are too short for backbone {spec} "
                         f"({e}); give `backbone` fewer stages or use longer "
                         f"segments") from None


def _training_setup(args, defaults: dict, variant: str | None = None):
    """Merged config, the run's record for `variant` (the config's own when
    None) and the filtered dataset; the bandpass takes fs from the first
    segment, and the record's model must fit its shape before anything is
    loaded."""
    cfg_d = _effective(args, defaults)
    manifest = load_manifest(_data_dir(args) / "manifest.csv")
    first_path = manifest.segment_path(manifest.entries[0])
    first = read_signal(first_path)
    variant = variant or cfg_d["variant"]
    record = RunRecord(
        model=variant_config(
            ModelConfig(
                backbone_channels=_backbone_tuple(cfg_d["backbone"]),
                dropout_rate=cfg_d["dropout"],
                row_layout=cfg_d["row_layout"],
                pretrained=cfg_d["pretrain"],
            ),
            variant,
        ),
        stage1=default_stage1(lr_base=cfg_d["lr1"], epochs=cfg_d["stage1_epochs"],
                              batch_size=cfg_d["batch_size"]),
        stage2=default_stage2(lr_base=cfg_d["lr2"], epochs=cfg_d["stage2_epochs"],
                              batch_size=cfg_d["batch_size"]),
        augment=AugmentConfig() if cfg_d["augment"] else None,
        filter=FilterSpec(fs=first.fs, mode=cfg_d["filter_mode"]),
        k=cfg_d["folds"],
        seed=cfg_d["seed"],
        variant=variant,
    )
    _check_fits_model(first_path, first.samples.shape, record.model)
    log.info("loading and filtering %d segments", len(manifest))
    return cfg_d, record, load_dataset(manifest, record.filter)


def _stamp(rec: RunRecord, seed: int | None = None, **scope) -> str:
    """The stamp of an artifact of run `rec`: the record's hash, or with
    `scope` (what else the artifact depends on) the hash of the record nested
    beside it; and the record's seed unless `seed` is given."""
    return stamp({"run": rec, **scope} if scope else rec, rec.seed if seed is None else seed)


def cmd_train(args) -> int:
    # every input is validated before the output directory is made
    _, rec, ds = _training_setup(args, TRAIN_DEFAULTS)
    out = Path(args.out_dir or "runs/train")
    out.mkdir(parents=True, exist_ok=True)

    backbone = None
    if rec.model.pretrained:
        log.info("pretraining backbone on the grating pretext")
        backbone, acc = pretrain_backbone(rec.model, rec.seed)
        log.info("pretext held-out accuracy %.3f", acc)

    with open(out / "progress.jsonl", "w") as progress:
        def plog(r):
            progress.write(json.dumps(r, sort_keys=True) + "\n")
            log.info("fold %s stage %s epoch %s: train %.4f val %.4f",
                     r.get("fold"), r.get("stage"), r.get("epoch"),
                     r.get("train_loss"), r.get("val_loss"))

        cv = run_cv(ds, rec.model, rec.stage1, rec.stage2, rec.augment,
                    k=rec.k, seed=rec.seed, out_dir=out, log=plog, backbone=backbone)

    export_predictions(out / "oof_predictions.csv", ds.segment_ids, cv.oof_probs,
                       header_comment=_stamp(rec))
    write_record(out / "cv_summary.json", rec, fold_val_loss=cv.fold_val_losses(),
                 fold_sizes=cv.fold_assignment.fold_sizes(), n_segments=len(ds))
    print(f"out-of-fold predictions and {rec.k} checkpoints in {out}")
    return 0


def cmd_evaluate(args) -> int:
    run_dir = Path(args.run_dir)
    out = Path(args.out_dir or run_dir / "eval")
    manifest = load_manifest(_data_dir(args) / "manifest.csv")
    rec = _read_summary(run_dir)
    pred_path = run_dir / "oof_predictions.csv"
    ids, probs = load_predictions(pred_path)
    expected = [e.segment_id for e in manifest.entries]
    if ids != expected:  # None stands for a row past the end of the shorter list
        i, got, want = next((i, a, b) for i, (a, b) in
                            enumerate(zip(ids + [None], expected + [None])) if a != b)
        raise ValueError(f"{pred_path}: prediction row {i + 1} is segment {got!r}, "
                         f"the manifest lists {want!r}")
    folds = split_folds(manifest, k=rec.k, seed=rec.seed)
    fold_of_sample = np.array([folds.fold_of_patient[e.patient_id]
                               for e in manifest.entries])
    report = evaluate(manifest.soft_labels(), probs, manifest.consensus_labels(),
                      fold_of_sample, [e.patient_id for e in manifest.entries])
    emit_report(out, report=report, comment=_stamp(rec))
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
    cfg_d, rec, ds = _training_setup(args, ABLATE_DEFAULTS, variant="full")
    out = Path(args.out_dir or "runs/ablation")
    seeds = [rec.seed + i for i in range(cfg_d["seeds"])]
    variants = tuple(str(cfg_d["variants"]).split(","))
    rows = run_ablation(ds, rec.model, rec.stage1, rec.stage2, rec.augment,
                        seeds=seeds, k=rec.k, variants=variants,
                        log=lambda r: log.info("epoch %s", json.dumps(r, sort_keys=True)))
    emit_report(out, ablation_rows=rows, comment=_stamp(rec, seeds=seeds, variants=variants))
    for r in rows:
        p = "" if r.p_vs_full is None else f"  p={r.p_vs_full:.4g}"
        print(f"{r.variant:12s} mean KLD {r.mean_kld:.4f}{p}")
    return 0


TSNE_DEFAULTS = {**_field_defaults(TsneConfig, dict(seed="seed", perplexity="perplexity",
                                                   iterations="iterations")),
                 "use_probs": False}
TSNE_TRACE_EVERY = 50  # the objective is evaluated only for the printed summary


def cmd_tsne(args) -> int:
    cfg_d = _effective(args, TSNE_DEFAULTS)
    cfg = TsneConfig(perplexity=cfg_d["perplexity"], iterations=cfg_d["iterations"],
                     seed=cfg_d["seed"])
    run_dir = Path(args.run_dir)
    out = Path(args.out_dir or run_dir / "eval")
    manifest, rec, ckpts, inputs = _load_run(args)
    emb = None if cfg_d["use_probs"] else _served_features(run_dir, inputs, len(manifest))
    if emb is None:
        log.info("computing the served %s", "probabilities" if cfg_d["use_probs"] else
                 f"features: {run_dir / SERVED_FEATURES} is missing or not of these inputs")
        emb = extract_embeddings(*_serve(manifest, rec, ckpts), use_probs=cfg_d["use_probs"])
    else:
        log.info("reusing the served features in %s", run_dir / SERVED_FEATURES)
    result = tsne(emb, cfg, trace_every=TSNE_TRACE_EVERY)
    ids = [e.segment_id for e in manifest.entries]
    emit_report(out, tsne_data=(result.coords, manifest.consensus_labels(), ids),
                comment=_stamp(rec, cfg.seed, tsne=cfg))
    trace = result.objective_trace
    print(f"KL {trace[0]:.2f} -> {trace[-1]:.2f} over {cfg.iterations} iterations")
    print(f"t-SNE coordinates for {len(ids)} segments in {out}")
    return 0


def _read_summary(run_dir: Path) -> RunRecord:
    """The run's record from cv_summary.json, checked against its config_hash."""
    return read_record(run_dir / "cv_summary.json", RunRecord)[0]


def _load_run(args):
    """Manifest, the run's record, its fold checkpoints, and every file a
    served pass reads, in the order it reads them: cv_summary.json, each
    fold checkpoint and its sidecar, the manifest and each segment it lists.
    The record's model must fit the served set's first segment (see
    :func:`_check_fits_model`); no checkpoint is loaded here."""
    run_dir = Path(args.run_dir)
    manifest_path = _data_dir(args) / "manifest.csv"
    manifest = load_manifest(manifest_path)
    ckpts = sorted(run_dir.glob("fold*.ckpt"))
    if not ckpts:
        raise FileNotFoundError(f"no fold checkpoints under {run_dir}")
    rec = _read_summary(run_dir)
    first = manifest.segment_path(manifest.entries[0])
    _check_fits_model(first, read_signal(first).samples.shape, rec.model)
    inputs = [run_dir / "cv_summary.json", *(p for c in ckpts for p in (c, checkpoint_sidecar(c))),
              manifest_path, *(manifest.segment_path(e) for e in manifest.entries)]
    return manifest, rec, ckpts, inputs


def _serve(manifest: DatasetManifest, rec: RunRecord, ckpts: list[Path]):
    """The fold models' (probabilities, features) of the served set, as
    predict_batched(x_uv, models) returns them for the whole set. Every
    checkpoint must have the run record's model config. The set is loaded
    PREDICT_BATCH segments at a time and filtered with the record's
    bandpass, so serving filters as training did; each block is freed
    before the next is loaded, so serving holds one, not the whole set.
    Every segment must have the set's first segment's shape; the first that
    does not fails naming its file, as a whole-set load would."""
    models = []
    for c in ckpts:
        params, cfg, _ = load_checkpoint(c)
        if cfg != rec.model:
            fields = [f.name for f in dataclasses.fields(cfg)
                      if getattr(cfg, f.name) != getattr(rec.model, f.name)]
            raise ValueError(f"{c}: model config differs from the run's "
                             f"{c.parent / 'cv_summary.json'} in {', '.join(fields)}")
        models.append((params, cfg))
    _pin_malloc_thresholds()  # each block frees its arrays before the next
    first, blocks = None, []
    for i in range(0, len(manifest), PREDICT_BATCH):
        block = DatasetManifest(manifest.entries[i : i + PREDICT_BATCH], manifest.root)
        x_uv = load_dataset(block, rec.filter, first).x_uv
        first = first or (manifest.segment_path(manifest.entries[0]), x_uv.shape[1:])
        blocks.append(predict_batched(x_uv, models))
        del x_uv  # else it is alive while the next block loads
    probs, feats = ([np.concatenate(f) for f in zip(*outs)] for outs in zip(*blocks))
    return probs, feats


# what predict leaves in the run dir for tsne: the served set's fold-averaged
# features, and the sidecar that says which inputs they are of
SERVED_FEATURES = "served_features.npy"
SERVED_FEATURES_SIDECAR = "served_features.json"


def _input_digest(paths: list[Path]) -> str:
    """One sha256 over the size and bytes of each file in turn: the inputs
    of a served pass by content, not by name or mtime."""
    h = hashlib.sha256()
    for p in paths:
        data = p.read_bytes()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def _sidecar_of(npy_sha256: str, inputs: list[Path], rows: int) -> dict:
    """The sidecar of a features file of this hash, of these inputs' rows."""
    return {"input_sha256": _input_digest(inputs), "npy_sha256": npy_sha256, "rows": rows}


def _save_served_features(run_dir: Path, inputs: list[Path], features: np.ndarray) -> None:
    """np.save features to run_dir's SERVED_FEATURES, then write its sidecar.
    The first OSError is logged as a warning naming the file and ends the
    writing, not the command."""
    buf = io.BytesIO()
    np.save(buf, features)
    data = buf.getvalue()
    path = run_dir / SERVED_FEATURES
    try:
        path.write_bytes(data)
        path = run_dir / SERVED_FEATURES_SIDECAR
        path.write_text(json.dumps(_sidecar_of(hashlib.sha256(data).hexdigest(), inputs,
                                               len(features)), sort_keys=True, indent=1) + "\n")
    except OSError as e:
        log.warning("could not write %s (%s); tsne will recompute the served features", path, e)


def _served_features(run_dir: Path, inputs: list[Path], rows: int) -> np.ndarray | None:
    """The features predict left in run_dir, when its sidecar is the one
    predict would write now: the digest of these inputs, `rows` rows and the
    .npy file's own sha256; else None."""
    try:
        sidecar = json.loads((run_dir / SERVED_FEATURES_SIDECAR).read_text())
        data = (run_dir / SERVED_FEATURES).read_bytes()
    except (OSError, ValueError):
        return None
    if sidecar != _sidecar_of(hashlib.sha256(data).hexdigest(), inputs, rows):
        return None
    return np.load(io.BytesIO(data))


def cmd_predict(args) -> int:
    """Ensemble probabilities of the served set to --out; its fold-averaged
    features go to the run dir, for tsne to reuse."""
    out_path = Path(args.out or "predictions.csv")
    manifest, rec, ckpts, inputs = _load_run(args)
    probs, feats = _serve(manifest, rec, ckpts)
    _save_served_features(Path(args.run_dir), inputs, extract_embeddings(probs, feats))
    ids = [e.segment_id for e in manifest.entries]
    export_predictions(out_path, ids, ensemble_predict(probs), header_comment=_stamp(rec))
    print(f"wrote {len(ids)} ensemble predictions to {out_path}")
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

    p = _subcommand(sub, "preprocess", cmd_preprocess,
                    help="write a bandpass-filtered copy of a dataset to --out-dir")
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

    p = _subcommand(sub, "evaluate", cmd_evaluate, help="metrics report from a training run",
                    configurable=False)
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

    p = _subcommand(sub, "predict", cmd_predict, help="fold-ensemble inference to CSV",
                    configurable=False, writes_dir=False)
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
