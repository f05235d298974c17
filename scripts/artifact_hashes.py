#!/usr/bin/env python3
"""Run the byte-identity recipe through the CLI and print one
``sha256  relative/path`` line per file it leaves, sorted by path.

A change meant to leave the numbers alone proves it by running this at the
parent commit and at the change into two fresh directories and diffing the
two listings:

    (cd parent && PYTHONPATH=src python3 scripts/artifact_hashes.py --out /tmp/a > /tmp/a.txt)
    (cd change && PYTHONPATH=src python3 scripts/artifact_hashes.py --out /tmp/b > /tmp/b.txt)
    diff /tmp/a.txt /tmp/b.txt

A change that re-stamps artifacts but should leave their content alone (a
field added to the run record, say) shows it by diffing each changed file
with the ``config_hash`` stamps and the added fields stripped (here the
run record's ``augment``, null or one indented object); the loop prints the
files that still differ, so it prints nothing when only the stamps moved:

    STRIP='/config_hash/d; /"augment": null/d; /"augment": {/,/}/d'
    for f in $(diff /tmp/a.txt /tmp/b.txt | awk '/^[<>]/ {print $3}' | sort -u); do
        cmp -s <(sed "$STRIP" /tmp/a/$f) <(sed "$STRIP" /tmp/b/$f) || echo "$f"
    done

The recipe (seed 0 everywhere):

- ``small``: 6 patients x 3 segments at 100 Hz, 5 s; ``run_pre`` trains it
  with the acceptance determinism gate's flags (2 folds, 2 + 1 epochs,
  batch 8, backbone 8,16,32), ``run_nopre`` the same with --no-pretrain; each
  is evaluated, predicted and t-SNE'd (perplexity 4, 300 iterations);
  ``small_pre`` is its default ``preprocess`` output;
- ``big``: 16 x 10 segments; ``run_big`` trains the default model with
  pretraining, 2 folds, 5 + 1 epochs, then evaluate, predict, default t-SNE;
- ``abl``: 9 x 6 segments at 40 uV noise, 5 s; ``ablation`` runs all four
  ablation variants with one seed.

``predict`` leaves ``served_features.npy`` and ``served_features.json`` in each run dir it
serves, and the ``tsne`` after it maps those features.

--quick runs only ``small`` and ``run_pre`` (about 5 s on 2 cores);
the full recipe takes a few minutes.
"""

import argparse
import functools
import hashlib
import sys
from pathlib import Path

import cli_step

SMALL_TRAIN = ["--folds", "2", "--stage1-epochs", "2", "--stage2-epochs", "1",
               "--batch-size", "8", "--backbone", "8,16,32", "--seed", "0"]
SMALL_TSNE = ["--perplexity", "4", "--iterations", "300"]
BIG_TRAIN = ["--folds", "2", "--stage1-epochs", "5", "--stage2-epochs", "1", "--seed", "0"]


# the commands' own summaries go to stderr; stdout carries only hashes
step = functools.partial(cli_step.step, stdout=sys.stderr)


def serve(data: Path, run: Path, tsne_flags):
    step("evaluate", "--data-dir", data, "--run-dir", run, "--out-dir", run / "eval")
    step("predict", "--data-dir", data, "--run-dir", run, "--out", run / "predictions.csv")
    step("tsne", "--data-dir", data, "--run-dir", run, "--out-dir", run / "tsne",
         *tsne_flags)


def run(out: Path, quick: bool) -> None:
    small = out / "small"
    step("gen", "--out-dir", small, "--patients", 6, "--segments", 3,
         "--fs", 100, "--duration", 5, "--seed", 0)
    runs = [("run_pre", [])] if quick else [("run_pre", []), ("run_nopre", ["--no-pretrain"])]
    for name, extra in runs:
        step("train", "--data-dir", small, "--out-dir", out / name, *SMALL_TRAIN, *extra)
        serve(small, out / name, SMALL_TSNE)
    if quick:
        return
    step("preprocess", "--data-dir", small, "--out-dir", out / "small_pre")
    big = out / "big"
    step("gen", "--out-dir", big, "--patients", 16, "--segments", 10, "--seed", 0)
    step("train", "--data-dir", big, "--out-dir", out / "run_big", *BIG_TRAIN)
    serve(big, out / "run_big", [])
    abl = out / "abl"
    step("gen", "--out-dir", abl, "--patients", 9, "--segments", 6,
         "--noise-rms", 40, "--duration", 5, "--seed", 0)
    step("ablate", "--data-dir", abl, "--out-dir", out / "ablation", "--seeds", 1,
         "--seed", 0)


def listing(out: Path) -> list[str]:
    rel = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256((out / r).read_bytes()).hexdigest()}  {r}" for r in rel]


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True,
                    help="new or empty directory for the artifacts")
    ap.add_argument("--quick", action="store_true",
                    help="only the determinism-gate config with pretraining")
    args = ap.parse_args()
    if args.out.exists() and any(args.out.iterdir()):
        sys.exit(f"error: {args.out} is not empty")
    args.out.mkdir(parents=True, exist_ok=True)
    run(args.out, args.quick)
    print("\n".join(listing(args.out)))
