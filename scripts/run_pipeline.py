#!/usr/bin/env python3
"""Full pipeline on synthetic data: generate -> train -> evaluate -> predict
-> t-SNE, leaving every artifact under one output directory.

    python3 scripts/run_pipeline.py --out runs/demo            # ~5 min
    python3 scripts/run_pipeline.py --out runs/smoke --quick   # ~1 min
"""

import argparse
import time

from cli_step import step

FULL = dict(patients=60, segments=20, folds=5, stage1=6, stage2=2,
            backbone="16,32,64,128", batch=32)
QUICK = dict(patients=12, segments=6, folds=3, stage1=2, stage2=1,
             backbone="8,16,32", batch=16)


def run(out, seed, p):
    data, train = f"{out}/data", f"{out}/train"
    step("gen", "--out-dir", data, "--seed", seed,
         "--patients", p["patients"], "--segments", p["segments"])
    step("train", "--data-dir", data, "--out-dir", train, "--folds", p["folds"],
         "--stage1-epochs", p["stage1"], "--stage2-epochs", p["stage2"],
         "--batch-size", p["batch"], "--backbone", p["backbone"], "--seed", seed, "-v")
    step("evaluate", "--data-dir", data, "--run-dir", train, "--out-dir", f"{out}/eval")
    step("predict", "--data-dir", data, "--run-dir", train,
         "--out", f"{out}/predictions.csv")
    n = p["patients"] * p["segments"]
    perplexity = min(30.0, (n - 1) / 3.5)
    step("tsne", "--data-dir", data, "--run-dir", train,
         "--out-dir", f"{out}/eval", "--perplexity", f"{perplexity:g}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/pipeline", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small dataset and short schedule for a smoke run")
    args = ap.parse_args()
    t0 = time.time()
    run(args.out, args.seed, QUICK if args.quick else FULL)
    print(f"done in {(time.time() - t0) / 60:.1f} min; artifacts in {args.out}")
