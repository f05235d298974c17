#!/usr/bin/env python3
"""Component-removal ablation on a high-noise synthetic dataset.

Retrains each variant (full, no_central, no_pretrain, no_eeg2img) with
identical hyperparameters over several seeds, then compares patient-level
out-of-fold KLD against the full model with a rank-sum test. High sensor
noise is the regime where the learnable embedding's denoising matters most,
so the full-vs-no_eeg2img gap is clearest there. Runs ``eegimage gen`` and
``eegimage ablate`` (its default schedule and model) and prints the table
from the ablation.csv that ``ablate`` writes.

    python3 scripts/run_ablation_study.py --out runs/ablation   # ~3 min
"""

import argparse
import time

from cli_step import read_ablation, step

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/ablation")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--folds", type=int, default=3)
    ap.add_argument("--noise-rms", type=float, default=40.0,
                    help="sensor pink-noise RMS in microvolts")
    ap.add_argument("--patients", type=int, default=24)
    ap.add_argument("--segments", type=int, default=8)
    args = ap.parse_args()

    t0 = time.time()
    out, data = args.out, f"{args.out}/data"
    step("gen", "--out-dir", data, "--patients", args.patients, "--segments", args.segments,
         "--duration", 5, "--label-noise", 0.1, "--noise-rms", f"{args.noise_rms:g}",
         "--seed", 0)
    step("ablate", "--data-dir", data, "--out-dir", out, "--seeds", args.seeds,
         "--folds", args.folds, "--seed", 0)

    rows = read_ablation(out)
    seed_cols = [f"kld_seed{i}" for i in range(args.seeds)]
    print(f"\n{'variant':12s} {'mean KLD':>9s} {'p vs full':>10s}  per-seed")
    for variant, r in rows.items():
        p = f"{float(r['p_vs_full']):10.3g}" if r["p_vs_full"] else ""
        per_seed = " ".join(f"{float(r[c]):.3f}" for c in seed_cols)
        print(f"{variant:12s} {float(r['mean_kld']):9.4f} {p:>10s}  {per_seed}")
    wins = sum(float(rows["full"][c]) < float(rows["no_eeg2img"][c]) for c in seed_cols)
    print(f"\nfull model beats no_eeg2img in {wins}/{args.seeds} seeds; "
          f"table in {out}/ablation.csv ({(time.time() - t0) / 60:.1f} min)")
