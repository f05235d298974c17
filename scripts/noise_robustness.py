#!/usr/bin/env python3
"""How the learnable embedding behaves as sensor noise grows.

Trains the full model and the fixed-interleave variant (no_eeg2img) across a
sweep of pink-noise RMS levels and reports out-of-fold KLD for each. At low
noise both embeddings work; as noise rises, the simplex-constrained kernels
(smoothing filters by construction) keep denoising while the fixed interleave
passes noise straight into the image. Each level L runs ``eegimage gen`` into
data_rms<L>/ and ``eegimage ablate`` into ablation_rms<L>/; noise_sweep.csv
carries the 6-decimal KLDs of each level's ablation.csv.

    python3 scripts/noise_robustness.py --out runs/noise_sweep   # ~4 min
"""

import argparse
import csv
import time

from cli_step import read_ablation, step

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/noise_sweep")
    ap.add_argument("--noise-levels", type=float, nargs="+",
                    default=[15.0, 30.0, 45.0])
    ap.add_argument("--seeds", type=int, default=2)
    args = ap.parse_args()

    out = args.out
    results = []
    for noise in args.noise_levels:
        t0 = time.time()
        data, abl = f"{out}/data_rms{noise:g}", f"{out}/ablation_rms{noise:g}"
        step("gen", "--out-dir", data, "--patients", 24, "--segments", 8, "--duration", 5,
             "--label-noise", 0.1, "--noise-rms", f"{noise:g}", "--seed", 0)
        step("ablate", "--data-dir", data, "--out-dir", abl, "--variants", "full,no_eeg2img",
             "--seeds", args.seeds, "--folds", 3, "--seed", 0)
        rows = read_ablation(abl)
        full, fixed = (float(rows[v]["mean_kld"]) for v in ("full", "no_eeg2img"))
        results.append({"noise_rms_uv": noise, "full_kld": rows["full"]["mean_kld"],
                        "no_eeg2img_kld": rows["no_eeg2img"]["mean_kld"],
                        "gap": f"{fixed - full:.6f}"})
        print(f"noise {noise:5.1f} uV: full {full:.4f}  no_eeg2img {fixed:.4f}  "
              f"gap {fixed - full:+.4f}  ({time.time() - t0:.0f}s)", flush=True)

    with open(f"{out}/noise_sweep.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(results[0]))
        writer.writeheader()
        writer.writerows(results)
    print(f"\nwrote {out}/noise_sweep.csv")
