"""Benchmark of the eegimage pipeline: train, ablate and serve.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {train_cv,ablate_small,serve,all}
                             --seed N --seconds S --trace {0,1}

Each workload runs in its own fresh child process, one after another, with
the package imported from ``src`` and the BLAS thread count fixed at no more
than 2. The last line of standard output is the JSON result of the last
workload run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train_cv", "ablate_small", "serve")
# set-up, the calibration kernel, the checks and the untraced round of a
# traced run, on top of --seconds
CHILD_MARGIN_S = 145
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "eegimage" / "cli.py").is_file():
        print(f"error: no eegimage sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(min(2, os.cpu_count() or 1))
    for key in BLAS_ENV:
        env[key] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(HERE / "out" / name)]
        try:
            proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                                  timeout=args.seconds + CHILD_MARGIN_S, text=True)
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} ran past {args.seconds + CHILD_MARGIN_S} s",
                  file=sys.stderr)
            return 1
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
            sys.stdout.write("\n".join(lines[:-1] if lines else []) + "\n")
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
