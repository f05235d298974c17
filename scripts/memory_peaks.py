#!/usr/bin/env python3
"""Where a training command's memory goes, and what each command faults.

    PYTHONPATH=src python3 scripts/memory_peaks.py --out DIR [--quick]
    PYTHONPATH=src python3 scripts/memory_peaks.py --out DIR --commands serve --rounds 3

The inputs and flags come from perfbench/workload.py. Without --commands,
``gen`` writes the benchmark's ``train_cv`` input (16 patients x 10
segments at 100 Hz, 10 s) and one ``train`` runs on it at the default
model, 2 folds, 5 + 1 epochs, under tracemalloc. One line per phase
(load_dataset, pretrain_backbone, run_cv, validation_loss) gives:

- ``calls``;
- ``live_peak_mib``: the largest tracemalloc peak of live allocations above
  a call's start, nested calls included;
- ``maxrss_mib``: ru_maxrss after the last call, and ``maxrss_rise_mib``:
  how far the calls raised it;
- ``minflt``: minor page faults during the calls, summed.

tracemalloc sees Python and numpy allocations, not BLAS buffers or the
interpreter's own, and its bookkeeping adds to ru_maxrss and ru_minflt.

With --commands W there is no tracemalloc: this process sets up the
perfbench workload W (train_cv, ablate_small or serve) once and runs its
timed commands --rounds times, as perfbench's rounds do. One line per
set-up command (``gen``; for serve ``gen``, ``train``, ``gen``) gives
ru_maxrss after it; then one line per command and round gives its minor
faults, system and user seconds and ru_maxrss after it, so a reader can
tell which command set the peak. To compare two checkouts, run each
workload in a fresh process per checkout.

--quick makes the inputs small (6 x 3 segments, 5 s long for training;
backbone 8,16,32, batch 8; two ablation variants) for a smoke run of a few
seconds. The commands' own output goes to stderr.
"""

import argparse
import resource
import sys
import tracemalloc
from pathlib import Path

from cli_step import step

import eegimage.cli
import eegimage.train

# perfbench's workload inputs, so the commands here are the benchmark's
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workload as bench  # noqa: E402

MIB = 1024.0 * 1024.0
# phase -> module whose global the train command calls it through
PHASES = (("load_dataset", eegimage.cli), ("pretrain_backbone", eegimage.cli),
          ("run_cv", eegimage.cli), ("validation_loss", eegimage.train))
QUICK_GEN = ["--patients", 6, "--segments", 3, "--duration", 5]
QUICK_TRAIN = ["--folds", 2, "--stage1-epochs", 2, "--stage2-epochs", 1,
               "--batch-size", 8, "--backbone", "8,16,32"]


def usage():
    return resource.getrusage(resource.RUSAGE_SELF)


def quiet(*argv):
    step(*argv, stdout=sys.stderr)


class PhasePeaks:
    """Wraps each phase's module global; open calls share one tracemalloc
    peak, so a nested call's peak also counts for every caller."""

    def __init__(self):
        self.open = []  # [traced bytes at entry, highest peak seen]
        self.stats = {name: dict(calls=0, live=0, minflt=0, rise=0, maxrss=0)
                      for name, _ in PHASES}

    def _fold_peak(self):
        current, peak = tracemalloc.get_traced_memory()
        for frame in self.open:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        return current

    def wrap(self, name, func):
        def traced(*a, **k):
            start = self._fold_peak()
            self.open.append([start, start])
            before = usage()
            try:
                return func(*a, **k)
            finally:
                after = usage()
                self._fold_peak()
                entry, peak = self.open.pop()
                s = self.stats[name]
                s["calls"] += 1
                s["live"] = max(s["live"], peak - entry)
                s["minflt"] += after.ru_minflt - before.ru_minflt
                s["rise"] += after.ru_maxrss - before.ru_maxrss
                s["maxrss"] = after.ru_maxrss
        return traced

    def report(self):
        for name, s in self.stats.items():
            print(f"{name:18s} calls {s['calls']:3d}  live_peak_mib {s['live'] / MIB:7.1f}  "
                  f"maxrss_mib {s['maxrss'] / 1024:6.1f}  "
                  f"maxrss_rise_mib {s['rise'] / 1024:6.1f}  minflt {s['minflt']:7d}")


def workload(out: Path, name: str, quick: bool):
    """Perfbench's workload `name`, from perfbench's own inputs: its set-up
    commands and its timed commands, each a list of (command, argv) pairs."""
    data, run = out / "data", out / "run"
    if name == "train_cv":
        gen = QUICK_GEN if quick else bench._flags(bench.TRAIN_CV_GEN)
        train = QUICK_TRAIN if quick else bench._flags(bench.TRAIN_CV_TRAIN)
        return ([("gen", ["--out-dir", data, "--seed", 0, *gen])],
                [("train", ["--data-dir", data, "--out-dir", run, "--seed", 0, *train]),
                 ("evaluate", ["--data-dir", data, "--run-dir", run])])
    if name == "ablate_small":
        gen = bench._flags(bench.ABLATE_GEN)
        flags = QUICK_TRAIN + ["--variants", "full,no_eeg2img"] if quick else []
        return ([("gen", ["--out-dir", data, "--seed", 0, *(gen + QUICK_GEN if quick else gen)])],
                [("ablate", ["--data-dir", data, "--out-dir", out / "ablation",
                             "--seeds", bench.ABLATE_SEEDS, "--seed", 0, *flags])])
    tsne = ["--perplexity", 4, "--iterations", 300] if quick else []
    return ([("gen", ["--out-dir", out / "train_data", "--seed", 0,
                      *bench._flags(bench.SERVE_TRAIN_GEN)]),
             ("train", ["--data-dir", out / "train_data", "--out-dir", run, "--seed", 0,
                        "--no-pretrain", *bench._flags(bench.SERVE_TRAIN)]),
             ("gen", ["--out-dir", data, "--seed", bench.SERVE_SEED_OFFSET,
                      *(QUICK_GEN[:4] if quick else bench._flags(bench.SERVE_GEN))])],  # 10 s long
            [("predict", ["--data-dir", data, "--run-dir", run, "--out", out / "pred.csv"]),
             ("tsne", ["--data-dir", data, "--run-dir", run, "--out-dir", out / "tsne", *tsne])])


def phases(out: Path, quick: bool):
    setup, [(cmd, argv), _] = workload(out, "train_cv", quick)
    for c, a in setup:
        quiet(c, *a)
    peaks = PhasePeaks()
    saved = [(mod, name, getattr(mod, name)) for name, mod in PHASES]
    for mod, name, func in saved:
        setattr(mod, name, peaks.wrap(name, func))
    tracemalloc.start()
    try:
        quiet(cmd, *argv)
    finally:
        tracemalloc.stop()
        for mod, name, func in saved:
            setattr(mod, name, func)
    peaks.report()


def commands(out: Path, name: str, rounds: int, quick: bool):
    setup, timed = workload(out, name, quick)
    # the peak after each set-up command, so a reader can tell which set it
    # and whether a round's line sets a new one
    for cmd, argv in setup:
        quiet(cmd, *argv)
        print(f"setup {cmd:9s} maxrss_mib {usage().ru_maxrss / 1024:6.1f}")
    for r in range(rounds):
        for cmd, argv in timed:
            before = usage()
            quiet(cmd, *argv)
            after = usage()
            print(f"round {r} {cmd:9s} minflt {after.ru_minflt - before.ru_minflt:7d}  "
                  f"sys_s {after.ru_stime - before.ru_stime:6.3f}  "
                  f"user_s {after.ru_utime - before.ru_utime:6.3f}  "
                  f"maxrss_mib {after.ru_maxrss / 1024:6.1f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True, help="scratch directory for the runs")
    ap.add_argument("--quick", action="store_true", help="small inputs for a smoke run")
    ap.add_argument("--commands", choices=("train_cv", "ablate_small", "serve"),
                    help="fault counts per command of this benchmark workload")
    ap.add_argument("--rounds", type=int, default=3, help="rounds of --commands")
    args = ap.parse_args()
    if args.commands:
        commands(args.out, args.commands, args.rounds, args.quick)
    else:
        phases(args.out, args.quick)


if __name__ == "__main__":
    main()
