"""What every script chains eegimage commands with: ``step`` echoes one
command, runs it through ``eegimage.cli.main`` and exits with its code if it
fails; ``read_ablation`` reads back the table ``eegimage ablate`` wrote."""

import contextlib
import csv
import sys

from eegimage.cli import main as cli


def step(*argv, stdout=None):
    """Run ``eegimage argv``; stdout (default sys.stdout) receives the echoed
    command and the command's own output."""
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(stdout or sys.stdout):
        print(f"$ eegimage {' '.join(argv)}", flush=True)
        rc = cli(argv)
    if rc:
        sys.exit(rc)


def read_ablation(out_dir):
    """The rows of out_dir/ablation.csv, by variant, as strings: mean_kld,
    p_vs_full (empty for full) and kld_seed0, kld_seed1, ..."""
    with open(f"{out_dir}/ablation.csv", newline="") as f:
        rows = csv.DictReader(line for line in f if not line.startswith("#"))
        return {r["variant"]: r for r in rows}
