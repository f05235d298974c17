"""The step both pipeline scripts chain commands with: echo one eegimage
command, run it through ``eegimage.cli.main`` and exit with its code if it
fails."""

import contextlib
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
