"""Smoke test of scripts/artifact_hashes.py: it runs and lists every file it
leaves as ``sha256  relative/path``. No hash value is asserted."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_artifact_hashes_quick_lists_every_file(tmp_path):
    out = tmp_path / "a"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "artifact_hashes.py"), "--out", str(out),
         "--quick"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines[:3]
    paths = [line.split("  ", 1)[1] for line in lines]
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert paths == files
    assert {"small/manifest.csv", "run_pre/fold0.ckpt", "run_pre/predictions.csv",
            "run_pre/eval/report.json", "run_pre/tsne/tsne.csv"} <= set(paths)
    assert not any(p.startswith(("run_nopre/", "run_big/", "ablation/")) for p in paths)
    # a second run refuses to mix its files into the first one's
    again = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "artifact_hashes.py"), "--out", str(out),
         "--quick"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert again.returncode != 0 and "not empty" in again.stderr
