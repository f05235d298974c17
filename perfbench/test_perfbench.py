"""Self-test of the benchmark at its smallest size: one round per workload.

Checks the output schema against BENCHMARK.json, that a traced run gives
every per-layer figure its workload runs, and that the tracer fails a run
whose targets it cannot wrap; asserts no timing. Run from the repository
root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import workload  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_result_schema(name, trace):
    proc = _run(ROOT, name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0
    if trace:
        layers = workload.WORKLOADS[name].layers
        assert layers
        assert [n for n in layers if not result["metrics"][n]["value"] > 0] == []


def test_missing_target_is_an_error(monkeypatch):
    import eegimage.cli  # noqa: F401
    import eegimage.preprocess as preprocess

    monkeypatch.delattr(preprocess, "design_bandpass")
    tracer = Tracer({16: 0})
    try:
        tracer.install(spans=True)
    finally:
        tracer.uninstall()
    assert tracer.errors() == ["traced function eegimage.preprocess.design_bandpass not found"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "serve", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
