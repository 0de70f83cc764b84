"""Smoke test of the benchmark: every workload once, at the smallest length.

    python3 -m pytest perfbench/test_smoke.py

Each run must exit 0 with a correct answer, the pinned input fingerprint and
every metric BENCHMARK.json names, with its unit.  The workloads include
``count``, which run.py defines but BENCHMARK.json does not list (see
README.md).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["audit", "probe", "count"])
def test_workload_once(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    record = json.loads((HERE / ".work" / f"{workload}-trace{trace}.json").read_text())
    assert record["fingerprint"] == wl.FINGERPRINTS[workload]
    assert record["errors"] == []
    if trace:
        assert result["metrics"]["trace.span_coverage"]["value"] >= 0.9


@pytest.mark.parametrize(
    "workload, report",
    [
        ("count", {"status": "SAT", "count": wl.GADGET_COLORINGS - 1}),
        ("probe", {"k": 3, "pool": [1, 2, 3, 4], "trials": 1000, "seed": 0, "successes": 648}),
        ("audit", {"claims": [{"name": c, "status": "pass"} for c in wl.AUDIT_CLAIMS[:-1]]}),
    ],
)
def test_wrong_answer_is_caught(workload, report):
    assert wl.check_answer(workload, json.dumps(report), seed=0)


def test_missing_wrap_target_fails_loudly(monkeypatch):
    import colorlab.solve

    monkeypatch.delattr(colorlab.solve, "_indexed")
    with pytest.raises(spans.TraceError, match="colorlab.solve._indexed"):
        spans.record(lambda: None)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "count", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
