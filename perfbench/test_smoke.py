"""Smoke test of the benchmark: every workload at tiny size, checks on.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs untraced and traced.  The result line must carry exactly
the metrics BENCHMARK.json lists, with no failed operation.  The traced run's
span file must show non-negative self times that, with the children, cover
each span.  Run from a directory holding only BENCHMARK.json and perfbench/,
the benchmark must refuse without printing a result.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def run(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct(workload, trace):
    proc = run(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), name
        if not trace:
            assert v["value"] > 0, name
    if trace:
        check_span_file(ROOT / ".bench_out" / f"trace-{workload}-{SEED}.csv")


def check_span_file(path: Path) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        spans = list(csv.DictReader(fh))
    assert spans
    children: dict[str, float] = {}
    for s in spans:
        children[s["parent"]] = children.get(s["parent"], 0.0) + (
            float(s["end"]) - float(s["start"]))
    for s in spans:
        duration = float(s["end"]) - float(s["start"])
        own = float(s["self"])
        assert own >= -1e-9, s
        assert own + children.get(s["id"], 0.0) == pytest.approx(duration, abs=1e-9), s


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
