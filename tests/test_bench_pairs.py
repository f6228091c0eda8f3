"""``tools/bench_pairs.py`` writes its record and exits 1 when a run printed
no result or reported an incorrect one, naming the run and the metrics it
left out of the summary.  It also summarizes, ungated, each run's wall-time
named metrics, in seconds, milliseconds and microseconds.  The tool is
loaded from its path; git, the export and the benchmark runs are replaced by
stand-ins."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "bench_pairs.py"
BENCH = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = [m["name"] for m in BENCH["end_to_end"]]
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tool(tmp_path, monkeypatch):
    module = load_tool()
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "git", lambda *args: f"commit-{args[-1]}")
    monkeypatch.setattr(module, "export", lambda commit, dest: dest.mkdir(parents=True))
    return module


def fake_runs(module, monkeypatch, outcome):
    """run_once stand-in: the n-th run's result is outcome(n), or a valid one."""
    calls = []

    def run_once(tree, command, workload, seed, seconds):
        n = len(calls)
        calls.append(tree.name.split("-")[0])
        good = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {name: 1.0 + n for name in METRICS},
                "wall": {"project_brute2_s": 10.0 + n, "reference_ms": 0.5,
                         "ingest_block_us.p50": 20.0 - n}}
        return outcome(n, good)

    monkeypatch.setattr(module, "run_once", run_once)
    return calls


@pytest.mark.parametrize("case", ["valid", "no-result", "incorrect"])
def test_failed_or_incorrect_run_is_named_and_exits_1(tool, monkeypatch, capsys,
                                                      tmp_path, case):
    broken = {
        "valid": None,
        "no-result": {"correct": False, "returncode": 2, "stderr": "boom"},
        "incorrect": {"correct": False, "attempted": 3, "failed": 1,
                      "metrics": {name: 0.5 for name in METRICS}},
    }[case]
    # run 3 is the change side of pair 1 (the change runs first in odd pairs)
    calls = fake_runs(tool, monkeypatch,
                      lambda n, good: broken if n == 2 and broken else good)
    code = tool.main(["PARENT", "CHANGE", "--workload", "ripr_project", "--pairs", "2"])
    assert calls == ["parent", "change", "change", "parent"]
    record = json.loads((tmp_path / "BENCH_ripr_project.json").read_text())
    err = capsys.readouterr().err
    assert len(record["runs"]) == 4
    if case == "valid":
        assert code == 0 and record["all_correct"]
        assert sorted(record["summary"]) == sorted(METRICS) and record["left_out"] == []
        # runs 0 and 3 are the parent's, 1 and 2 the change's
        brute2 = record["wall"]["project_brute2_s"]
        assert brute2["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25, "iqr": 1.5}
        assert brute2["change"] == {"median": 11.5, "q1": 11.25, "q3": 11.75, "iqr": 0.5}
        assert record["wall"]["reference_ms"]["change"]["median"] == 0.5
        # microsecond metrics (per-block latency) are summarized too
        assert record["wall"]["ingest_block_us.p50"]["parent"]["median"] == 18.5
        return
    assert code == 1 and not record["all_correct"]
    assert record["summary"] == {} and record["left_out"] == METRICS
    assert record["wall"] == {}
    reason = "no result" if case == "no-result" else "incorrect"
    assert f"pair 1 change: {reason}; its metrics are not compared" in err
    assert f"left out of the summary: {', '.join(METRICS)}" in err


def test_unknown_workload_refused_before_any_export(tool, monkeypatch, capsys,
                                                    tmp_path):
    exported = []
    monkeypatch.setattr(tool, "export", lambda commit, dest: exported.append(commit))
    calls = fake_runs(tool, monkeypatch, lambda n, good: good)
    with pytest.raises(SystemExit) as excinfo:
        tool.main(["PARENT", "CHANGE", "--workload", "ripr_projekt", "--pairs", "2"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'ripr_projekt'" in err
    assert all(repr(name) in err for name in WORKLOADS)
    assert exported == [] and calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["BENCHMARK.json"]


def test_wall_metrics_read_from_the_detail_line(tmp_path):
    # a stand-in benchmark printing perfbench/run.py's last two lines
    detail = {"named": {
        "setup_s": {"value": 0.5, "unit": "s"},
        "project_brute2_s": {"value": 0.8, "unit": "s"},
        "reference_ms": {"value": 1.25, "unit": "ms"},
        "ingest_block_us.p50": {"value": 7.5, "unit": "us"},
        "ingest_block_us.p99": {"value": 42.0, "unit": "us"},
        "ingest_block_us.samples": {"value": 9000, "unit": "count"},
        "ingest_obs_per_s": {"value": 1.6e5, "unit": "1/s"},
        "peak_rss_mb": {"value": 160.0, "unit": "MB"},
        "fail_ratio": {"value": 0.0, "unit": "ratio"}}}
    result = {"correct": True, "attempted": 2, "failed": 0,
              "metrics": {"secondary_ref": {"value": 21.8, "unit": "ref"}}}
    script = f"print('detail ' + {json.dumps(detail)!r}); print({json.dumps(result)!r})"
    run = load_tool().run_once(tmp_path, [sys.executable, "-c", script],
                               "ripr_project", 1, 1.0)
    assert run == {"correct": True, "attempted": 2, "failed": 0,
                   "metrics": {"secondary_ref": 21.8},
                   "wall": {"setup_s": 0.5, "project_brute2_s": 0.8,
                            "reference_ms": 1.25, "ingest_block_us.p50": 7.5,
                            "ingest_block_us.p99": 42.0}}
