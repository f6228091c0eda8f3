"""Alternating-pair benchmark of two commits on one workload.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S

W is one of the ``workloads`` of ``BENCHMARK.json``; any other is refused,
naming them, before anything is exported, run or written.  Each commit's files are exported with ``git archive`` into a directory of
its own under a temporary directory (``TMPDIR`` picks where), and the
benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``) runs from
each export in turn for its ``run_seconds``: N pairs, the parent first in
even pairs and the change first in odd ones, one run at a time.  An export,
unlike a ``git worktree``, leaves no record in the repository.
``BENCH_<workload>.json`` at the repository root (``BENCH_<workload>_seed<S>.json``
for a seed other than 1) then holds the commits, nproc, every run's metrics
and correctness, and for each end-to-end metric the medians and quartiles of
both sides and the number of pairs the change won.  Under ``wall`` it also
holds the medians and quartiles of the run's named metrics in seconds,
milliseconds or microseconds from its ``detail`` line (``project_brute2_s``,
``reference_ms``, ``ingest_block_us.p50``, ...).  They are never gated: the
in-command reference sampler runs on the main thread while worker threads
keep computing, so reference units alone could flatter a threaded change,
and wall time shows what it saved.  A run
that printed no result or reported ``correct: false`` is named on stderr and
its metrics are not compared: a metric without a valid run in every pair is
left out of the summary, listed under ``left_out``, and the tool exits 1 (a
wall metric is left out of ``wall`` alone).  PARENT and CHANGE are anything
``git archive`` takes; ``git stash create`` names a commit of uncommitted
tracked changes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """The files of ``commit`` in ``dest``, without a .git of their own."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run from ``tree``: its result line, its wall-time named
    metrics from the ``detail`` line, and the stderr tail if the run printed
    no result."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, text=True, capture_output=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "returncode": proc.returncode,
                "stderr": proc.stderr[-2000:]}
    named = next((json.loads(line[len("detail "):])["named"] for line in lines
                  if line.startswith("detail ")), {})
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "wall": {k: v["value"] for k, v in named.items() if v["unit"] in ("s", "ms", "us")}}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def by_side(runs: list[dict], group: str, name: str) -> dict:
    """The values of metric ``name`` under ``group`` of each side's correct
    runs, in run order."""
    return {side: [r[group][name] for r in runs
                   if r["side"] == side and r["correct"] and name in r.get(group, {})]
            for side in ("parent", "change")}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    seconds = bench["run_seconds"]
    sides = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    workdir = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    trees = {side: workdir / f"{side}-{commit[:12]}" for side, commit in sides.items()}
    for side, tree in trees.items():
        export(sides[side], tree)

    runs = []
    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], bench["command"], args.workload,
                               args.seed, seconds)
                runs.append({"pair": pair, "side": side, **run})
                print(f"pair {pair} {side}: "
                      + json.dumps(run.get("metrics", run), sort_keys=True), file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bad = [r for r in runs if not r["correct"]]
    for r in bad:
        print(f"pair {r['pair']} {r['side']}: "
              + ("incorrect" if "metrics" in r else "no result")
              + "; its metrics are not compared", file=sys.stderr)
    summary, left_out = {}, []
    for metric in bench["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = by_side(runs, "metrics", name)
        if not all(len(v) == args.pairs for v in values.values()):
            left_out.append(name)
            continue
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        stats = {side: summarize(v) for side, v in values.items()}
        summary[name] = {**stats, "change_wins": wins, "pairs": args.pairs,
                         "median_change": stats["change"]["median"] - stats["parent"]["median"],
                         "better": metric["better"]}
    wall = {}
    for name in sorted({n for r in runs for n in r.get("wall", {})}):
        values = by_side(runs, "wall", name)
        if all(len(v) == args.pairs for v in values.values()):
            wall[name] = {side: summarize(v) for side, v in values.items()}
    suffix = "" if args.seed == 1 else f"_seed{args.seed}"
    out = ROOT / f"BENCH_{args.workload}{suffix}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "pairs": args.pairs, "commits": sides, "nproc": len(os.sched_getaffinity(0)),
        "all_correct": not bad,
        "summary": summary, "left_out": left_out, "wall": wall, "runs": runs},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    if left_out:
        print(f"left out of the summary: {', '.join(left_out)}", file=sys.stderr)
    return 1 if bad or left_out else 0


if __name__ == "__main__":
    sys.exit(main())
