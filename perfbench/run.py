"""Benchmark launcher: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload ripr_project --seed 1 --seconds 10 --trace 0

Run from the repository root.  The launcher fixes the BLAS thread count
before numpy loads, imports ``ksample_evalues`` from ``src/`` of this
checkout, sets the workload up, then measures whole rounds until another
would end past ``--seconds`` (at least one).  A stage's time is the sum of
its operations' medians over the run, in seconds and in units of a reference
kernel timed around and during each operation (``workloads.reference_kernel``);
the gated metrics use the latter.  Every output is checked; a check
mismatch, a raised error or a NaN heatmap cell counts as a failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the run does one untraced round and one traced round and the
last line carries the per-layer metrics.  The line before it (prefixed
``detail``) holds the environment, the workload's named metrics and the full
per-layer breakdown.  See perfbench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))
# one BLAS thread: a second one contends with the host's other guests and
# only helps the 3000/4096-node eigenvalue builds in set-up
BLAS_THREADS = 1
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

from checks import Checker  # noqa: E402
from spans import LAYERS, Tracer, prefix  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_package(tracer_import_s: dict):
    """Import every layer from this checkout's src/, timing each import."""
    src = ROOT / "src"
    if not (src / "ksample_evalues" / "__init__.py").is_file():
        fail(f"no package source at {src}/ksample_evalues; run from a full checkout")
    sys.path.insert(0, str(src))
    import importlib

    order = [("expfam", "ksample_evalues")] + [
        (layer, f"ksample_evalues.{layer}") for layer in LAYERS if layer != "expfam"]
    for layer, mod in order:
        t0 = time.perf_counter()
        importlib.import_module(mod)
        tracer_import_s[layer] = time.perf_counter() - t0
    import ksample_evalues as pkg

    if Path(pkg.__file__).resolve().parent != (src / "ksample_evalues").resolve():
        fail(f"imported ksample_evalues from {pkg.__file__}, not from {src}")
    return pkg


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import scipy

    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "machine": platform.machine(),
    }


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_mb", "MB"), (".samples", "count"),
                         ("fail_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "us"  # ingest_block_us.p50 / .p99


def stage_total(rounds, stage: int, relative: bool = False) -> float:
    """A stage's time per round: each timed operation's median over the run,
    times how often a round does it, summed over the stage's operations.  In
    seconds, or with ``relative`` in units of the reference kernel timed
    around each operation."""
    samples: dict[str, list[float]] = {}
    for r in rounds:
        for st, op, seconds, rel in r.ops:
            if st == stage:
                samples.setdefault(op, []).append(rel if relative else seconds)
    return sum(statistics.median(v) * len(v) / len(rounds) for v in samples.values())


def named_metrics(workload, rounds, setup_s, peak_rss_mb, failed, attempted) -> dict:
    """The end-to-end metrics of this workload under their own names."""
    out = {"setup_s": setup_s}
    s1, s2 = workload.stage_names
    out[s1] = stage_total(rounds, 0)
    out[s2] = stage_total(rounds, 1)
    if workload.name == "stream_eprocess":
        lat = np.concatenate([r.extra["block_us"] for r in rounds])
        out["ingest_block_us.p50"] = quantile(lat, 0.50)
        out["ingest_block_us.p99"] = quantile(lat, 0.99)
        out["ingest_block_us.samples"] = int(lat.size)
        out["ingest_obs_per_s"] = rounds[0].extra["observations"] / out[s1]
        out["simulate_trials_per_s"] = rounds[0].extra["trials"] / out[s2]
    out["peak_rss_mb"] = peak_rss_mb
    out["fail_ratio"] = failed / attempted
    out["reference_ms"] = 1e3 * reference_s(rounds)
    return out


def reference_s(rounds) -> float:
    """Median time of the reference kernel over the run."""
    return statistics.median(loop + vector for r in rounds for loop, vector in r.reference_s)


def layer_metrics(tracer: Tracer, overhead: float, bytes_written: int) -> tuple[dict, dict]:
    """Per-layer metrics: (those listed in BENCHMARK.json, the full breakdown)."""
    summ = tracer.summary()
    names = summ["names"]

    def agg(name, key):
        return names.get(name, {}).get(key, 0)

    def infos(name):
        return [s.info for s in tracer.spans if s.name == name and s.info is not None]

    cold = [s for s in tracer.spans if s.name == "quad.leggauss" and s.info["cold"]]
    cold_s = {}
    for s in cold:
        cold_s[s.info["n"]] = cold_s.get(s.info["n"], 0.0) + s.duration
    sum_pdf = infos("expfam.sum_log_pdf")
    stat = [(s.info, s.duration) for s in tracer.spans
            if s.name == "evariables.log_statistic"]
    li_iters = sum(i["iters"] for i in infos("ripr.li_approximate"))
    heat = infos("growth.heatmap")

    # heatmap cells: the two growth_rate calls a heatmap makes per cell
    heat_ids = {s.sid for s in tracer.spans if s.name == "growth.heatmap"}
    rates = [s.duration for s in tracer.spans
             if s.name == "growth.growth_rate" and s.parent in heat_ids]
    cells_ms = [1e3 * (a + b) for a, b in zip(rates[::2], rates[1::2])]

    listed = {
        "quad.leggauss_cold_s": sum(cold_s.values()),
        "quad.leggauss_cold.builds": len(cold),
        "quad.sum_nodes.calls": agg("quad.sum_nodes", "calls"),
        "quad.sum_nodes.self_s": agg("quad.sum_nodes", "self_s"),
        "quad.support_nodes.calls": agg("quad.support_nodes", "calls"),
        "expfam.sum_log_pdf.calls": agg("expfam.sum_log_pdf", "calls"),
        "expfam.sum_log_pdf.points": sum(i["points"] for i in sum_pdf),
        "expfam.sum_log_pdf.self_s": agg("expfam.sum_log_pdf", "self_s"),
        "expfam.sum_quantile.self_s": agg("expfam.sum_quantile", "self_s"),
        "expfam.natural_from_mean.calls": agg("expfam.natural_from_mean", "calls"),
        "expfam.natural_from_mean.self_s": agg("expfam.natural_from_mean", "self_s"),
        "expfam.log_partition.calls": agg("expfam.log_partition", "calls"),
        "expfam.log_partition.self_s": agg("expfam.log_partition", "self_s"),
        "expfam.quantile.calls": agg("expfam.quantile", "calls"),
        "expfam.sample.calls": agg("expfam.sample", "calls"),
        "evariables.log_statistic.calls": len(stat),
        "evariables.log_statistic.blocks": sum(i["blocks"] for i, _ in stat),
        "ripr.sumgrid.builds": agg("ripr.sumgrid.build", "calls"),
        "ripr.li_approximate.iters": li_iters,
        "ripr.certify.calls": agg("ripr.certify", "calls"),
        "growth.growth_rate.calls": agg("growth.growth_rate", "calls"),
        "growth.heatmap.cells": len(cells_ms),
        "growth.heatmap.failed_cells": sum(i["failed"] for i in heat),
        "sequential.ingest.calls": agg("sequential.ingest", "calls"),
        "sequential.blocks_completed": agg("sequential.block", "calls"),
        "sequential.simulate.trials": sum(i["trials"] for i in infos("sequential.simulate")),
        "cli.main.calls": agg("cli.main", "calls"),
        "cli.main.self_s": agg("cli.main", "self_s"),
        "cli.bytes_written": bytes_written,
        "trace_overhead_ratio": overhead,
    }
    for layer in LAYERS:
        listed[f"{prefix(layer)}.busy_s"] = (summ["layer_self_s"][layer]
                                             + tracer.import_s[layer])

    def per_block(streamed):
        sel = [(i["blocks"], d) for i, d in stat if i["streamed"] == streamed]
        blocks = sum(b for b, _ in sel)
        return 1e6 * sum(d for _, d in sel) / blocks if blocks else 0.0

    by_key: dict[str, float] = {}
    for s in tracer.spans:
        if s.name == "expfam.sum_log_pdf":
            key = f"expfam.sum_log_pdf.self_s.{s.info['key']}"
            by_key[key] = by_key.get(key, 0.0) + s.self_time
    li_self = agg("ripr.li_approximate", "self_s")
    builds = agg("ripr.sumgrid.build", "calls")
    detail = {
        **{f"quad.leggauss_cold_s.n{n}": v for n, v in sorted(cold_s.items())},
        "quad.support_nodes.self_s": agg("quad.support_nodes", "self_s"),
        **dict(sorted(by_key.items())),
        "expfam.quantile.self_s": agg("expfam.quantile", "self_s"),
        "expfam.sample.self_s": agg("expfam.sample", "self_s"),
        "expfam.hypoexponential.self_s": agg("expfam.hypoexponential", "self_s"),
        "expfam.convolve.self_s": agg("expfam.convolve", "self_s"),
        "evariables.log_statistic.self_s": agg("evariables.log_statistic", "self_s"),
        "evariables.us_per_block.streamed": per_block(True),
        "evariables.us_per_block.vectorized": per_block(False),
        "ripr.sumgrid.build_s": agg("ripr.sumgrid.build", "total_s") / builds if builds else 0.0,
        "ripr.li_approximate.step_s": li_self / li_iters if li_iters else 0.0,
        "ripr.brute_force_two_component.self_s":
            agg("ripr.brute_force_two_component", "self_s"),
        "ripr.certify.self_s": agg("ripr.certify", "self_s"),
        "growth.growth_rate.self_s": agg("growth.growth_rate", "self_s"),
        "growth.cell_ms.p50": quantile(cells_ms, 0.50),
        "growth.cell_ms.p99": quantile(cells_ms, 0.99),
        "sequential.ingest.self_s": agg("sequential.ingest", "self_s"),
        "sequential.simulate.self_s": agg("sequential.simulate", "self_s"),
        **{f"{prefix(layer)}.self_s": summ["layer_self_s"][layer] for layer in LAYERS},
        **{f"{prefix(layer)}.import_s": tracer.import_s[layer] for layer in LAYERS},
        "spans": len(tracer.spans),
    }
    return listed, detail


def load_metric_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes; golden values are not compared")
    ap.add_argument("--record", action="store_true",
                    help="merge this run's checked values into golden.json")
    args = ap.parse_args(argv)

    e2e_units, layer_units = load_metric_units()
    import_s: dict[str, float] = {}
    pkg = import_package(import_s)
    tracer = Tracer(pkg, import_s)

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    golden_path = BENCH / "golden.json"
    golden_all = json.loads(golden_path.read_text(encoding="utf-8"))
    try:
        workload = WORKLOADS[args.workload](pkg, out_dir, args.seed, args.tiny)
        if args.trace:  # reference samples inside an operation would land in its spans
            workload.sample_every = 0.0
        checker = Checker(pkg, golden_all.get(args.workload, {}), args.seed, args.tiny)
        sink = io.StringIO()  # the CLI's "wrote ..." notes
        if args.trace:
            tracer.install()
        with contextlib.redirect_stderr(sink):
            workload.setup()
        tracer.uninstall()
        setup_s = time.perf_counter() - T_START

        def check(rnd) -> None:
            """Check a round's outputs, then drop them, so that memory does
            not grow with the number of rounds."""
            for label, msg in rnd.errors:
                checker.failed.append(f"{label}: {msg}")
            for kind, label, payload in rnd.outputs:
                checker.check(kind, label, payload)
            rnd.outputs.clear()

        # whole rounds until another would end past --seconds of rounds; at
        # least one.  Checks run between rounds and are not counted.
        rounds = []
        measured = 0.0
        while True:
            t_round = time.perf_counter()
            with contextlib.redirect_stderr(sink):
                rounds.append(workload.run_round())
            last = time.perf_counter() - t_round
            measured += last
            check(rounds[-1])
            if args.trace or measured + last > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            untraced = rounds[0].stage_s(0) + rounds[0].stage_s(1)
            bytes_before = workload.bytes_written
            tracer.install()
            with contextlib.redirect_stderr(sink):
                rounds.append(workload.run_round())
            tracer.uninstall()
            check(rounds[-1])
            traced = rounds[-1].stage_s(0) + rounds[-1].stage_s(1)
            bytes_written = workload.bytes_written - bytes_before

        attempted = sum(r.attempted for r in rounds)
        failed = len(checker.failed)
        for msg in checker.failed:
            print(f"check failed: {msg}", file=sys.stderr)

        detail = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
                  "rounds": len(rounds), "env": environment(),
                  "checks_passed": checker.passed, "checks_failed": failed}
        if args.trace:
            problems = tracer.check_spans()
            for msg in problems[:20]:
                print(f"trace check failed: {msg}", file=sys.stderr)
            failed += len(problems)
            listed, breakdown = layer_metrics(tracer, traced / untraced, bytes_written)
            metrics = {name: {"value": listed[name], "unit": unit}
                       for name, unit in layer_units.items()}
            detail["per_layer"] = {**listed, **breakdown}
            tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.csv")
        else:
            named = named_metrics(workload, rounds, setup_s, peak_rss_mb, failed,
                                  attempted)
            detail["named"] = {k: {"value": v, "unit": unit_of(k)} for k, v in named.items()}
            values = {
                "setup_s": setup_s,
                "primary_ref": stage_total(rounds, 0, relative=True),
                "secondary_ref": stage_total(rounds, 1, relative=True),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in e2e_units.items()}
        if args.record:
            golden_all[args.workload] = checker.record(golden_all.get(args.workload, {}))
            golden_path.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
