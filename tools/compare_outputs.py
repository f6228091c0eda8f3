"""Byte comparison of ``ksev`` outputs at two commits.

    python3 tools/compare_outputs.py PARENT CHANGE

Both commits must name a commit of this repository; either one that does not
is refused, naming it, before anything is exported or run.  Each commit's
files are exported (``bench_pairs.export``) into a temporary directory
(``TMPDIR`` picks where), and one fixed list of ``ksev`` commands runs from
each export's ``src`` with one BLAS thread:

* ``project`` with ``--method li`` and ``--method brute2``, each writing its
  mixture JSON and its ``--trace`` CSV, on eight rows: exponential
  (0.5, 0.25), geometric (10/3, 1.25), gaussian_variance (0.5, 0.25) and
  (10/3, 1.25), beta alpha = 1 and 2 at E[U] (0.5, 0.25), poisson (5, 0.1)
  and bernoulli (0.5, 0.25);
* with ``--mixture`` set to each of those mixtures from the same export,
  ``evaluate --kind gro_m`` over a data file and over a stream file,
  ``growth --kinds gro_m`` and a seeded ``simulate --kind gro_m`` with its
  ``--trace``.

The data and stream files are drawn once, by a fixed seed, and both exports
read the same ones.  Every output file is compared byte for byte (``cmp``)
with the other export's.  The tool prints one line per file that differs or
that only one side wrote, and a count of identical files.  It exits 1 when a
file differs, a command failed or its output is missing, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402

# label, family, fixed params, group means, means given as beta E[U]
ROWS = [
    ("exponential", "exponential", None, (0.5, 0.25), False),
    ("geometric", "geometric", None, (10.0 / 3, 1.25), False),
    ("gaussian_variance_small", "gaussian_variance", None, (0.5, 0.25), False),
    ("gaussian_variance_large", "gaussian_variance", None, (10.0 / 3, 1.25), False),
    ("beta_alpha1", "beta", '{"alpha": 1.0}', (0.5, 0.25), True),
    ("beta_alpha2", "beta", '{"alpha": 2.0}', (0.5, 0.25), True),
    ("poisson", "poisson", None, (5.0, 0.1), False),
    ("bernoulli", "bernoulli", None, (0.5, 0.25), False),
]
METHODS = ("li", "brute2")
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def problem_flags(family, fixed, means, beta) -> list[str]:
    flags = ["--family", family, "--mu", ",".join(map(repr, means))]
    if fixed:
        flags += ["--fixed", fixed]
    if beta:
        flags.append("--beta-means")
    return flags


def write_inputs(dest: Path) -> None:
    """A data file of 20 blocks and a stream file of 20 values per group for
    each row, inside the row's support: 0/1 for bernoulli, counts for
    poisson and geometric, negative values for beta and positive ones
    otherwise."""
    dest.mkdir(parents=True)
    rng = np.random.default_rng(20261020)
    for label, family, _, means, _ in ROWS:
        shape = (20, len(means))
        if family == "bernoulli":
            blocks = (rng.random(shape) < 0.4).astype(int)
        elif family in ("poisson", "geometric"):
            blocks = rng.poisson(2.0, shape)
        else:
            blocks = rng.exponential(0.5, shape) * (-1.0 if family == "beta" else 1.0)
        (dest / f"{label}.data").write_text(
            "".join(",".join(map(repr, b.tolist())) + "\n" for b in blocks),
            encoding="utf-8")
        (dest / f"{label}.stream").write_text(
            "group,value\n" + "".join(f"{g},{v!r}\n" for b in blocks
                                      for g, v in enumerate(b.tolist(), start=1)),
            encoding="utf-8")


def commands(inputs: Path) -> list[list[str]]:
    """The fixed command list; every output goes to the current --out-dir."""
    out = []
    for label, *problem in ROWS:
        flags = problem_flags(*problem)
        for method in METHODS:
            name = f"{label}_{method}"
            out.append(["project", *flags, "--method", method,
                        "--out", f"{name}.json", "--trace", f"{name}_trace.csv"])
        for method in METHODS:
            name = f"{label}_{method}"
            mix = ["--kind", "gro_m", "--mixture", f"{name}.json"]
            out += [
                ["evaluate", *flags, *mix, "--data", str(inputs / f"{label}.data"),
                 "--out", f"{name}_data.json"],
                ["evaluate", *flags, *mix, "--stream", str(inputs / f"{label}.stream"),
                 "--out", f"{name}_stream.json"],
                ["growth", *flags, "--kinds", "gro_m", "--mixture", f"{name}.json",
                 "--out", f"{name}_growth.json"],
                ["simulate", *flags, *mix, "--trials", "200", "--max-blocks", "50",
                 "--seed", "1", "--out", f"{name}_simulate.json",
                 "--trace", f"{name}_simulate_trace.csv"],
            ]
    return out


def run_all(tree: Path, out: Path, inputs: Path) -> list[str]:
    """Run every command from ``tree`` into ``out``; the failed ones, named."""
    out.mkdir(parents=True)
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src")}
    failed = []
    for argv in commands(inputs):
        proc = subprocess.run(
            [sys.executable, "-m", "ksample_evalues.cli", "--out-dir", str(out), *argv],
            cwd=out, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            failed.append(f"{' '.join(argv[:1] + argv[-2:])}: "
                          + (proc.stderr.strip().splitlines() or ["no message"])[-1])
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    sides = {}
    for side in ("parent", "change"):
        name = getattr(args, side)
        try:
            sides[side] = bench_pairs.git("rev-parse", "--verify", "--quiet",
                                          f"{name}^{{commit}}")
        except subprocess.CalledProcessError:
            ap.error(f"{side} {name!r} names no commit")

    workdir = Path(tempfile.mkdtemp(prefix="compare_outputs-"))
    try:
        inputs = workdir / "inputs"
        write_inputs(inputs)
        outs, failed = {}, []
        for side, commit in sides.items():
            tree = workdir / f"{side}-{commit[:12]}"
            bench_pairs.export(commit, tree)
            outs[side] = workdir / f"{side}-out"
            failed += [f"{side}: {f}" for f in run_all(tree, outs[side], inputs)]
        names = {side: {p.name for p in out.iterdir()} for side, out in outs.items()}
        differ = sorted(n for n in names["parent"] & names["change"]
                        if not filecmp.cmp(outs["parent"] / n, outs["change"] / n,
                                           shallow=False))
        lone = sorted(names["parent"] ^ names["change"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failed:
        print(f"failed {line}", file=sys.stderr)
    for name in differ:
        print(f"differs {name}")
    for name in lone:
        print(f"only one side wrote {name}")
    same = len(names["parent"] & names["change"]) - len(differ)
    print(f"{same} files cmp-identical, {len(differ)} differ, {len(lone)} on one "
          f"side only, {len(failed)} commands failed "
          f"({sides['parent'][:12]} vs {sides['change'][:12]})")
    return 1 if differ or lone or failed else 0


if __name__ == "__main__":
    sys.exit(main())
