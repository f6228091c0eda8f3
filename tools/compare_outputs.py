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
  ``--trace``;
* without a mixture, on the exponential, poisson and bernoulli rows:
  ``evaluate`` over the data file and over the stream file for each of
  ``cond``, ``gro_iid`` and ``pseudo``, ``growth`` by quadrature and by
  seeded Monte Carlo, and four seeded ``simulate --kind cond`` campaigns,
  each with its ``--trace``: the default (threshold policy, null truth),
  ``--policy fixed``, ``--policy budget`` and ``--truth alt``;
* an exponential quadrature ``heatmap --n 5`` with its ``--slices``.

That is 162 output files a side.

The data and stream files are drawn once, by a fixed seed, and both exports
read the same ones.  Every output file is compared byte for byte (``cmp``)
with the other export's.  The tool prints one line per file that differs,
with the largest absolute and relative move over its numbers (JSON leaves,
or CSV cells, matched by position; ``largest_move``) or that its shapes
differ, one line per file that only one side wrote, and a count of identical
files.  It exits 1 when a file differs, a command failed or its output is
missing, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import math
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
# rows whose statistics without a mixture are also run, and those statistics
PLAIN_ROWS = ("exponential", "poisson", "bernoulli")
PLAIN_KINDS = ("cond", "gro_iid", "pseudo")
# file-name suffix and flags of each plain simulate campaign: every policy
# and truth of the campaign loop
SIMULATE_VARIANTS = [("", []), ("_fixed", ["--policy", "fixed"]),
                     ("_budget", ["--policy", "budget"]), ("_alt", ["--truth", "alt"])]
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
        if label not in PLAIN_ROWS:
            continue
        for kind in PLAIN_KINDS:
            name = f"{label}_{kind}"
            out += [
                ["evaluate", *flags, "--kind", kind, "--data", str(inputs / f"{label}.data"),
                 "--out", f"{name}_data.json"],
                ["evaluate", *flags, "--kind", kind,
                 "--stream", str(inputs / f"{label}.stream"), "--out", f"{name}_stream.json"],
            ]
        out += [
            ["growth", *flags, "--out", f"{label}_growth.json"],
            ["growth", *flags, "--method", "mc", "--mc-n", "20000", "--seed", "1",
             "--out", f"{label}_growth_mc.json"],
        ]
        for variant, extra in SIMULATE_VARIANTS:
            name = f"{label}_cond_simulate{variant}"
            out.append(["simulate", *flags, "--kind", "cond", "--trials", "200",
                        "--max-blocks", "50", "--seed", "1", *extra,
                        "--out", f"{name}.json", "--trace", f"{name}_trace.csv"])
    out.append(["heatmap", "--family", "exponential", "--kinds", "groiid,cond", "--n", "5",
                "--out", "heatmap_exponential.csv",
                "--slices", "heatmap_exponential_slices.csv"])
    return out


def _values(path: Path) -> list[tuple]:
    """(position, value) for every JSON leaf or CSV cell of the file at
    ``path``, in order; a CSV cell that parses as a float is that float."""
    if path.suffix == ".json":
        def leaves(obj, at):
            if isinstance(obj, dict):
                for key in sorted(obj):
                    yield from leaves(obj[key], at + (key,))
            elif isinstance(obj, list):
                for i, item in enumerate(obj):
                    yield from leaves(item, at + (i,))
            else:
                yield at, obj
        return list(leaves(json.loads(path.read_text(encoding="utf-8")), ()))

    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text
    with open(path, newline="", encoding="utf-8") as fh:
        return [((r, c), cell(text)) for r, row in enumerate(csv.reader(fh))
                for c, text in enumerate(row)]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def largest_move(parent: Path, change: Path) -> tuple[float, float] | None:
    """The largest absolute and relative move |y - x| and |y - x| / |x| over
    the numbers x of ``parent`` and y at the same position in ``change``
    (inf where x is 0, or one side alone is NaN); None when the files differ
    in shape (positions) or in a value that is no number."""
    a, b = _values(parent), _values(change)
    if [at for at, _ in a] != [at for at, _ in b]:
        return None
    absolute = relative = 0.0
    for (_, x), (_, y) in zip(a, b):
        if not (_is_number(x) and _is_number(y)):
            if x != y:
                return None
            continue
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        move = abs(y - x)
        move = math.inf if math.isnan(move) else move
        absolute = max(absolute, move)
        relative = max(relative, move / abs(x) if x else math.inf)
    return absolute, relative


def describe_move(parent: Path, change: Path) -> str:
    move = largest_move(parent, change)
    if move is None:
        return "shapes differ"
    return f"largest move {move[0]:.3g} absolute, {move[1]:.3g} relative"


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
        differ = {n: describe_move(outs["parent"] / n, outs["change"] / n)
                  for n in sorted(names["parent"] & names["change"])
                  if not filecmp.cmp(outs["parent"] / n, outs["change"] / n,
                                     shallow=False)}
        lone = sorted(names["parent"] ^ names["change"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failed:
        print(f"failed {line}", file=sys.stderr)
    for name, move in differ.items():
        print(f"differs {name}: {move}")
    for name in lone:
        print(f"only one side wrote {name}")
    same = len(names["parent"] & names["change"]) - len(differ)
    print(f"{same} files cmp-identical, {len(differ)} differ, {len(lone)} on one "
          f"side only, {len(failed)} commands failed "
          f"({sides['parent'][:12]} vs {sides['change'][:12]})")
    return 1 if differ or lone or failed else 0


if __name__ == "__main__":
    sys.exit(main())
