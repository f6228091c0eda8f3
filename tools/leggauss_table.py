"""Write or check the shipped table of Gauss-Legendre rules.

    python3 tools/leggauss_table.py           # (re)write the table
    python3 tools/leggauss_table.py --check   # compare it with fresh builds

``src/ksample_evalues/leggauss_table.npz`` holds, for each n in ``SIZES``,
the float64 arrays ``x<n>`` and ``w<n>`` that ``scipy.special.roots_legendre(n)``
returns, bit for bit, so that ``_quad._leggauss`` reads the rules the package
uses at its defaults instead of building them in every process.  The zip
members carry a fixed timestamp, so rewriting an unchanged table leaves its
bytes unchanged.  ``--check`` writes nothing; it exits 1 naming every size
whose stored arrays are missing or differ from a fresh build (as after a
SciPy release that changes them), and 0 otherwise.  This tool is the table's
only writer.
"""

from __future__ import annotations

import argparse
import sys
import zipfile
from pathlib import Path

import numpy as np
from scipy import special

TABLE = Path(__file__).resolve().parents[1] / "src" / "ksample_evalues" / "leggauss_table.npz"

# null_expectation_profile, ripr._SEARCH_NZ, the sum_nodes default,
# _SumGrid's n_z and growth._GAP_NODES
SIZES = (256, 400, 2048, 3000, 4096)


def write(path: Path) -> None:
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as z:
        for n in SIZES:
            for key, a in zip("xw", special.roots_legendre(n)):
                with z.open(zipfile.ZipInfo(f"{key}{n}.npy"), "w") as f:
                    np.lib.format.write_array(f, a, allow_pickle=False)


def stale(path: Path) -> list[int]:
    """The sizes whose stored arrays are missing or differ from a fresh build."""
    with np.load(path, allow_pickle=False) as table:
        return [n for n in SIZES
                if not all(f"{key}{n}" in table.files
                           and np.array_equal(table[f"{key}{n}"], a)
                           for key, a in zip("xw", special.roots_legendre(n)))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare the table with fresh builds and write nothing")
    args = ap.parse_args(argv)
    if not args.check:
        write(TABLE)
        print(f"wrote {TABLE.name}: n = {', '.join(map(str, SIZES))}")
        return 0
    bad = stale(TABLE)
    if bad:
        print(f"{TABLE.name}: stored rules differ from roots_legendre at "
              f"n = {', '.join(map(str, bad))}; rewrite with tools/leggauss_table.py",
              file=sys.stderr)
        return 1
    print(f"{TABLE.name}: n = {', '.join(map(str, SIZES))} match roots_legendre")
    return 0


if __name__ == "__main__":
    sys.exit(main())
