"""Quadrature and summation grids over family supports.

Continuous expectations use Gauss-Legendre nodes, mapped through log space on
half-line supports so that a single grid resolves every scale in a range of
mean parameters; convolution integrals over (0, z) use Gauss-Jacobi nodes that
absorb the densities' power-law factors at both ends.  The Legendre rules of
the sizes the package uses at its defaults ship precomputed in
``leggauss_table.npz``, so a process reads them rather than building them;
every other rule is built once per process.  Discrete expectations
enumerate the support, truncated where the remaining tail mass is below
``TAIL`` for every parameter under consideration.  Tails are chosen far
smaller than any tolerance used upstream.
"""

from __future__ import annotations

from functools import lru_cache
from importlib.resources import files
from typing import TYPE_CHECKING

import numpy as np
from scipy import special

if TYPE_CHECKING:  # expfam imports this module
    from .expfam import FamilySpec

TAIL = 1e-15

# written by tools/leggauss_table.py from roots_legendre, bit for bit
_TABLE = "leggauss_table.npz"


@lru_cache(maxsize=64)
def _leggauss(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], cached read-only.

    A size stored in the package's table is read from it; any other is built
    by ``roots_legendre``, whose arrays the table holds bit for bit.  That
    build is O(n^2), about 0.5 s at n = 4096, and agrees with
    ``numpy.polynomial.legendre.leggauss`` to rounding (nodes within 2.2e-16,
    weights within 3e-13) at a fraction of its cost: numpy builds and
    diagonalises an n x n companion matrix, O(n^3).  Every grid in the
    process shares the cached arrays, so writes raise.
    """
    with (files("ksample_evalues") / _TABLE).open("rb") as f, \
            np.load(f, allow_pickle=False) as table:
        if f"x{n}" in table.files:
            x, w = table[f"x{n}"], table[f"w{n}"]
        else:
            x, w = special.roots_legendre(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gl(lo: float, hi: float, n: int):
    x, w = _leggauss(n)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return mid + half * x, half * w


@lru_cache(maxsize=64)
def _jacobi01(n: int, a: float, b: float):
    """Gauss-Jacobi nodes s on (0, 1) for the weight s^(a-1) (1-s)^(b-1),
    with that weight divided back out of the returned weights, cached
    read-only.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix on
    [-1, 1] and the weights the squared first components of its
    eigenvectors, accurate to rounding of their sum.  The weights that
    ``roots_jacobi`` derives from polynomial values lose up to 5e-12 of an
    integral at n = 160 and 2e-9 at n = 2048 where an exponent is below 1.
    """
    # imported here, its one user: scipy.linalg adds ~40 ms and ~6 MB to a process
    from scipy.linalg import eigh_tridiagonal

    p, q = b - 1.0, a - 1.0  # exponents at y = 1 and y = -1
    k = np.arange(1, n, dtype=float)
    s2 = 2.0 * k + p + q
    diag = np.concatenate(([(q - p) / (p + q + 2.0)],
                           (q * q - p * p) / (s2 * (s2 + 2.0))))
    # (k + p + q) / (s2 - 1) is 1 at k = 1, also where p + q = -1 makes it 0/0
    ratio = (k[1:] + p + q) / (s2[1:] - 1.0)
    off = 2.0 / s2 * np.sqrt(k * (k + p) * (k + q) / (s2 + 1.0)
                             * np.concatenate(([1.0], ratio)))
    y, vec = eigh_tridiagonal(diag, off)
    mass = 2.0 ** (p + q + 1.0) * special.beta(p + 1.0, q + 1.0)
    w = 0.5 * mass * vec[0] ** 2 * (1.0 + y) ** (1.0 - a) * (1.0 - y) ** (1.0 - b)
    s = 0.5 * (1.0 + y)
    s.flags.writeable = False
    w.flags.writeable = False
    return s, w


def jacobi_nodes(z, n: int, a: float, b: float):
    """Nodes and weights for integrals from 0 to each z in ``z``.

    The integrand may behave like |x|^(a-1) at 0 and |z-x|^(b-1) at z, as a
    density of shape a convolved with one of shape b does: x = z s with s on
    n Gauss-Jacobi nodes for the weight s^(a-1) (1-s)^(b-1), so the rule is
    exact for those factors times a polynomial.  Returns x and weights, each
    of shape (len(z), n), with sum(w * f(x), axis=1) the integral of f over
    the interval between 0 and z.
    """
    s, w = _jacobi01(n, float(a), float(b))
    z = np.asarray(z, dtype=float)[:, None]
    return z * s, np.abs(z) * w


def support_nodes(spec: FamilySpec, mus, n: int = 2048):
    """Nodes and weights for integrals of smooth densities over the support.

    ``mus`` is the collection of mean parameters whose distributions the grid
    must resolve; sum(w * f(x)) approximates the Lebesgue/counting integral.
    The support of one observation is the k = 1 sum grid.
    """
    return sum_nodes(spec, mus, 1, n)


def sum_nodes(spec: FamilySpec, mus, k: int, n: int = 2048):
    """Grid for integrals over the support of Z = X_1 + ... + X_k.

    ``mus`` collects every mean parameter appearing in any of the k-vectors of
    interest; quantile envelopes of the equal-parameter sums bound the
    support of all heterogeneous sums between them.
    """
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    s = spec.support
    lo = k * s.lo if s.discrete else min(spec.sum_quantile(m, k, TAIL) for m in mus)
    return span_nodes(spec, lo, max(spec.sum_quantile(m, k, 1.0 - TAIL) for m in mus), n)


def span_nodes(spec: FamilySpec, lo: float, hi: float, n: int):
    """Nodes and weights over [lo, hi] in the support: its lattice points, or
    n Gauss-Legendre nodes with a margin at each end."""
    s = spec.support
    if s.discrete:
        z = np.arange(int(lo), int(hi) + 1, dtype=float)
        return z, np.ones_like(z)
    if np.isfinite(s.lo) and s.lo == 0.0:
        # half line (0, inf): log-space nodes cover all scales uniformly
        t, w = _gl(np.log(lo) - 2.0, np.log(hi) + 0.2, n)
        z = np.exp(t)
        return z, w * z
    if np.isfinite(s.hi) and s.hi == 0.0:
        # half line (-inf, 0): mirror of the positive case
        t, w = _gl(np.log(-hi) - 2.0, np.log(-lo) + 0.2, n)
        z = -np.exp(t)[::-1]
        return z, (w * np.exp(t))[::-1]
    span = hi - lo
    return _gl(lo - 0.05 * span, hi + 0.05 * span, n)
