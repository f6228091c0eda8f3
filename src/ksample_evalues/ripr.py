"""Approximating the reverse information projection onto the i.i.d. null hull.

The growth-rate-optimal e-value against the in-family i.i.d. null divides the
alternative's density by the reverse information projection (RIPr): the
KL-closest element of the convex hull of i.i.d. product distributions.  The
RIPr rarely has a closed form, so this module approximates it by finite
mixtures and *certifies* the result: a mixture is shipped together with the
worst-case null expectation of the induced likelihood ratio over a documented
grid of null means.  A certified value c makes the ratio a (c-1)-approximate
e-value; a certificate never comes without its problem (``MixtureNull.config``).

Two searches are provided, and both return ``(mixture, trace)``:

* ``li_approximate`` -- greedy mixture growth: each step adds one component,
  choosing the convex weight and the new null mean that minimize the KL
  divergence from the alternative to the mixture.
* ``brute_force_two_component`` -- one table of two-component mixtures
  (weight, two null means), minimizing the worst-case null expectation.

Both searches run on a coarse z grid and certify on a fine one.  The search
grid has ``_SEARCH_NZ`` = 400 nodes, the certification grid ``n_z`` (3000 by
default), over the same window and null means; a discrete family's grid is
its lattice, whatever ``n_z``, so it has one grid only.  The mixture a search
picks does not depend on that resolution: on the benchmark rows it is the
one the search finds on the fine grid.  A certificate does: on 400 nodes the
quadrature edge check refuses the pooled-mean point of exponential
(0.5, 0.25), which 3000 nodes pass.  So every certificate, and Li's trace and
stop rule, are computed on the ``n_z`` grid.

Both searches run on one search object (``_Search``): it builds the grids and
the candidates' tilts once, takes every weight step through one table, writes
each trace row and certifies.  For a density p and each candidate density q
on the z grid, the table finds the convex weight a on a grid minimizing an
objective of a * p + (1 - a) * q: for Li the KL divergence from the
alternative, p the current mixture and q a new component; for the brute force
the coarse worst-case null expectation, p and q a pair's components.  Each
objective is convex in a, so a ternary search (``_convex_argmin``) returns
the exhaustive sweep's grid point, ties going to the lowest index.  The
table's fixed-size chunks run on a thread per usable CPU, at most one per
chunk, or on the calling thread when that is one (Li at default sizes), so no
result depends on the worker count.  Both searches rank the table by one rule
(``_ranked``): lowest objective, then weight, then candidate.  A trace row is
computed on the components of the mixture the certificate takes at that step,
by the certificate's own computation, so a trace's last row equals its
certificate bit for bit.

Every null expectation here reduces to a one-dimensional integral: a mixture
of i.i.d. product nulls depends on the block only through the sum z of the
sufficient statistics, so for any k

    E_null(mu0)[ p_alt(X^k) / p_mix(X^k) ]
        = integral of  exp(lam0 z - k A(lam0)) * m_alt(z) / d_mix(z)  dz,

with m_alt the sum density under the alternative and d_mix(z) the mixture of
tilts sum_c w_c exp(lam_c z - k A(lam_c)), whose log (``_log_sum_of_tilts``)
is every mixture denominator of ``evariables``.  The same collapse turns
D(alt || mixture) into a one-dimensional integral.  Grid searches evaluate
these as matrix products over a fixed z grid.

Grid endpoints are artifact decisions: worst-case certificates are taken over
a *documented* range of null means around the alternative (see
``default_search_range``), not over the entire mean space.  For several
families a two-component mixture's null expectation provably exceeds 1 near
the boundary of the mean space, so an unrestricted supremum would be
meaningless for any finite mixture that is not the exact RIPr.
"""

from __future__ import annotations

import contextvars
import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from . import _quad
from .expfam import (
    Alternative,
    ComputationError,
    FamilySpec,
    MeanDomainError,
    _check_keys,
    _require_at_least,
    _require_real,
    _sum_leading,
    problem_from_config,
)

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Certificate:
    """Worst-case null expectation of the mixture ratio over a mean grid."""

    sup_expectation: float
    mu0_grid_size: int
    mu0_lo: float
    mu0_hi: float
    method: str
    argmax_mu0: float

    def __post_init__(self):
        for name in ("sup_expectation", "mu0_lo", "mu0_hi", "argmax_mu0"):
            value = getattr(self, name)
            _require_real(**{name: value})
            if not math.isfinite(value):
                raise ValueError(f"certificate {name} must be finite, got {value!r}")
        _require_at_least(1, mu0_grid_size=self.mu0_grid_size)
        if not isinstance(self.method, str):
            raise ValueError(f"certificate method must be a string, got {self.method!r}")
        lo, hi, argmax = self.mu0_lo, self.mu0_hi, self.argmax_mu0
        if lo > hi:
            raise ValueError(f"certificate needs mu0_lo <= mu0_hi, got {lo!r} > {hi!r}")
        if not lo <= argmax <= hi:
            raise ValueError(f"certificate argmax_mu0={argmax!r} lies outside [{lo!r}, {hi!r}]")

    def to_dict(self) -> dict:
        return asdict(self)


class CertificationError(ValueError):
    """A mixture without a valid certificate was used where one is required."""


@dataclass(frozen=True)
class MixtureNull:
    """Finite convex combination of i.i.d. product nulls.

    ``components`` is a tuple of (weight, mu0) pairs.  A correct search can
    never certify a value materially below 1: equality holds exactly at the
    RIPr, so ``sup_expectation >= 1 - 1e-6`` is enforced.

    ``config`` names the problem the certificate was computed for, as
    ``spec.to_config(means)``: family, fixed params and one mean per block
    coordinate (after any multiplicity expansion), stored as ``to_config``
    writes it.  The searches set it; a certificate without it is refused, and
    ``require_problem`` refuses any other problem.
    """

    components: tuple[tuple[float, float], ...]
    certificate: Optional[Certificate] = None
    config: Optional[dict] = field(default=None, hash=False)

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        for w, m in self.components:
            _require_real(w=w, mu0=m)
            for name, v in (("weight", w), ("mean", m)):
                if not math.isfinite(v):
                    raise ValueError(f"mixture {name} must be finite, got {v!r}")
        ws = np.array([w for w, _ in self.components], dtype=float)
        if np.any(ws < -1e-15) or np.any(ws > 1 + 1e-12):
            raise ValueError("mixture weights must lie in [0, 1]")
        if abs(ws.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {ws.sum()!r}, not 1")
        if self.config is not None:
            spec, means = problem_from_config(self.config)
            object.__setattr__(self, "config", spec.to_config(means))
        if self.certificate is not None:
            if self.config is None:
                raise CertificationError("certified mixture has no config, so its problem is "
                                         "unknown; give config=spec.to_config(means)")
            if self.certificate.sup_expectation < 1.0 - 1e-6:
                raise ValueError(
                    "certificate below 1 is impossible for a correct search "
                    f"(got {self.certificate.sup_expectation})"
                )

    def require_certificate(self) -> Certificate:
        if self.certificate is None:
            raise CertificationError("mixture is not certified; obtain it from li_approximate, "
                                     "brute_force_two_component or point_mixture")
        return self.certificate

    def certificate_dict(self) -> dict:
        return self.require_certificate().to_dict()

    def require_problem(self, spec: FamilySpec, means: Sequence[float]) -> None:
        """Refuse an uncertified mixture, and use on a problem other than the
        one the mixture was certified for, naming both."""
        self.require_certificate()
        used = spec.to_config(means)
        if used != self.config:
            raise CertificationError(
                f"mixture was certified for {_describe(self.config)}, but is "
                f"used on {_describe(used)}"
            )

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.components], dtype=float)

    @property
    def means(self) -> np.ndarray:
        return np.array([m for _, m in self.components], dtype=float)

    def log_density_of_sum(self, spec: FamilySpec, k: int, z) -> np.ndarray:
        """Log mixture product density w.r.t. the base measure.

        A mixture of i.i.d. products depends on the block only through the
        coordinate sum z, as sum_c w_c exp(lam_c z - k A(lam_c)).  Only the
        benchmark's tracer names it, so it stays until the benchmark changes.
        """
        return _log_sum_of_tilts(*self._tilts(spec, k), z)

    def _tilts(self, spec: FamilySpec, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each component's lam_c and offset k A(lam_c) - log w_c: its term
        of the density of a k-sum z is exp(lam_c z - offset_c)."""
        lams, las = spec._natural_params(self.means)
        return lams, k * las - np.log(np.maximum(self.weights, 1e-300))

    def to_json_dict(self) -> dict:
        out = {
            "components": [{"w": w, "mu0": m} for w, m in self.components],
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        if self.config is not None:
            out["config"] = self.config
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "MixtureNull":
        """Inverse of ``to_json_dict``; also reads a ``ksev project`` file,
        whose ``config`` the constructor resolves."""
        _check_keys("mixture", d, ("components",), ("certificate", "config"))
        if not isinstance(d["components"], list):
            raise ValueError(f"mixture components must be a list, got {d['components']!r}")
        for c in d["components"]:
            _check_keys("mixture component", c, ("w", "mu0"))
        comps = tuple((c["w"], c["mu0"]) for c in d["components"])
        cert = None
        if "certificate" in d:
            _check_keys("mixture certificate", d["certificate"],
                        [f.name for f in fields(Certificate)])
            cert = Certificate(**d["certificate"])
        return cls(comps, cert, d.get("config"))


def _log_sum_of_tilts(lams, offsets, z) -> np.ndarray:
    """log sum_c exp(lams_c z - offsets_c) at every entry of z, by logsumexp;
    offsets k A(lam_c) - log w_c (``MixtureNull._tilts``) or A(lam_c) + log k.
    The component axis comes first, so max and sum run over whole arrays of
    z's shape rather than over a short trailing axis."""
    z = np.asarray(z, dtype=float)
    shape = (-1,) + (1,) * z.ndim
    logs = np.reshape(lams, shape) * z - np.reshape(offsets, shape)
    mx = logs.max(axis=0)
    return mx + np.log(_sum_leading(np.exp(logs - mx)))


def _describe(config: dict) -> str:
    return (f"family {config['family']}, fixed params {config['fixed_params']}, "
            f"means {config['mean_params']}")


def point_mixture(
    spec: FamilySpec,
    alt: Alternative,
    mu0: float,
    count: int = 1000,
    lo: float | None = None,
    hi: float | None = None,
) -> MixtureNull:
    """Single-component mixture at mu0, certified on the default grid."""
    mu0 = spec.check_mean(mu0)
    return _certify(_SumGrid(spec, alt, count, lo, hi), [1.0], [mu0], "point")


def default_search_range(spec: FamilySpec, alt: Alternative) -> tuple[float, float]:
    """Default endpoints for component and certification grids.

    Each end of the hull of the alternative means moves outward by a rule
    read off the mean space: halfway to a finite boundary, and on a half
    line's infinite side to twice its distance from the finite boundary (so
    x1/2 and x2 on (0, inf), x2 and x1/2 on (-inf, 0)).  On the whole line
    both ends move by two standard deviations at the pooled mean plus the
    span.  Endpoints are artifact choices and every search accepts explicit
    overrides.
    """
    lo, hi = min(alt.mu), max(alt.mu)
    a, b = spec.mean_space
    if math.isinf(a) and math.isinf(b):
        pad = 2.0 * math.sqrt(spec.variance(alt.mu0_star)) + (hi - lo)
        return lo - pad, hi + pad
    return (a + 0.5 * (lo - a) if math.isfinite(a) else b - 2.0 * (b - lo),
            b - 0.5 * (b - hi) if math.isfinite(b) else a + 2.0 * (hi - a))


# Li's search stops once its certificate is this close to 1; for families
# whose projection is a single point that happens at the first step.
_STOP_SUP = 1.0 + 1e-6
# The brute force ranks every candidate on every _COARSE_STRIDE-th
# certification point, then re-ranks the best _REFINE_TOP on all of them.
_COARSE_STRIDE = 4
_REFINE_TOP = 500
# Both searches run on a z grid of at most this many nodes; certificates use
# the n_z grid.
_SEARCH_NZ = 400
# A grid's tilt rows are shifted at each z by the largest tilt over this many
# of its certification means, spread evenly over the window, ends included.
_SHIFT_MEANS = 100


class _SumGrid:
    """The two grids of one problem: sums z and certification null means.

    ``wm`` is quadrature-weight times the alternative's sum density, masked to
    nodes that carry mass; every null expectation and KL against a mixture is
    a weighted sum over these nodes.  ``mu0s`` holds ``count`` equally spaced
    null means over [lo, hi], each end defaulting to ``default_search_range``.
    Both ends must lie in the mean space with lo <= hi; lo == hi is a single
    point.  The z grid resolves the alternative, whose sum density weights
    every integral over it, and both ends.

    Every density the grid holds, the tilt rows and the mixtures built from
    them, is scaled at node z by e^(-s(z)), with s(z) = ``shift`` the largest
    tilt lam0 * z - k * A(lam0) at z over ``_SHIFT_MEANS`` certification
    means, so the rows stay finite where the tilts themselves overflow.  The
    factor cancels in every ratio of densities (``expectations``, ``sup``,
    ``check_edges`` and both searches' tables), and ``kl`` takes it out
    through ``alt_self_term``.
    """

    def __init__(self, spec: FamilySpec, alt: Alternative, count: int = 1000,
                 lo: float | None = None, hi: float | None = None,
                 n_z: int = 3000):
        _require_at_least(1, count=count, n_z=n_z)
        if lo is None or hi is None:
            dlo, dhi = default_search_range(spec, alt)
            lo = dlo if lo is None else lo
            hi = dhi if hi is None else hi
        lo, hi = float(lo), float(hi)
        space_lo, space_hi = spec.mean_space
        for name, end in (("lo", lo), ("hi", hi)):
            if not space_lo < end < space_hi:
                raise MeanDomainError(
                    f"null-mean grid end {name}={end!r} outside mean space "
                    f"({space_lo}, {space_hi}) of family '{spec.family_id}'"
                )
        if lo > hi:
            raise ValueError(
                f"null-mean grid needs lo <= hi, got lo={lo!r} > hi={hi!r}"
            )
        self.spec = spec
        self.alt = alt
        self.k = alt.k
        self.lo, self.hi = lo, hi
        self.mu0s = np.linspace(self.lo, self.hi, count)
        z, w = _quad.sum_nodes(spec, list(alt.mu) + [self.lo, self.hi], alt.k, n=n_z)
        log_m = spec.sum_log_pdf(list(alt.mu), z)
        wm = w * np.exp(log_m)
        keep = wm > wm.max() * 1e-280
        self.z = z[keep]
        self.wm = wm[keep]
        pick = np.linspace(0, count - 1, min(count, _SHIFT_MEANS)).astype(np.intp)
        self.shift = self._log_tilts(self.mu0s[pick]).max(axis=0)
        lams, las = spec._natural_params(alt.mu)
        # E_alt[log p_alt(X^k)] w.r.t. the base measure, less E_alt[s(Z)]
        self.alt_self_term = (float(np.sum(lams * np.array(alt.mu) - las))
                              - float(self.shift @ self.wm))
        self._cert_rows = None

    def _log_tilts(self, mu0s) -> np.ndarray:
        """Rows of lam0 * z - k * A(lam0) for each null mean, in one array."""
        lam, la = self.spec._natural_params(np.atleast_1d(np.asarray(mu0s, dtype=float)))
        rows = np.multiply.outer(lam, self.z)
        rows -= self.k * la[:, None]
        return rows

    def tilt_rows(self, mu0s) -> np.ndarray:
        """Rows of exp(lam0 * z - k * A(lam0) - s(z)) for each null mean,
        built in place in one array."""
        rows = self._log_tilts(mu0s)
        rows -= self.shift
        return np.exp(rows, out=rows)

    def cert_rows(self) -> np.ndarray:
        """``tilt_rows(mu0s) * wm``, built once: row i dotted with 1/d is the
        null expectation at mu0s[i] of the ratio against mixture density d."""
        if self._cert_rows is None:
            self._cert_rows = self.tilt_rows(self.mu0s)
            self._cert_rows *= self.wm
        return self._cert_rows

    def mixture(self, ws, mus) -> np.ndarray:
        """Density on the z grid of the mixture (ws, mus) of i.i.d. nulls."""
        return self.tilt_rows(mus).T @ np.asarray(ws, dtype=float)

    def expectations(self, d) -> np.ndarray:
        """E under each null mean in ``mu0s`` of the ratio against mixture
        density d on the z grid."""
        return self.cert_rows() @ (1.0 / d)

    def kl(self, d):
        """D(alt || mixture) for mixture density d on the z grid (one value
        per row when d is two-dimensional)."""
        return self.alt_self_term - np.log(np.maximum(d, 1e-300)) @ self.wm

    def sup(self, d) -> tuple[float, int]:
        """Largest null expectation on ``mu0s`` of the ratio against mixture
        density d, and the index of the null mean attaining it."""
        vals = self.expectations(d)
        i = int(np.argmax(vals))
        return float(vals[i]), i

    def check_edges(self, d, i) -> None:
        """Refuse a null expectation at mu0 = ``mu0s[i]`` (row i of ``cert_rows``
        over d) whose quadrature is degenerate or has mass at the z grid's ends."""
        mu0 = float(self.mu0s[i])
        integrand = self.cert_rows()[i] / d
        total = integrand.sum()
        if total <= 0 or not np.isfinite(total):
            raise ComputationError(
                f"null expectation quadrature degenerate at mu0={mu0}"
            )
        if not self.spec.support.discrete:
            edge = integrand[:4].sum() + integrand[-4:].sum()
            if edge > 1e-8 * total:
                raise ComputationError(
                    f"null expectation quadrature not converged at mu0={mu0}: "
                    f"edge mass fraction {edge / total:.2e}"
                )

    def worst(self, ws, mus) -> tuple[float, float]:
        """``sup`` for the mixture (ws, mus), with the quadrature checked at
        the maximizing null mean."""
        d = self.mixture(ws, mus)
        sup, i = self.sup(d)
        self.check_edges(d, i)
        return sup, float(self.mu0s[i])


def _certify(grid: _SumGrid, ws, mus, method: str) -> MixtureNull:
    """The mixture (ws, mus) with its certificate on ``grid``, bound to the
    grid's problem."""
    sup, argmax = grid.worst(ws, mus)
    cert = Certificate(sup, grid.mu0s.size, grid.lo, grid.hi, method, argmax)
    return MixtureNull(tuple(zip(ws, mus)), cert, grid.spec.to_config(grid.alt.mu))


def worst_case_expectation(
    spec: FamilySpec,
    alt: Alternative,
    mixture: MixtureNull,
    count: int = 1000,
    lo: float | None = None,
    hi: float | None = None,
) -> tuple[float, float]:
    """Max over a null-mean grid of E_null[alt density / mixture density],
    and the null mean attaining it.

    The grid defaults to 1000 equally spaced points over
    ``default_search_range``.  Quadrature non-convergence at the maximizing
    point raises ComputationError naming that point.  On a certificate's own
    grid (``mu0_grid_size``, ``mu0_lo``, ``mu0_hi``) this gives back the
    certified value and argmax exactly.
    """
    grid = _SumGrid(spec, alt, count, lo, hi)
    return grid.worst(mixture.weights, mixture.means)


def expectation_profile(
    spec: FamilySpec,
    alt: Alternative,
    mixture: MixtureNull,
    count: int = 1000,
    lo: float | None = None,
    hi: float | None = None,
):
    """The full curve mu0 -> E_null(mu0)[ratio] on the certification grid."""
    grid = _SumGrid(spec, alt, count, lo, hi)
    return grid.mu0s, grid.expectations(grid.mixture(mixture.weights, mixture.means))


def kl_to_mixture(spec: FamilySpec, alt: Alternative, mixture: MixtureNull) -> float:
    """D(alternative || mixture), by quadrature over the default z grid."""
    grid = _SumGrid(spec, alt)
    return float(grid.kl(grid.mixture(mixture.weights, mixture.means)))


def _convex_argmin(f, n: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest grid index attaining the minimum of each of ``rows`` discretely
    convex objectives on an n-point grid, and that minimum: what ``np.argmin``
    over each full row gives.

    ``f`` maps an integer array of grid indices, one row per objective and at
    most three columns, to the objectives at those indices.  Each ternary step
    compares m1 = lo + w//3 with m2 = lo + w - w//3 in the bracket
    [lo, lo + w].  By convexity the lowest minimizer lies right of m1 when
    f(m1) > f(m2), and left of m2 otherwise, so either way the bracket keeps
    w - w//3 - 1 of its width and every row keeps the same width.  n = 100
    takes 19 evaluations per row.
    """
    lo = np.zeros(rows, dtype=np.intp)
    w = n - 1
    while w > 2:
        third = w // 3
        vals = f(np.stack([lo + third, lo + w - third], axis=1))
        lo = np.where(vals[:, 0] > vals[:, 1], lo + third + 1, lo)
        w -= third + 1
    idx = lo[:, None] + np.arange(w + 1)
    vals = f(idx)
    best = np.argmin(vals, axis=1)
    r = np.arange(rows)
    return idx[r, best], vals[r, best]


def _ranked(rows, ai, objective) -> np.ndarray:
    """``rows`` by lowest ``objective`` (NaN last), then lowest weight index
    ``ai[rows]``, then lowest row: the order both searches rank by."""
    return rows[np.lexsort((rows, ai[rows], objective))]


class _Search:
    """Setup, weight table, trace rows and result of both searches: the search
    ``grid`` of ``min(n_z, _SEARCH_NZ)`` nodes and the n_z-node ``cert`` grid
    (one grid for a discrete family, whose lattice ignores the node count,
    or when n_z <= _SEARCH_NZ), the ``mu_count`` candidate means ``mus``,
    their tilts ``u`` on the search grid and the weight grid ``alphas``."""

    def __init__(self, spec: FamilySpec, alt: Alternative, count: int, lo, hi,
                 n_z: int, mu_count: int, n_alpha: int):
        self.t_start = time.perf_counter()
        self.cert = self.grid = _SumGrid(spec, alt, count, lo, hi, n_z)
        if not spec.support.discrete and n_z > _SEARCH_NZ:
            self.grid = _SumGrid(spec, alt, count, lo, hi, _SEARCH_NZ)
        self.mus = np.linspace(self.grid.lo, self.grid.hi, mu_count)
        self.alphas = np.linspace(0.0, 1.0, n_alpha)
        self.u = self.grid.tilt_rows(self.mus)  # (mu_count, search nodes)

    def table(self, objective, p, q) -> tuple[np.ndarray, np.ndarray, str]:
        """Per row r, the lowest index into ``alphas`` minimizing ``objective``
        (one value per density row on the search grid, convex in a) of
        a * p_r + (1 - a) * u[q[r]], that minimum, and how the table ran; p_r
        is u[p[r]] for indices p, or p for one density of shape (1, nodes).
        Chunks write disjoint slices; their size is fixed, whatever the worker
        count, because the BLAS row shape decides an objective's last bit."""
        u, alphas = self.u, self.alphas
        ai, vals = np.empty(q.size, dtype=np.intp), np.empty(q.size)
        chunk = max(1, int(1.5e5 // (3 * u.shape[1])))  # ~1.2 MB per (chunk, 3, nodes) tensor
        starts = range(0, q.size, chunk)

        def fill(start):
            part = slice(start, start + chunk)
            dp = (u[p[part]] if p.ndim == 1 else p)[:, None, :]
            dq = u[q[part]][:, None, :]

            def at(i):
                a = alphas[i][..., None]
                d = a * dp + (1.0 - a) * dq
                return objective(d.reshape(-1, d.shape[-1])).reshape(i.shape)

            ai[part], vals[part] = _convex_argmin(at, alphas.size, dq.shape[0])

        workers = min(len(os.sched_getaffinity(0)), len(starts))
        if workers == 1:
            for start in starts:
                fill(start)
        else:
            with ThreadPoolExecutor(workers) as pool:
                # np.errstate is a context variable: each chunk runs in a copy
                # of the caller's context, so its error handling holds there
                for future in [pool.submit(contextvars.copy_context().run, fill, s)
                               for s in starts]:
                    future.result()
        return ai, vals, f"{len(starts)} chunks on {workers} workers"

    def trace_row(self, it: int, ws, mus) -> dict:
        """Row ``it`` of a trace: KL divergence from the alternative (0 at delta
        = 0) and worst-case null expectation of the mixture (ws, mus) on
        ``cert``, its density built as ``_certify`` builds it, so a row on
        the certified components carries the certificate's value."""
        d = self.cert.mixture(ws, mus)
        sup, _ = self.cert.sup(d)
        kl = float(self.cert.kl(d)) if self.cert.alt.delta else 0.0
        return {"iter": it, "kl": kl, "sup_expectation": sup}

    def result(self, name: str, ws, mus, method: str, steps: str,
               trace: list[dict]) -> tuple[MixtureNull, list[dict]]:
        """A search's result: the mixture (ws, mus) certified on ``cert`` and
        ``trace``, in one DEBUG record with both grids' node counts, the steps
        and the wall time of search (from setup) and certification."""
        t_cert = time.perf_counter()
        mix = _certify(self.cert, ws, mus, method)
        _log.debug("%s: search grid %d nodes, certification grid %d nodes, %s, "
                   "search %.3f s, certification %.3f s", name, self.grid.z.size,
                   self.cert.z.size, steps, t_cert - self.t_start,
                   time.perf_counter() - t_cert)
        return mix, trace


def li_approximate(
    spec: FamilySpec,
    alt: Alternative,
    max_iters: int = 15,
    n_alpha: int = 100,
    mu_count: int = 100,
    mu_lo: float | None = None,
    mu_hi: float | None = None,
    cert_count: int = 1000,
    n_z: int = 3000,
) -> tuple[MixtureNull, list[dict]]:
    """Greedy mixture growth toward the reverse information projection.

    Step 1 picks the best single null mean (the KL minimizer); step m >= 2
    minimizes D(alt || a * current + (1-a) * candidate) over a convex-weight
    grid times a candidate-mean grid.  For each candidate the weight comes
    from the one table (``_Search.table``), which finds the sweep's grid
    point because the KL is convex in a, on the calling thread at default
    sizes (one chunk); ties go to the lowest KL, then the lowest a, then the
    lowest candidate.  Keeping a = 1 is always available (``n_alpha >= 2``),
    so the search grid's KL is nonincreasing.  The steps run on the search
    grid of at most ``_SEARCH_NZ`` nodes.  The trace records, per iteration,
    the KL divergence and the worst-case null expectation of the current
    ratio on the n_z-node certification grid, each row computed on the
    mixture the certificate would take at that step (``_Search.trace_row``
    of the current components, normalized and sorted as the result is), so
    the last row is the certificate's own value.  Iteration stops early once
    that value is within 1e-6 of 1 (for families whose projection is a
    single point this happens immediately).
    """
    _require_at_least(1, max_iters=max_iters)
    _require_at_least(2, n_alpha=n_alpha)
    _require_at_least(1, mu_count=mu_count, cert_count=cert_count)
    search = _Search(spec, alt, cert_count, mu_lo, mu_hi, n_z, mu_count, n_alpha)
    grid = search.grid

    # first component: the single-point projection has the closed-form
    # minimizer at the pooled mean, no grid search needed.  d and kl are on
    # the search grid; each trace row is on the certification grid.
    weights = {float(alt.mu0_star): 1.0}
    d = grid.tilt_rows([alt.mu0_star])[0].copy()
    # at delta = 0 the pooled mean is the alternative itself
    kl = float(grid.kl(d)) if alt.delta else 0.0
    trace = [search.trace_row(1, *_components(weights))]

    rows = np.arange(mu_count)
    for it in range(2, max_iters + 1):
        if trace[-1]["sup_expectation"] <= _STOP_SUP:
            break

        ai, kls, _ = search.table(grid.kl, d[None, :], rows)
        j = int(_ranked(rows, ai, kls)[0])
        kl_new, a = float(kls[j]), search.alphas[ai[j]]
        if kl_new > kl + 1e-12:
            raise ComputationError(
                f"greedy KL step failed to improve at iteration {it}"
            )
        weights = {mu: w * a for mu, w in weights.items()}
        mu_new = float(search.mus[j])
        weights[mu_new] = weights.get(mu_new, 0.0) + (1.0 - a)
        d = a * d + (1.0 - a) * search.u[j]
        kl = kl_new
        trace.append(search.trace_row(it, *_components(weights)))

    return search.result("li_approximate", *_components(weights), "li",
                         f"{len(trace)} iterations", trace)


def _components(weights: dict) -> tuple[list[float], list[float]]:
    """Li's mixture {mu: weight} as (ws, mus): positive weights, heaviest
    first, normalized to sum 1."""
    comps = sorted(((w, mu) for mu, w in weights.items() if w > 0), key=lambda t: -t[0])
    total = sum(w for w, _ in comps)
    return [w / total for w, _ in comps], [m for _, m in comps]


def brute_force_two_component(
    spec: FamilySpec,
    alt: Alternative,
    n_alpha: int = 100,
    mu_count: int = 100,
    mu_lo: float | None = None,
    mu_hi: float | None = None,
    mu0_count: int = 1000,
    n_z: int = 3000,
) -> tuple[MixtureNull, list[dict]]:
    """Two-component grid search minimizing the worst-case expectation.

    Candidates are (weight a, mu01, mu02) on equally spaced grids; the
    objective is the maximum over the certification grid of the null
    expectation of the induced ratio.  One table holds every pair of means
    i <= j (i = j is a single component) at its best weight from
    ``_Search.table`` and its worst case on every fourth certification point;
    its best 500 rows (``_ranked``) are re-ranked on every point, and the
    winner alone is resolved to its components and certified.  Ranking runs
    on the search grid of at most ``_SEARCH_NZ`` z nodes, the certificate on
    the n_z-node grid.  Every null expectation is convex in a (1/x is convex
    and the mixture density is affine in a), so their coarse maximum is too:
    each weight is the exhaustive sweep's grid point.  The table's chunks of
    a fixed number of pairs run on a thread per usable CPU (at most one per
    chunk, and on the calling thread when that is one), so the result does
    not depend on the worker count.  Its trace is one row, on that mixture.
    """
    _require_at_least(2, n_alpha=n_alpha)
    _require_at_least(1, mu_count=mu_count, mu0_count=mu0_count)
    search = _Search(spec, alt, mu0_count, mu_lo, mu_hi, n_z, mu_count, n_alpha)
    grid, u, alphas = search.grid, search.u, search.alphas
    t_coarse = grid.cert_rows()[::_COARSE_STRIDE].T  # (search nodes, n_coarse)

    def coarse_sup(d):
        return ((1.0 / d) @ t_coarse).max(axis=1)

    # the candidate table: pair (pi, pj) at weight alphas[ai] has coarse sup
    pi, pj = np.triu_indices(mu_count)
    ai, sup, ran = search.table(coarse_sup, pi, pj)
    top = _ranked(np.arange(pi.size), ai, sup)[:_REFINE_TOP]
    wt = alphas[ai[top]][:, None]
    d = wt * u[pi[top]] + (1.0 - wt) * u[pj[top]]  # re-ranked on every point
    best = _ranked(top, ai, ((1.0 / d) @ grid.cert_rows().T).max(axis=1))[0]
    i, j, a = int(pi[best]), int(pj[best]), float(alphas[ai[best]])
    # a weight of 0 or 1 leaves a single component
    if i == j or a in (0.0, 1.0):
        ws, mus = [1.0], [float(search.mus[j if a == 0.0 else i])]
    else:
        ws, mus = [a, 1.0 - a], [float(search.mus[i]), float(search.mus[j])]
    trace = [search.trace_row(1, ws, mus)]
    return search.result("brute_force_two_component", ws, mus, "brute_force_2",
                         f"{pi.size} candidates ranked in {ran}, {top.size} re-ranked",
                         trace)
