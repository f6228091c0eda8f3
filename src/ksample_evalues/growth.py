"""Growth rates, small-effect gap coefficients, and the heatmap protocol.

The growth rate of a statistic S under the alternative is E[log S] per block,
in nats.  For the statistics of ``evariables`` every growth rate reduces to
one-dimensional integrals:

* pooled-mean ratio: sum_i KL(mu_i, mu0*), in closed form;
* equal-mixture ratio: a per-group integral of log(p_mu_j / mixture);
* conditional ratio: the pooled-mean rate minus the KL divergence between the
  sum densities of the alternative and of the pooled null;
* certified-mixture ratio: KL from the alternative to the mixture (see
  ``ripr.kl_to_mixture``).

For alternatives at Euclidean distance delta from the equal-means ray, any
two of these growth rates differ by c * delta^4 + o(delta^4).  The leading
coefficients are closed forms of the variance function V(mu) = 1/I(mu):

* ``coeff_iid_gap`` (pooled-mean vs equal-mixture): with
  s(x) = I^2 (x-mu0)^2 + I'(mu0)(x-mu0) - I(mu0) (the second mu-derivative of
  the density divided by the density), the coefficient is
  (1/(8k)) E_mu0[ s(X)^2 ] = (2 + V''(mu0)) / (8k V(mu0)^2); zero for
  Bernoulli.
* ``coeff_cond_gap`` (pooled-mean vs conditional): the same construction on
  the sum statistic; the second derivative of the tilted sum density at the
  equal-means point reduces, by exchangeability, to conditional moments of
  one and two coordinates given the sum.  With a quadratic variance function
  V = v0 + v1 mu + v2 mu^2 it is v2^2 / (4k (k + v2) V(mu0)^2); zero for
  Gaussian location and Poisson.  Beta with alpha != 1 integrates it.

Both coefficients are direction-free because the direction enters only
through its unit norm.  The heatmap protocol evaluates pairwise growth gaps
on an n-by-n grid of two-group alternatives equally spaced in the family's
standard parameterization, plus the signed fourth-root transform that
linearizes the small-effect behaviour.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _quad
from . import ripr
from .expfam import Alternative, ComputationError, FamilySpec, _require_at_least
from .expfam import spawn_generator
from . import evariables as ev

# Gauss-Legendre nodes of the one-dimensional gap integrals
_GAP_NODES = 4096


class GapKind(str, enum.Enum):
    IID_GAP = "iid_gap"  # pooled-mean vs equal-mixture
    COND_GAP = "cond_gap"  # pooled-mean vs conditional


@dataclass(frozen=True)
class FourthOrderCoefficient:
    value: float
    kind: GapKind

    def __post_init__(self):
        if self.value < -1e-9:
            raise ValueError(f"{self.kind} coefficient must be nonnegative")


@dataclass(frozen=True)
class GrowthEntry:
    kind: ev.EValueKind
    rate: float
    stderr: float
    method: str


@dataclass(frozen=True)
class GrowthReport:
    alternative: Alternative
    entries: dict
    method: str

    def gap(self, kind_a, kind_b) -> float:
        """Difference of the reported rates (exact as floats)."""
        a = ev.EValueKind(kind_a)
        b = ev.EValueKind(kind_b)
        return self.entries[a].rate - self.entries[b].rate


def growth_pseudo(spec: FamilySpec, alt: Alternative) -> float:
    """E[log pooled-mean ratio] = sum_i KL(mu_i, mu0*), closed form."""
    return sum(spec.kl(m, alt.mu0_star) for m in alt.mu)


def gap_pseudo_iid(spec: FamilySpec, alt: Alternative) -> float:
    """E[log S_pseudo - log S_gro_iid], as a direct one-dimensional integral.

    Equals sum_j E_{mu_j}[log mixture(X) - log p_{mu0*}(X)], which avoids the
    cancellation of subtracting two nearly equal rates at small effects.
    """
    if alt.delta == 0.0:
        return 0.0
    x, w = _quad.support_nodes(spec, alt.mu, n=_GAP_NODES)
    lams, las = spec._natural_params([*alt.mu, alt.mu0_star])
    # sum_j E_{mu_j}[log mixture(X) - log p_{mu0*}(X)], all w.r.t. rho
    diff = (ripr._log_sum_of_tilts(lams[:-1], las[:-1] + math.log(alt.k), x)
            - (lams[-1] * x - las[-1]))
    logh = spec.log_carrier(x)
    total = 0.0
    for lam, la in zip(lams[:-1], las[:-1]):
        total += float(np.sum(w * np.exp(lam * x - la + logh) * diff))
    return total


def gap_pseudo_cond(spec: FamilySpec, alt: Alternative) -> float:
    """E[log S_pseudo - log S_cond] = KL between the sum densities of the
    alternative and of the pooled i.i.d. null."""
    if alt.delta == 0.0:
        return 0.0
    z, w = _quad.sum_nodes(spec, alt.mu, alt.k, n=_GAP_NODES)
    log_a = spec.sum_log_pdf(list(alt.mu), z)
    log_0 = spec.sum_log_pdf([alt.mu0_star] * alt.k, z)
    pa = np.exp(log_a)
    return float(np.sum(w * pa * (log_a - log_0)))


def _quadrature_rate(spec: FamilySpec, alt: Alternative, kind, mixture):
    """E under the alternative of log S for one kind, by one-dimensional
    quadrature, for an alternative off the equal-means ray."""
    if kind is ev.EValueKind.PSEUDO:
        return growth_pseudo(spec, alt)
    if kind is ev.EValueKind.GRO_IID:
        return growth_pseudo(spec, alt) - gap_pseudo_iid(spec, alt)
    if kind is ev.EValueKind.COND:
        return growth_pseudo(spec, alt) - gap_pseudo_cond(spec, alt)
    return ripr.kl_to_mixture(spec, alt, mixture)


def _check_method(method: str, mc_n: int, seed) -> None:
    """Refuse an unknown method, naming it, and for Monte Carlo an ``mc_n``
    below 2 or a ``seed`` that is not a non-negative integer."""
    if method not in ("quadrature", "mc"):
        raise ValueError(f"method must be 'quadrature' or 'mc', got {method!r}")
    if method == "mc":
        _require_at_least(2, mc_n=mc_n)
        _require_at_least(0, seed=seed)


def growth_rate(
    spec: FamilySpec,
    alt: Alternative,
    kind,
    method: str = "quadrature",
    mixture=None,
    mc_n: int = 10**6,
    seed: int = 0,
) -> GrowthEntry:
    """E under the alternative of log S for one kind: the entry of
    ``growth_report`` with that kind alone, so it refuses what that refuses."""
    kind = ev.EValueKind(kind)
    return growth_report(spec, alt, [kind], method, mixture, mc_n, seed).entries[kind]


def growth_report(
    spec: FamilySpec,
    alt: Alternative,
    kinds: Sequence,
    method: str = "quadrature",
    mixture=None,
    mc_n: int = 10**6,
    seed: int = 0,
) -> GrowthReport:
    """E under the alternative of log S for every kind, by quadrature or
    seeded Monte Carlo.

    Before any zero-effect shortcut it refuses what ``_check_method``
    refuses and a ``gro_m`` mixture that ``evariables._check_mixture``
    refuses (in both methods).  Monte Carlo draws mc_n blocks once, from
    ``spawn_generator(seed, 0)``, checks them once and scores every kind on
    those draws with its built statistic.
    """
    kinds = [ev.EValueKind(k) for k in kinds]
    _check_method(method, mc_n, seed)
    if ev.EValueKind.GRO_M in kinds:
        ev._check_mixture(spec, alt, mixture)
    if alt.delta == 0.0:
        entries = {kind: GrowthEntry(kind, 0.0, 0.0, method) for kind in kinds}
    elif method == "mc":
        x = ev._mc_draws(spec, alt.mu, mc_n, spawn_generator(seed, 0))
        entries = {kind: GrowthEntry(kind, *ev._mean_stderr(ev._statistic(
            spec, alt, kind, mixture)(x)), method) for kind in kinds}
    else:
        entries = {kind: GrowthEntry(kind, float(_quadrature_rate(
            spec, alt, kind, mixture)), 0.0, method) for kind in kinds}
    return GrowthReport(alt, entries, method)


def coeff_iid_gap(spec: FamilySpec, mu0: float, k: int = 2) -> FourthOrderCoefficient:
    """Leading delta^4 coefficient of the pooled-mean vs equal-mixture gap.

    (1/(8k)) E_mu0[s(X)^2] with s(x) = I^2 (x-mu0)^2 + I'(mu0)(x-mu0) - I(mu0),
    which for every natural exponential family is (2 + V''(mu0)) / (8k V^2).
    """
    mu0 = spec.check_mean(mu0)
    _require_at_least(2, k=k)
    v, _, d2 = spec._variance_law(mu0)
    i0 = 1.0 / v
    val = (2.0 + d2) * i0 * i0 / (8.0 * k)
    return _coefficient(spec, mu0, val, GapKind.IID_GAP)


def coeff_cond_gap(spec: FamilySpec, mu0: float, k: int = 2) -> FourthOrderCoefficient:
    """Leading delta^4 coefficient of the pooled-mean vs conditional gap.

    (1/8) integral over z of g(z) * c(z)^2, where g is the sum density of k
    i.i.d. copies at mu0 and

        c(z) = I^2 (E[X1^2|z] - E[X1 X2|z]) + I'(mu0)(z/k - mu0) - I(mu0),

    the curvature of the direction-tilted sum density at zero effect divided
    by g.  With a quadratic variance function V = v0 + v1 mu + v2 mu^2,
    E[X1^2|z] = z^2/k^2 + (k-1)/(k+v2) V(z/k) and the integral is
    v2^2 / (4k (k + v2) V(mu0)^2).  Beta with alpha != 1 has no such V and
    integrates numerically.
    """
    mu0 = spec.check_mean(mu0)
    _require_at_least(2, k=k)
    v, d1, _ = spec._variance_law(mu0)
    i0 = 1.0 / v
    if spec.variance_function is not None:
        v2 = spec.variance_function[2]
        return _coefficient(spec, mu0, v2 * v2 * i0 * i0 / (4.0 * k * (k + v2)),
                            GapKind.COND_GAP)
    z, wz = _quad.sum_nodes(spec, [mu0], k, n=2048)
    log_gz = spec.sum_log_pdf([mu0] * k, z)
    ex2 = _cond_second_moment(spec, mu0, k, z, log_gz)
    ex1x2 = (z * z - k * ex2) / (k * (k - 1.0))
    c = i0 * i0 * (ex2 - ex1x2) - d1 / (v * v) * (z / k - mu0) - i0
    val = float(np.sum(wz * np.exp(log_gz) * c * c)) / 8.0
    return _coefficient(spec, mu0, val, GapKind.COND_GAP)


def _coefficient(spec, mu0, val, kind) -> FourthOrderCoefficient:
    if not math.isfinite(val):
        raise ComputationError(
            f"{kind.value} coefficient is not finite for '{spec.family_id}' at mu0={mu0}"
        )
    return FourthOrderCoefficient(val, kind)


def _cond_second_moment(spec, mu0, k, z, log_gz):
    """E[X_1^2 | Z=z] for k i.i.d. coordinates at mu0, per z-grid value, on a
    half line: Gauss-Jacobi nodes absorb one observation's shape alpha at the
    finite end and the other k - 1 observations' shape (k - 1) alpha."""
    a = spec.alpha
    x, jac = _quad.jacobi_nodes(z, 512, a, (k - 1) * a)
    px = np.exp(spec.log_pdf(mu0, x.ravel()).reshape(x.shape))
    t = z[:, None] - x
    pr = np.exp(spec.sum_log_pdf([mu0] * (k - 1), t.ravel()).reshape(t.shape))
    num = np.sum(x * x * px * pr * jac, axis=1)
    return num / np.exp(log_gz)


def signed_fourth_root(x) -> np.ndarray:
    """sign(x) * |x|^(1/4); linearizes leading fourth-order gaps for plots."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.abs(x) ** 0.25


@dataclass
class HeatmapResult:
    """Pairwise growth-gap matrix over a two-group alternative grid."""

    spec: FamilySpec
    kind_a: ev.EValueKind
    kind_b: ev.EValueKind
    std_values: np.ndarray  # grid axis in the standard parameterization
    mu_values: np.ndarray  # the same axis in mean parameterization
    gap: np.ndarray  # gap[i, j] = E[log S_a - log S_b] at (mu_i, mu_j)
    stderr: np.ndarray
    method: str
    failures: list = field(default_factory=list)

    def rows(self):
        """CSV rows: mu1, mu2, gap, gap_fourth_root (row-major)."""
        n = self.mu_values.size
        out = []
        for i in range(n):
            for j in range(n):
                out.append(
                    (
                        self.mu_values[i],
                        self.mu_values[j],
                        self.gap[i, j],
                        signed_fourth_root(self.gap[i, j]),
                    )
                )
        return out

    def slice(self, offset: int = 0):
        """Anti-diagonal slice: rows i + j = n - 1 - offset.

        Returns (delta, signed fourth root of the gap) with the signed effect
        delta = (mu1 - mu2)/sqrt(2); slices are symmetric around delta = 0.
        """
        n = self.mu_values.size
        deltas, vals = [], []
        for i in range(n):
            j = n - 1 - offset - i
            if 0 <= j < n:
                deltas.append((self.mu_values[i] - self.mu_values[j]) / math.sqrt(2.0))
                vals.append(signed_fourth_root(self.gap[i, j]))
        return np.array(deltas), np.array(vals)


def heatmap(
    spec: FamilySpec,
    kinds: tuple,
    n: int = 50,
    std_lo: float | None = None,
    std_hi: float | None = None,
    method: str = "quadrature",
    mc_n: int = 10**5,
    seed: int = 0,
) -> HeatmapResult:
    """Growth-gap matrix over an n-by-n grid of two-group alternatives.

    Grid points are equally spaced in the family's standard parameterization
    (documented per family; the default ranges are artifact choices).  Cells
    whose evaluation is refused by name (a ``ValueError`` or a
    ``ComputationError``) are recorded in ``failures`` and set to NaN rather
    than aborting the run; any other exception propagates.  A Monte Carlo
    cell draws once from its own substream ``spawn_generator(seed, i, j)``,
    checks the draws once and scores both kinds on them; its gap and stderr
    are those of the paired difference.  The certified-mixture ratio is
    refused: a certified mixture is bound to one alternative, not to every
    grid cell.  Before any cell it also refuses
    n < 2 (no pair of distinct groups), what ``_check_method`` refuses and
    ``kinds`` other than exactly two statistics.
    """
    _require_at_least(2, n=n)
    _check_method(method, mc_n, seed)
    kinds = [ev.EValueKind(k) for k in kinds]
    if len(kinds) != 2:
        raise ValueError(f"heatmap needs exactly two statistics, got "
                         f"{[k.value for k in kinds]}")
    kind_a, kind_b = kinds
    if ev.EValueKind.GRO_M in kinds:
        raise ValueError("heatmap cannot score gro_m: a certified mixture is "
                         "bound to one alternative, not to every grid cell")
    lo, hi = spec.default_std_range()
    if std_lo is not None:
        lo = std_lo
    if std_hi is not None:
        hi = std_hi
    svals = np.linspace(lo, hi, n)
    mus = np.array([spec.mean_from_std(s) for s in svals])
    # exchanging the groups preserves a quadrature gap: compute i < j only
    cells = [(i, j) for i in range(n) for j in range(n)
             if j > i or (j < i and method != "quadrature")]
    gap = np.full((n, n), np.nan)
    np.fill_diagonal(gap, 0.0)
    se = np.zeros((n, n))
    failures = []
    for i, j in cells:
        try:
            alt = Alternative.from_means(spec, [mus[i], mus[j]])
            if method == "mc":
                x = ev._mc_draws(spec, alt.mu, mc_n, spawn_generator(seed, i, j))
                gap[i, j], se[i, j] = ev._mean_stderr(
                    ev._statistic(spec, alt, kind_a)(x)
                    - ev._statistic(spec, alt, kind_b)(x))
            else:
                ea, eb = (growth_rate(spec, alt, kind, method=method)
                          for kind in (kind_a, kind_b))
                gap[i, j] = ea.rate - eb.rate
        except (ValueError, ComputationError) as exc:  # a refused cell is data
            failures.append({"i": i, "j": j, "mu1": mus[i], "mu2": mus[j], "error": str(exc)})
    if method == "quadrature":
        lower = np.tril_indices(n, -1)
        gap[lower] = gap.T[lower]
    return HeatmapResult(spec, kind_a, kind_b, svals, mus, gap, se, method, failures)
