"""The four (pseudo-)e-values on a single block of k-sample data.

A block is one observation per group, x = (x_1, ..., x_k).  All statistics
are likelihood ratios with the simple alternative prod_i p_{mu_i}(x_i) in the
numerator; they differ in the null density in the denominator:

* ``log_s_pseudo``   -- product null at the pooled mean mu0* = mean(mu).
  Growth-rate optimal whenever it happens to be an e-value; otherwise it is
  only a "pseudo" e-value (its null expectation can exceed 1).
* ``log_s_gro_iid``  -- per-coordinate equal mixture (1/k) sum_i p_{mu_i}.
  The growth-rate-optimal e-value against the nonparametric "all groups
  i.i.d." null, hence valid against the in-family null as well.
* ``log_s_cond``     -- likelihood ratio of x^{k-1} given the sufficient-
  statistic sum Z; the conditional law given Z does not depend on the null
  parameter, so this is an e-value by construction.
* ``log_s_gro_m``    -- denominator a certified finite mixture of i.i.d.
  product nulls (an approximation of the reverse information projection,
  produced by the ``ripr`` module); an eps-approximate e-value whose
  certificate rides along with the result.

Everything is computed and returned in log space; callers exponentiate at the
surface (``EValueResult.evalue``).  All functions are vectorized over leading
axes of ``block`` and are pure.

Each ``log_s_*`` checks the block, builds the problem's statistic
(``_statistic``) and calls it.  The built statistic holds every parameter of
the block function, so a caller scoring many blocks of one problem
(``StreamState``, ``simulate``, ``ksev evaluate --data``) builds it once and
calls it on blocks it has checked.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expfam import Alternative, FamilySpec, MeanDomainError, as_generator
from .ripr import MixtureNull, _log_sum_of_tilts


class EValueKind(str, enum.Enum):
    PSEUDO = "pseudo"
    GRO_M = "gro_m"
    GRO_IID = "gro_iid"
    COND = "cond"


class Verdict(str, enum.Enum):
    NOT_E_VARIABLE = "not_e_variable"
    LOCALLY_E_VARIABLE = "locally_e_variable"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class PseudoVerdict:
    """Sign test of the variance criterion at the pooled mean.

    ``f_value`` is f(mu0*) = sum_i Var[X] at mu_i minus k Var[X] at mu0*.
    A positive sign rules the pooled-mean ratio out as an e-value; a negative
    sign certifies it locally (for nulls restricted to a neighbourhood of
    mu0*); values within tolerance of 0 are reported as indeterminate.
    """

    verdict: Verdict
    f_value: float


@dataclass(frozen=True)
class EValueResult:
    kind: EValueKind
    log_evalue: float
    certificate: Optional[dict] = None

    @property
    def evalue(self) -> float:
        return float(np.exp(self.log_evalue))

    def to_json(self) -> str:
        payload = {"kind": self.kind.value, "log_evalue": self.log_evalue}
        if self.certificate is not None:
            payload["certificate"] = self.certificate
        return json.dumps(payload, sort_keys=True)


def _as_block(spec: FamilySpec, alt: Alternative, block) -> np.ndarray:
    x = np.asarray(block, dtype=float)
    if x.shape[-1] != alt.k:
        raise ValueError(
            f"block has {x.shape[-1]} entries but the alternative has "
            f"k={alt.k} groups"
        )
    spec.check_support(x)
    return x


def _log_equal_mixture(lam: np.ndarray, a: np.ndarray, x) -> np.ndarray:
    """log (1/k) sum_i exp(lam_i x - a_i) at every entry of x, by logsumexp."""
    comp = lam * x[..., None] - a  # [..., i] = log p_{mu_i}(x) w.r.t. rho
    cmax = comp.max(axis=-1, keepdims=True)
    return np.squeeze(cmax, -1) + np.log(np.mean(np.exp(comp - cmax), axis=-1))


def _log_sum_ratio(spec: FamilySpec, alt: Alternative, mu0: float):
    """z -> log p_alt_Z(z) - log p_null_Z(z) for the coordinate sum z of
    checked blocks, with the null i.i.d. at the checked mean mu0.  Both sum
    densities are built once (``FamilySpec._sum_density``: for the gamma
    sums, their rate groups, partial-fraction coefficients and series
    weights), so a family without a sum density for this k refuses before any
    block.  A finite sum support is tabulated once."""
    alt_sum = spec._sum_density(list(alt.mu))
    null_sum = spec._sum_density([mu0] * alt.k)
    s = spec.support
    if s.kind == "finite":
        lo = round(alt.k * s.lo)
        zs = np.arange(lo, round(alt.k * s.hi) + 1, dtype=float)
        table = alt_sum(zs) - null_sum(zs)
        return lambda z: table[np.round(z).astype(int) - lo]
    return lambda z: alt_sum(z) - null_sum(z)


def _statistic(spec: FamilySpec, alt: Alternative, kind, mixture=None,
               mu0: float | None = None):
    """The statistic of ``kind`` for one problem, built once.

    Building checks what does not depend on the block: a ``gro_m`` mixture
    must be a certified MixtureNull, certified for (spec, alt.mu), and a
    ``cond`` baseline null mean ``mu0`` (the pooled mean by default) must lie
    in the mean space.  It then computes every parameter of the block
    function: lambda(mu_i) and A(lambda_i), their differences to lambda and A
    at mu0, the sum-density ratio of ``cond`` (a table when the sum's support
    is finite) and a mixture's tilts.  The function it returns maps blocks
    already checked (``_as_block``; shape [..., k]) to the log statistic.
    """
    kind = EValueKind(kind)
    if kind is EValueKind.GRO_M:
        _require_mixture(kind, mixture)
        if not isinstance(mixture, MixtureNull):
            raise TypeError("mixture must be a ripr.MixtureNull")
        mixture.require_certificate()
        mixture.require_problem(spec, alt.mu)
    if alt.delta == 0.0:
        return lambda x: np.zeros(np.shape(x)[:-1])
    lam, a = spec._natural_params(alt.mu)
    if kind is EValueKind.GRO_IID:
        return lambda x: (np.sum(lam * x - a, axis=-1)
                          - np.sum(_log_equal_mixture(lam, a, x), axis=-1))
    if kind is EValueKind.GRO_M:
        tilts = mixture._tilts(spec, alt.k)
        return lambda x: (np.sum(lam * x - a, axis=-1)
                          - _log_sum_of_tilts(*tilts, np.sum(x, axis=-1)))
    # pseudo and cond: the ratio to the i.i.d. product at mu0
    mu0 = spec.check_mean(alt.mu0_star if mu0 is None else mu0)
    lam0, a0 = spec._natural_params([mu0])
    dlam, da = lam - lam0, a - a0
    if kind is EValueKind.PSEUDO:
        return lambda x: np.sum(dlam * x - da, axis=-1)
    log_z_ratio = _log_sum_ratio(spec, alt, mu0)
    return lambda x: np.sum(dlam * x - da, axis=-1) - log_z_ratio(np.sum(x, axis=-1))


def log_s_pseudo(spec: FamilySpec, alt: Alternative, block) -> np.ndarray:
    """log of prod_i p_{mu_i}(x_i) / prod_i p_{mu0*}(x_i)."""
    x = _as_block(spec, alt, block)
    return _statistic(spec, alt, EValueKind.PSEUDO)(x)


def log_s_gro_iid(spec: FamilySpec, alt: Alternative, block) -> np.ndarray:
    """log of prod_i p_{mu_i}(x_i) / prod_j [(1/k) sum_i p_{mu_i}(x_j)]."""
    x = _as_block(spec, alt, block)
    return _statistic(spec, alt, EValueKind.GRO_IID)(x)


def log_s_cond(
    spec: FamilySpec, alt: Alternative, block, mu0: float | None = None
) -> np.ndarray:
    """Conditional-on-sum likelihood ratio.

    Computed as [p_alt(x^k) / p_alt_Z(z)] * [p_null_Z(z) / p_null(x^k)] with
    z the coordinate sum.  The baseline null mean defaults to the pooled mean
    and the value is invariant to that choice.
    """
    x = _as_block(spec, alt, block)
    return _statistic(spec, alt, EValueKind.COND, mu0=mu0)(x)


def log_s_gro_m(spec: FamilySpec, alt: Alternative, block, mixture) -> np.ndarray:
    """Likelihood ratio against a certified mixture of i.i.d. product nulls.

    ``mixture`` must be a certified MixtureNull from the ``ripr`` module;
    uncertified mixtures are refused because the ratio is only an
    eps-approximate e-value, with eps read off the certificate.  A mixture
    certified for another family or alternative is refused too.
    """
    x = _as_block(spec, alt, block)
    return _statistic(spec, alt, EValueKind.GRO_M, mixture)(x)


def f_criterion(spec: FamilySpec, alt: Alternative, mu0: float) -> float:
    """sum_i Var[X] at (mu_i + mu0 - mu0*) minus k Var[X] at mu0.

    The shifted parameters must stay inside the mean space.
    """
    mu0 = spec.check_mean(mu0)
    shift = mu0 - alt.mu0_star
    shifted = []
    for m in alt.mu:
        try:
            shifted.append(spec.check_mean(m + shift))
        except MeanDomainError as exc:
            raise MeanDomainError(
                f"f criterion undefined at mu0={mu0}: shifted parameter "
                f"{m + shift} leaves the mean space"
            ) from exc
    total = sum(spec.variance(m) for m in shifted)
    return total - alt.k * spec.variance(mu0)


def pseudo_verdict(
    spec: FamilySpec, alt: Alternative, tol: float = 1e-9
) -> PseudoVerdict:
    """Classify the pooled-mean ratio via the sign of f at mu0*."""
    f0 = f_criterion(spec, alt, alt.mu0_star)
    if f0 > tol:
        return PseudoVerdict(Verdict.NOT_E_VARIABLE, f0)
    if f0 < -tol:
        return PseudoVerdict(Verdict.LOCALLY_E_VARIABLE, f0)
    return PseudoVerdict(Verdict.INDETERMINATE, f0)


def expectation_pseudo(spec: FamilySpec, alt: Alternative, mu0: float) -> float:
    """E under the i.i.d. null at mu0 of the pooled-mean ratio, in closed form.

    Each coordinate factor tilts to another family member, so the expectation
    is a pure log-partition expression.  Useful as an oracle for the sign
    criterion: its second derivative in mu0 has the sign of f(mu0).
    """
    mu0 = spec.check_mean(mu0)
    lam0 = spec.natural_from_mean(mu0)
    lam0s = spec.natural_from_mean(alt.mu0_star)
    a0 = spec.log_partition(lam0)
    a0s = spec.log_partition(lam0s)
    total = 0.0
    for m in alt.mu:
        lam_i = spec.natural_from_mean(m)
        total += (
            float(spec.log_partition(lam_i + lam0 - lam0s))
            - float(spec.log_partition(lam_i))
            + a0s
            - a0
        )
    return float(np.exp(total))


def _require_mixture(kind: EValueKind, mixture) -> None:
    """Refuse the certified-mixture ratio when no mixture is given."""
    if kind is EValueKind.GRO_M and mixture is None:
        raise ValueError(
            "kind 'gro_m' needs a certified mixture; run the projection "
            "first (ripr.li_approximate or ripr.brute_force_two_component)"
        )


def _log_statistic(spec, alt, block, kind, mixture=None):
    """The statistic of ``kind`` on ``block``: the one map from kind to code.

    The ``log_s_*`` names are looked up at call time, so a wrapper installed
    on one of them (a tracer, a test double) sees every dispatched call.
    """
    kind = EValueKind(kind)
    if kind is EValueKind.PSEUDO:
        return log_s_pseudo(spec, alt, block)
    if kind is EValueKind.GRO_IID:
        return log_s_gro_iid(spec, alt, block)
    if kind is EValueKind.COND:
        return log_s_cond(spec, alt, block)
    return log_s_gro_m(spec, alt, block, mixture)


def null_expectation_profile(
    spec: FamilySpec,
    alt: Alternative,
    kind,
    mu0s,
    n: int = 256,
    mixture=None,
) -> np.ndarray:
    """E under each i.i.d. null of the statistic, for k = 2 by full tensor
    quadrature over the block.

    This is the e-variable property check: values must stay at or below 1
    (up to quadrature error) for the equal-mixture and conditional ratios.
    It deliberately integrates the statistic itself over the plane rather
    than exploiting any structural shortcut, so it exercises the same code
    path used on data.
    """
    from . import _quad

    if alt.k != 2:
        raise ValueError("tensor quadrature check is restricted to k = 2")
    mu0s = np.atleast_1d(np.asarray(mu0s, dtype=float))
    x, w = _quad.support_nodes(
        spec, list(alt.mu) + [mu0s.min(), mu0s.max()], n=n
    )
    b1, b2 = np.meshgrid(x, x, indexing="ij")
    blocks = np.stack([b1, b2], axis=-1)
    s = np.exp(_log_statistic(spec, alt, blocks, kind, mixture))
    logp = spec.log_pdf  # weighted one-dimensional null densities
    out = np.empty(mu0s.size)
    for i, m0 in enumerate(mu0s):
        u = w * np.exp(logp(m0, x))
        out[i] = float(u @ s @ u)
    return out


def _mc_mean(spec: FamilySpec, means, n: int, rng, fn) -> tuple[float, float]:
    """Mean and stderr of fn(x) over n blocks, coordinate i drawn at means[i]."""
    x = np.stack([spec.sample(m, n, rng) for m in means], axis=-1)
    v = fn(x)
    return float(v.mean()), float(v.std(ddof=1) / np.sqrt(n))


def null_expectation_mc(
    spec: FamilySpec,
    alt: Alternative,
    kind,
    mu0: float,
    n: int = 10**6,
    seed: int = 0,
    mixture=None,
) -> tuple[float, float]:
    """Monte Carlo E under the i.i.d. null at mu0 (any k), with stderr."""
    return _mc_mean(
        spec, [mu0] * alt.k, n, as_generator(seed),
        lambda x: np.exp(_log_statistic(spec, alt, x, kind, mixture)),
    )


def log_evalue(
    spec: FamilySpec,
    alt: Alternative,
    block,
    kind: EValueKind | str,
    mixture=None,
) -> EValueResult:
    """Evaluate one statistic on one block and package the result."""
    kind = EValueKind(kind)
    value = _log_statistic(spec, alt, block, kind, mixture)
    cert = mixture.certificate_dict() if kind is EValueKind.GRO_M else None
    return EValueResult(kind, float(np.asarray(value)), cert)
