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
(``_statistic``) and calls it.  The built statistic is one record,
``Statistic``: its kind, alternative, admitted mixture and certificate (both
``None`` but for ``gro_m``), and a block function holding every parameter,
so a caller scoring many blocks of one problem (``StreamState``,
``simulate``, ``ksev evaluate --data``) builds it once, calls it on blocks
it has checked and reads the certificate off it.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expfam import Alternative, FamilySpec, MeanDomainError, _require_at_least
from .expfam import _CHUNK_ELEMENTS, _sum_leading, as_generator
from .ripr import Certificate, MixtureNull, _log_sum_of_tilts


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
        return _exp(self.log_evalue)

    def to_json(self) -> str:
        payload = {"kind": self.kind.value, "log_evalue": self.log_evalue}
        if self.certificate is not None:
            payload["certificate"] = self.certificate
        return json.dumps(payload, sort_keys=True)


def _exp(log_evalue: float) -> float:
    """e^log_evalue, inf without a warning where that overflows a double."""
    try:
        return math.exp(log_evalue)
    except OverflowError:
        return math.inf


def _as_block(spec: FamilySpec, alt: Alternative, block) -> np.ndarray:
    x = np.asarray(block, dtype=float)
    if x.shape[-1] != alt.k:
        raise ValueError(
            f"block has {x.shape[-1]} entries but the alternative has "
            f"k={alt.k} groups"
        )
    spec.check_support(x)
    return x


def _log_sum_ratio(spec: FamilySpec, alt: Alternative, mu0: float):
    """z -> log p_alt_Z(z) - log p_null_Z(z) for the coordinate sum z of
    checked blocks, with the null i.i.d. at the checked mean mu0, through
    ``_per_value``.  Both sum densities are built once
    (``FamilySpec._sum_density``: for the gamma sums, their rate groups,
    partial-fraction coefficients and series weights), so a family without a
    sum density for this k refuses before any block."""
    alt_sum = spec._sum_density(list(alt.mu))
    null_sum = spec._sum_density([mu0] * alt.k)
    return _per_value(spec, lambda z: alt_sum(z) - null_sum(z))


def _per_value(spec: FamilySpec, term):
    """``term``, a map of each value alone, through a table on a lattice.

    On a discrete support, an input of exact integers with fewer integers in
    [min, max] than it has values takes ``term`` once per integer in that
    range and gathers the results: the same ufuncs on the same values, so
    every value keeps its bits, and the table is always smaller than the
    input.  Any other input goes to ``term`` as it is: one value, values
    that differ more than their count, and near-integers, whose bits at the
    rounded integer would differ.  On a continuous support ``term`` is
    returned itself.
    """
    if not spec.support.discrete:
        return term

    def apply(v):
        if v.size > 1:
            lo, hi = v.min(), v.max()
            if hi - lo < v.size - 1:  # False for NaN and inf - inf
                # for an integer lo, v - lo is exact, so i == d holds just
                # where v is an integer
                d = v - lo
                i = d.astype(np.intp)
                if float(lo).is_integer() and (i == d).all():
                    return term(lo + np.arange(int(hi - lo) + 1.0))[i]
        return term(v)

    return apply


def _check_mixture(spec: FamilySpec, alt: Alternative, mixture) -> None:
    """The one gate of the certified-mixture ratio: refuse a mixture that is
    missing, not a MixtureNull, uncertified or certified for a problem other
    than (spec, alt.mu); the last refusal names both problems."""
    if mixture is None:
        raise ValueError(
            "kind 'gro_m' needs a certified mixture; run the projection "
            "first (ripr.li_approximate or ripr.brute_force_two_component, "
            "or 'ksev project' and pass its file with --mixture)"
        )
    if not isinstance(mixture, MixtureNull):
        raise TypeError("mixture must be a ripr.MixtureNull")
    mixture.require_problem(spec, alt.mu)


def _sum_coordinates(x) -> np.ndarray:
    """Sum over the trailing (coordinate) axis of x as the sum of the rows of
    x.T, bit for bit ``np.sum(x, axis=-1)`` (``expfam._sum_leading``)."""
    return _sum_leading(x.T).T


def _in_chunks(block_map):
    """``block_map`` scoring at most ``_CHUNK_ELEMENTS`` coordinates a pass
    (one block at least): a larger input is scored in passes over its
    leading blocks, written into one preallocated output.  Every block value
    depends on its own block alone, so the output does not depend on the
    budget."""
    def score(x):
        if x.size <= _CHUNK_ELEMENTS:
            return block_map(x)
        rows = x.reshape(-1, x.shape[-1])
        out = np.empty(len(rows))
        step = max(1, _CHUNK_ELEMENTS // x.shape[-1])
        for start in range(0, len(rows), step):
            out[start:start + step] = block_map(rows[start:start + step])
        return out.reshape(x.shape[:-1])
    return score


@dataclass(frozen=True)
class Statistic:
    """The statistic of one problem, built once by ``_statistic``.

    ``kind`` is what it computes, on blocks of ``alt`` (after any
    multiplicity expansion); ``mixture`` is the certified mixture that
    ``_check_mixture`` admitted for ``gro_m``, and ``None`` for every other
    kind, whatever mixture a caller passed.  ``score`` maps checked blocks
    (shape [..., k]) to the log statistic, and calling the record calls it.
    """

    kind: EValueKind
    alt: Alternative
    mixture: Optional[MixtureNull]
    score: Callable[[np.ndarray], np.ndarray]

    @property
    def certificate(self) -> Optional[Certificate]:
        """The admitted mixture's certificate; ``None`` without a mixture."""
        return None if self.mixture is None else self.mixture.certificate

    def __call__(self, x):
        return self.score(x)


def _statistic(spec: FamilySpec, alt: Alternative, kind, mixture=None,
               mu0: float | None = None) -> Statistic:
    """The statistic of ``kind`` for one problem, built once.

    Building checks what does not depend on the block, before any zero-effect
    shortcut: ``kind`` must name a statistic, a ``gro_m`` mixture must pass
    ``_check_mixture`` (any other kind drops a mixture it was given), and a
    ``cond`` baseline null mean ``mu0`` (the pooled mean by default) must lie
    in the mean space.  It then computes every parameter of the block
    function: lambda(mu_i) and A(lambda_i), their differences to lambda and A
    at mu0, the sum densities of ``cond`` and a mixture's tilts.  The
    record's ``score`` maps blocks already checked (``_as_block``; shape
    [..., k]) to the log statistic, ``_in_chunks``: an input of many blocks
    is scored a fixed number of coordinates at a time, so its temporaries
    stay bounded.  On a lattice, every value-only term (``gro_iid``'s
    per-coordinate mixture, ``cond``'s sum-density ratio, ``gro_m``'s
    mixture of sums) goes through ``_per_value``'s one rule: exact integers
    with fewer integers in [min, max] than values take a table over that
    range, anything else the term itself, and no bit moves.

    On a discrete support a single block (a 1-D float input, as
    ``_as_block`` gives) is looked up in a memo keyed by its bytes, so a
    streamed block that has been seen before costs a dict lookup and reaches
    the tables only on a miss.  Every block value depends on its own block's
    bits alone, so a stored value is the value a fresh call returns; bytes
    keep -0.0 apart from 0.0 and an integer apart from the near-integers the
    support check accepts.  The memo stops storing at ``_CHUNK_ELEMENTS //
    k`` blocks; later misses are scored and not stored.  Inputs of more than
    one block, and every continuous support, go to the scoring function
    itself.
    """
    kind = EValueKind(kind)
    if kind is EValueKind.GRO_M:
        _check_mixture(spec, alt, mixture)
    else:
        mixture = None
    score = _in_chunks(_block_map(spec, alt, kind, mixture, mu0))
    if not spec.support.discrete:
        return Statistic(kind, alt, mixture, score)
    memo: dict[bytes, np.float64] = {}
    room = _CHUNK_ELEMENTS // alt.k

    def lookup(x):
        if x.ndim != 1 or x.dtype != float:
            return score(x)
        key = x.tobytes()
        value = memo.get(key)
        if value is None:
            # a numpy scalar, not a 0-d array that a caller could change
            value = score(x)[()]
            if len(memo) < room:
                memo[key] = value
        return value
    return Statistic(kind, alt, mixture, lookup)


def _block_map(spec: FamilySpec, alt: Alternative, kind: EValueKind, mixture, mu0):
    """The block function of ``_statistic``, for any number of blocks, of a
    parsed ``kind`` and an admitted ``mixture``."""
    if alt.delta == 0.0:
        return lambda x: np.zeros(np.shape(x)[:-1])
    lam, a = spec._natural_params(alt.mu)
    if kind is EValueKind.GRO_IID:
        offsets = a + np.log(alt.k)  # per coordinate, (1/k) sum_i p_{mu_i}
        log_mixture = _per_value(spec, lambda v: _log_sum_of_tilts(lam, offsets, v))
        return lambda x: (_sum_coordinates(lam * x - a)
                          - _sum_coordinates(log_mixture(x)))
    if kind is EValueKind.GRO_M:
        tilts = mixture._tilts(spec, alt.k)
        log_mixture = _per_value(spec, lambda z: _log_sum_of_tilts(*tilts, z))
        return lambda x: (_sum_coordinates(lam * x - a)
                          - log_mixture(_sum_coordinates(x)))
    # pseudo and cond: the ratio to the i.i.d. product at mu0
    mu0 = spec.check_mean(alt.mu0_star if mu0 is None else mu0)
    lam0, a0 = spec._natural_params([mu0])
    dlam, da = lam - lam0, a - a0
    if kind is EValueKind.PSEUDO:
        return lambda x: _sum_coordinates(dlam * x - da)
    log_z_ratio = _log_sum_ratio(spec, alt, mu0)
    return lambda x: (_sum_coordinates(dlam * x - da)
                      - log_z_ratio(_sum_coordinates(x)))


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
    criterion: its second derivative in mu0 has the sign of f(mu0).  Where a
    tilted parameter lambda_i + lambda0 - lambda0* lies on or outside the
    boundary of the natural space, that factor diverges and the expectation
    is inf.
    """
    mu0 = spec.check_mean(mu0)
    lam0 = spec.natural_from_mean(mu0)
    lam0s = spec.natural_from_mean(alt.mu0_star)
    a0 = spec.log_partition(lam0)
    a0s = spec.log_partition(lam0s)
    lo, hi = spec.natural_space
    total = 0.0
    for m in alt.mu:
        lam_i = spec.natural_from_mean(m)
        tilted = lam_i + lam0 - lam0s
        if not lo < tilted < hi:
            return math.inf
        total += (
            float(spec.log_partition(tilted))
            - float(spec.log_partition(lam_i))
            + a0s
            - a0
        )
    with np.errstate(over="ignore"):  # a sum past log(max float) is inf
        return float(np.exp(total))


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
    path used on data.  Under the null at mu0 the integrand of ``cond`` is
    p_mu0(z) p_alt(x | z), so the grid reaches the far end of the k-sum at
    mu0, and it is summed in log space, since S overflows where the null
    has no mass.
    """
    from . import _quad

    if alt.k != 2:
        raise ValueError("tensor quadrature check is restricted to k = 2")
    _require_at_least(1, n=n)
    mu0s = np.atleast_1d(np.asarray(mu0s, dtype=float))
    ends = [spec.sum_quantile(m, k, q) for m in [*alt.mu, mu0s.min(), mu0s.max()]
            for k in (1, 2) for q in (_quad.TAIL, 1.0 - _quad.TAIL)]
    s = spec.support
    x, w = _quad.span_nodes(spec, max(min(ends), s.lo), min(max(ends), s.hi), n)
    b1, b2 = np.meshgrid(x, x, indexing="ij")
    log_s = _log_statistic(spec, alt, np.stack([b1, b2], axis=-1), kind, mixture)
    out = np.empty(mu0s.size)
    for i, m0 in enumerate(mu0s):
        log_u = np.log(w) + spec.log_pdf(m0, x)
        t = log_u[:, None] + log_s + log_u
        top = t.max()
        out[i] = math.exp(top) * float(np.exp(np.subtract(t, top, out=t), out=t).sum())
    return out


def _mc_draws(spec: FamilySpec, means, n: int, rng) -> np.ndarray:
    """n blocks (shape [n, k]) from ``rng``, coordinate i drawn at means[i],
    checked once against the support (``check_support``), so a built
    statistic scores them as they are."""
    x = np.empty((n, len(means)))
    for i, m in enumerate(means):
        x[:, i] = spec.sample(m, n, rng)
    return spec.check_support(x)


def _mean_stderr(v) -> tuple[float, float]:
    """Mean and stderr of the per-block values v."""
    return float(v.mean()), float(v.std(ddof=1) / np.sqrt(len(v)))


def null_expectation_mc(
    spec: FamilySpec,
    alt: Alternative,
    kind,
    mu0: float,
    n: int = 10**6,
    seed: int = 0,
    mixture=None,
) -> tuple[float, float]:
    """Monte Carlo E under the i.i.d. null at mu0 (any k), with stderr, over
    n >= 2 blocks."""
    _require_at_least(2, n=n)
    x = _mc_draws(spec, [mu0] * alt.k, n, as_generator(seed))
    return _mean_stderr(np.exp(_statistic(spec, alt, kind, mixture)(x)))


def log_evalue(
    spec: FamilySpec,
    alt: Alternative,
    block,
    kind: EValueKind | str,
    mixture=None,
) -> EValueResult:
    """Evaluate one statistic on one block and package the result, with the
    statistic's certificate (``Statistic.certificate``) as a dict."""
    x = _as_block(spec, alt, block)
    stat = _statistic(spec, alt, kind, mixture)
    cert = stat.certificate
    return EValueResult(stat.kind, float(stat(x)),
                        None if cert is None else cert.to_dict())
