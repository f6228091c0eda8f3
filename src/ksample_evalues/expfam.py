"""One-parameter exponential families in mean-value parameterization.

Every family here is indexed by its mean parameter mu = E[X], where X is the
sufficient statistic of the observed variable.  Working on the sufficient
statistic makes each family *natural*: the density of X with respect to the
family's base measure rho is

    p_mu(x) = exp(lambda(mu) * x - A(lambda(mu))),

where lambda(mu) is the canonical parameter dual to mu and A is the
log-normalizer.  The carrier function h of the usual textbook form is absorbed
into rho, so rho = h(x) dx (or h(x) * counting measure).  Two density views
are exposed:

* ``log_density(mu, x)``  -- log p_mu w.r.t. rho (carrier absorbed), i.e.
  exactly ``lambda(mu) * x - A(lambda(mu))``.
* ``log_pdf(mu, x)``      -- log density w.r.t. Lebesgue / counting measure,
  i.e. ``log_density + log h(x)``.  This is the view used for sampling checks,
  quadrature and Monte Carlo.

Likelihood ratios, KL divergences and e-values are invariant to this choice
because the carriers cancel; integrals are always taken in the
Lebesgue/counting view.

Supported families (mean space, sufficient statistic of the raw observation):

======================  ==============  =====================================
family                  mean space      sufficient statistic / conventions
======================  ==============  =====================================
bernoulli               (0, 1)          X = U in {0, 1}; rho = counting
gaussian_mean           (-inf, inf)     X = U, N(mu, sigma^2) with sigma^2
                                        fixed; rho = N(0, sigma^2)
gaussian_variance       (0, inf)        X = (U - m)^2 with the location m
                                        fixed; mu = sigma^2; rho has carrier
                                        x^(-1/2) / sqrt(2 pi)
poisson                 (0, inf)        X = U; rho has carrier 1/x!
exponential             (0, inf)        X = U, mean mu (rate 1/mu); rho =
                                        Lebesgue on (0, inf)
geometric               (0, inf)        X = U = number of failures before the
                                        first success; mu = (1-p)/p; rho =
                                        counting on {0, 1, ...}
beta_fixed_alpha        (-inf, 0)       X = log(1 - U) for U ~ Beta(alpha,
                                        beta) with alpha fixed; free shape
                                        beta is the canonical parameter
======================  ==============  =====================================

Pareto (fixed scale v) and log-normal observations reduce to the exponential
and Gaussian families via ``reduce_sufficient``.

All randomness goes through an explicit seed or ``numpy.random.Generator``;
integer seeds are expanded with the counter-based Philox bit generator so that
every stochastic operation is bit-reproducible.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from . import _quad

try:  # the inverse CDFs that scipy.stats' beta, binom and nbinom call
    from scipy.special._ufuncs import _beta_ppf, _binom_ppf, _nbinom_ppf
except ImportError:  # older scipy kept them under scipy.stats
    from scipy.stats._boost import _beta_ppf, _binom_ppf, _nbinom_ppf


class MeanDomainError(ValueError):
    """A mean parameter lies outside the family's open mean space."""


class SupportError(ValueError):
    """An observation (or Z value) lies outside the support."""


class ComputationError(RuntimeError):
    """A numeric routine (quadrature, convolution) failed to converge."""


def _require_at_least(least: int, **sizes) -> None:
    """The one check of a size, count or seed argument: each value must be an
    integer other than a bool (2.0 and 2.5 are refused) of at least
    ``least``.  The refusal names the argument and the value."""
    for name, value in sizes.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value!r}")


def _require_real(**values) -> None:
    """The one check of a number read from a configuration or a file: each
    value must be a real number (a bool or a string is refused).  The
    refusal names the key and the value."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")


def as_generator(seed) -> np.random.Generator:
    """Return a counter-based generator for an int seed (the root stream of
    ``spawn_generator``); pass through Generators."""
    if isinstance(seed, np.random.Generator):
        return seed
    return spawn_generator(seed)


def spawn_generator(seed: int, *stream: int) -> np.random.Generator:
    """Independent, reproducible sub-stream (e.g. one per trial or grid cell)
    of a non-negative integer seed."""
    _require_at_least(0, seed=seed)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence: its hash and mix constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hashmix of a uint32 array at hash constant ``const``:
    returns the hashed words and the next constant, ``const * mult``."""
    stepped = const * mult & _MASK32
    value = (value ^ np.uint32(const)) * np.uint32(stepped)
    return value ^ value >> np.uint32(16), stepped


def spawn_keys(seed: int, count: int) -> np.ndarray:
    """The Philox keys of ``spawn_generator(seed, t)`` for every t < count,
    shape (count, 2) uint64, all at once.

    numpy builds the seed's pool (``SeedSequence(seed).pool``); only the
    steps that depend on t are ported, to uint32 arrays over t: mixing the
    spawn-key word t into each pool word, and ``generate_state(2,
    np.uint64)``.  A Philox at one of these keys, counter 0 and an empty
    buffer draws the same stream as ``spawn_generator(seed, t)``."""
    _require_at_least(0, seed=seed)
    _require_at_least(1, count=count)
    if count > 2**32:  # t must be one 32-bit word of the spawn key
        raise ValueError(f"count must be at most 2**32, got {count!r}")
    root = np.random.SeedSequence(seed)
    size, words = root.pool_size, max(1, -(-operator.index(seed).bit_length() // 32))
    # The spawned pool before t is the seed's own: the zero words that pad a
    # short seed when a spawn key follows hash as the unspawned pool's filler.
    # numpy's mix_entropy has made c = P**2 + P * max(0, w - P) hashmix calls
    # by then (P = pool size, w = seed words: P fills, P * (P - 1) cross-mixes
    # and P per word past the pool), so t meets the constant _INIT_A * _MULT_A**c
    calls = size * size + size * max(0, words - size)
    const = _INIT_A * pow(_MULT_A, calls, 2**32) & _MASK32
    # pool word i is final once t is mixed in, and generate_state hashes the
    # words in order with a constant of its own
    t, key_const, state = np.arange(count, dtype=np.uint32), _INIT_B, []
    for word in root.pool.tolist():
        hashed, const = _hashmix(t, const, _MULT_A)
        mixed = np.uint32(_MIX_MULT_L * word & _MASK32) - np.uint32(_MIX_MULT_R) * hashed
        hashed, key_const = _hashmix(mixed ^ mixed >> np.uint32(16), key_const, _MULT_B)
        state.append(hashed.astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=-1)


def _poisson_ppf(q: float, mu: float):
    """``scipy.stats.poisson._ppf``: ceil of the inverse, checked one below."""
    vals = np.ceil(special.pdtrik(q, mu))
    vals1 = np.maximum(vals - 1, 0)
    return vals1 if special.pdtr(vals1, mu) >= q else vals


def _nbinom_ppf_quiet(q: float, n: float, p: float):
    with np.errstate(over="ignore"):  # as scipy.stats.nbinom._ppf
        return _nbinom_ppf(q, n, p)


@dataclass(frozen=True)
class Support:
    """Support of the sufficient statistic.

    kind is "finite" (finite integer set), "lattice" (integers >= lo) or
    "interval" (open real interval).  An integer is any value within an
    absolute 1e-9 of one.
    """

    kind: str
    lo: float
    hi: float

    @property
    def discrete(self) -> bool:
        return self.kind in ("finite", "lattice")

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.discrete:
            with np.errstate(invalid="ignore"):  # inf - inf
                ok = (np.abs(x - np.round(x)) <= 1e-9) & (x >= self.lo - 1e-9)
            if np.isfinite(self.hi):
                ok &= x <= self.hi + 1e-9
            return ok
        return (x > self.lo) & (x < self.hi)

    def contains_scalar(self, v: float) -> bool:
        """``contains`` for one float, without building an array: it accepts
        and refuses exactly the values ``contains`` does."""
        if self.discrete:
            # round() refuses inf and NaN, which contains() refuses too
            return (math.isfinite(v) and abs(v - round(v)) <= 1e-9
                    and self.lo - 1e-9 <= v <= self.hi + 1e-9)
        return self.lo < v < self.hi


class FamilySpec(ABC):
    """Base class for the concrete families.

    A family states its laws and its data.  The laws: the parameter maps
    lambda(mu) and mu(lambda) (as ``_natural_from_mean`` and
    ``_mean_from_natural``), A(lambda), the carrier log h, and three laws on
    arguments already checked: ``_draw`` (draws at a mean),
    ``_sum_quantile`` (the inverse CDF of a k-sum) and ``_sum_density``.
    The data: ``family_id``, the mean space, the open ``natural_space`` of
    lambda (the whole line by default), whether X is ``discrete``, the
    heatmap range ``std_range`` and the constructor's fixed parameters,
    stored under their own names, which ``fixed_params`` reads.  Everything
    derived lives here: the support, densities, KL, Fisher information,
    central moments, and the five checked entry points ``natural_from_mean``,
    ``mean_from_natural``, ``sample``, ``sum_quantile`` and ``sum_log_pdf``,
    which refuse a bad argument by name before any law runs.
    ``sum_log_pdf`` checks the means and the sum's support, is ``log_pdf``
    at k = 1 and ``_sum_density(mus)(z)`` at k >= 2.  ``_sum_density`` is
    the one sum-density override: it builds, once per set of means, the
    k >= 2 density as a function of z.  Its base form is the lattice
    convolution; Poisson and gaussian_mean return their closed forms, the
    gamma sums their ``_GammaSum``, and beta its gamma sum (integer alpha)
    or convolution (non-integer alpha, k = 2 only).

    The support follows from the mean space, the interior of its convex
    hull (Barndorff-Nielsen 1978): the integers in [lo, hi] if ``discrete``
    ("finite", or "lattice" when hi is infinite), else the interval
    (lo, hi).  One variance law, ``_variance_law(mu)`` = (V, V', V''), gives
    every moment.  By default it is the quadratic variance function
    ``variance_function = (v0, v1, v2)``, V = v0 + v1 mu + v2 mu^2 (Morris
    1982), which also gives the delta^4 coefficients of ``growth`` in closed
    form; ``None`` means the family has none.  Beta states its law from its
    psi-gaps at every alpha, and ``variance_function`` only at alpha = 1.
    """

    family_id: str
    mean_space: tuple[float, float]
    natural_space: tuple[float, float] = (-math.inf, math.inf)
    discrete: bool = False
    variance_function: tuple[float, float, float] | None = None
    std_range: tuple[float, float]

    @functools.cached_property
    def support(self) -> Support:
        """The support of X, built from the mean space once per family."""
        lo, hi = self.mean_space
        if self.discrete:
            return Support("finite" if math.isfinite(hi) else "lattice", lo, hi)
        return Support("interval", lo, hi)

    # -- parameter maps -------------------------------------------------

    def natural_from_mean(self, mu: float) -> float:
        """Canonical parameter lambda(mu); inverse of mean_from_natural.  A
        mean outside the open mean space is refused by name."""
        return self._natural_from_mean(self.check_mean(mu))

    @abstractmethod
    def _natural_from_mean(self, mu: float) -> float:
        """lambda(mu) at a checked float mu, for ``natural_from_mean``."""

    def mean_from_natural(self, lam: float) -> float:
        """Mean parameter A'(lambda).  A lambda outside the open natural
        space (NaN included) is refused by name before the law runs, and so
        is a lambda inside it whose mean rounds out of the open mean
        space."""
        lam = float(lam)
        lo, hi = self.natural_space
        if not lo < lam < hi:
            raise MeanDomainError(
                f"canonical parameter {lam!r} outside ({lo}, {hi}) for family "
                f"'{self.family_id}'"
            )
        try:
            mu = self._mean_from_natural(lam)
        except ArithmeticError:  # past the largest float
            mu = math.inf
        lo, hi = self.mean_space
        if not lo < mu < hi:
            raise MeanDomainError(
                f"canonical parameter {lam!r} of family '{self.family_id}' has "
                f"mean {mu!r}, outside the mean space ({lo}, {hi})"
            )
        return mu

    @abstractmethod
    def _mean_from_natural(self, lam: float) -> float:
        """A'(lambda) at a float lambda inside the natural space, for
        ``mean_from_natural`` to check."""

    @abstractmethod
    def log_partition(self, lam) -> float:
        """Log-normalizer A(lambda)."""

    def _natural_params(self, mus) -> tuple[np.ndarray, np.ndarray]:
        """Arrays lambda(mu) and A(lambda(mu)) over a list of means; every
        ``log_partition`` takes the whole lambda array at once."""
        lam = np.array([self.natural_from_mean(m) for m in mus], dtype=float)
        return lam, np.asarray(self.log_partition(lam), dtype=float)

    # -- moments ---------------------------------------------------------

    def _variance_law(self, mu: float) -> tuple[float, float, float]:
        """(V, V', V'') at a checked mean, from ``variance_function``."""
        v0, v1, v2 = self.variance_function
        return v0 + mu * (v1 + v2 * mu), v1 + 2.0 * v2 * mu, 2.0 * v2

    def variance(self, mu: float) -> float:
        """Var[X] under P_mu, i.e. A''(lambda(mu))."""
        return self._variance_law(self.check_mean(mu))[0]

    def variance_d1(self, mu: float) -> float:
        """d Var / d mu."""
        return self._variance_law(self.check_mean(mu))[1]

    def variance_d2(self, mu: float) -> float:
        """d^2 Var / d mu^2."""
        return self._variance_law(self.check_mean(mu))[2]

    # -- densities --------------------------------------------------------

    def log_carrier(self, x) -> np.ndarray:
        """log h(x): density of rho w.r.t. Lebesgue / counting measure;
        zero where rho is that measure itself."""
        return np.zeros_like(np.asarray(x, dtype=float))

    def check_mean(self, mu: float) -> float:
        lo, hi = self.mean_space
        mu = float(mu)
        if not (lo < mu < hi) or not math.isfinite(mu):
            raise MeanDomainError(
                f"mu={mu!r} outside mean space ({lo}, {hi}) of family "
                f"'{self.family_id}'"
            )
        return mu

    def check_support(self, x) -> np.ndarray:
        """x as a float array; a value outside the support is refused by
        name, with the first five such values in C order.  An input of more
        than ``_CHUNK_ELEMENTS`` values is checked that many at a time, so the
        check holds no temporaries of the input's size; a refusal checks the
        rest of the input from the pass that failed, to name them."""
        x = np.asarray(x, dtype=float)
        rest = x
        if x.size > _CHUNK_ELEMENTS:
            flat = x.reshape(-1)
            rest = next((flat[s:] for s in range(0, flat.size, _CHUNK_ELEMENTS)
                         if not np.all(self.support.contains(
                             flat[s:s + _CHUNK_ELEMENTS]))), flat[:0])
        ok = self.support.contains(rest)
        if not np.all(ok):
            bad = rest[~ok]
            raise SupportError(
                f"value(s) {bad[:5].tolist()} outside support of family "
                f"'{self.family_id}' ({self.support.kind}, "
                f"[{self.support.lo}, {self.support.hi}])"
            )
        return x

    def log_density(self, mu: float, x) -> np.ndarray:
        """Log-density of X w.r.t. the base measure rho: lambda*x - A(lambda)."""
        mu = self.check_mean(mu)
        x = self.check_support(x)
        lam = self.natural_from_mean(mu)
        return lam * x - self.log_partition(lam)

    def log_pdf(self, mu: float, x) -> np.ndarray:
        """Log-density of X w.r.t. Lebesgue / counting measure."""
        return self.log_density(mu, x) + self.log_carrier(np.asarray(x, dtype=float))

    def kl(self, mu_a: float, mu_b: float) -> float:
        """KL divergence D(P_mu_a || P_mu_b), in nats."""
        mu_a = self.check_mean(mu_a)
        mu_b = self.check_mean(mu_b)
        la = self.natural_from_mean(mu_a)
        lb = self.natural_from_mean(mu_b)
        return (la - lb) * mu_a - self.log_partition(la) + self.log_partition(lb)

    # -- sampling and quantiles -------------------------------------------

    def sample(self, mu: float, n: int, rng) -> np.ndarray:
        """n i.i.d. draws of the sufficient statistic under P_mu; ``rng`` is a
        seed or a Generator."""
        mu = self.check_mean(mu)
        _require_at_least(0, n=n)
        return self._draw(mu, n, as_generator(rng))

    @abstractmethod
    def _draw(self, mu: float, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws at a mean already checked, from a Generator."""

    def sum_quantile(self, mu: float, k: int, q: float) -> float:
        """Quantile at level q in (0, 1) of Z = sum of k i.i.d. copies under
        P_mu (the ends of every quadrature grid; k = 1 is one observation).
        A mean outside the mean space, a k that is no integer of at least 1
        and a level outside (0, 1) are refused by name."""
        mu = self.check_mean(mu)
        _require_at_least(1, k=k)
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {q!r}")
        return float(self._sum_quantile(mu, k, q))

    @abstractmethod
    def _sum_quantile(self, mu: float, k: int, q: float) -> float:
        """The quantile at a checked mean, k and level: the inverse CDF that
        the matching ``scipy.stats`` distribution's ``_ppf`` calls, with its
        scale and location arithmetic, so it equals that distribution's
        quantile bit for bit without building a frozen distribution (beta
        with alpha != 1 returns outer bounds from one observation's)."""

    # -- Z marginal ---------------------------------------------------------

    def sum_log_pdf(self, mus: Sequence[float], z) -> np.ndarray:
        """Log-density (w.r.t. Lebesgue / counting) of Z = X_1 + ... + X_k
        for independent X_i ~ P_mu_i; k = 1 is ``log_pdf``."""
        mus = [self.check_mean(m) for m in mus]
        if not mus:
            raise ValueError("a sum needs at least one mean")
        z = self.check_sum_support(len(mus), z)
        if len(mus) == 1:
            return self.log_pdf(mus[0], z)
        return self._sum_density(mus)(z)

    def _sum_density(self, mus: list[float]):
        """z -> log-density of the k >= 2 sum at checked means, for checked z;
        whatever does not depend on z is built here once.  This one convolves
        the pmfs exp(lambda x - A + log h) of a lattice on 0, 1, ..., each
        truncated one entry past max z, which keeps every entry up to max z
        exact.  Every pmf is first tilted by e^(-lambda_max x), which
        flattens the slowest decaying one, so the convolution does not
        underflow where the density is representable; adding lambda_max z in
        log space undoes the tilt.  The extra entry makes numpy sum every entry up to max z over a
        partial overlap; it sums the full overlap in another order, which
        would make the entry at max z depend on the other z evaluated with
        it."""
        lam, la = self._natural_params(mus)
        top = lam.max()

        def log_pdf(z):
            idx = np.round(z).astype(int)
            zmax = int(idx.max()) if idx.size else 0
            xs = np.arange(min(zmax + 1, self.support.hi) + 1.0)
            pmfs = np.exp(np.outer(lam - top, xs) - la[:, None] + self.log_carrier(xs))
            pmf = pmfs[0]
            for row in pmfs[1:]:
                pmf = np.convolve(pmf, row)[: zmax + 2]
            with np.errstate(divide="ignore"):
                return np.log(pmf[idx]) + top * idx

        return log_pdf

    def check_sum_support(self, k: int, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        s = self.support
        ok = Support(s.kind, k * s.lo, k * s.hi).contains(z)
        if not np.all(ok):
            bad = z[~ok]
            raise SupportError(
                f"z value(s) {bad[:5].tolist()} outside the support of the "
                f"k={k} sum for family '{self.family_id}'"
            )
        return z

    # -- standard parameterization (used by the heatmap protocol) ----------

    def mean_from_std(self, s: float) -> float:
        return float(s)

    def default_std_range(self) -> tuple[float, float]:
        """Default grid range in the standard parameterization: the family's
        ``std_range``.

        These endpoints are artifact choices (documented in the README); they
        are configurable everywhere they are used.
        """
        return self.std_range

    # -- config -------------------------------------------------------------

    def fixed_params(self) -> dict:
        """The constructor's parameters and their values, e.g. {"sigma2": 1.0}."""
        return {name: getattr(self, name)
                for name in inspect.signature(type(self)).parameters}

    def to_config(self, mean_params: Sequence[float] | None = None) -> dict:
        cfg = {"family": self.family_id, "fixed_params": self.fixed_params()}
        if mean_params is not None:
            cfg["mean_params"] = [float(m) for m in mean_params]
        return cfg

    def __repr__(self) -> str:
        fixed = ", ".join(f"{k}={v}" for k, v in self.fixed_params().items())
        return f"{type(self).__name__}({fixed})"


class Bernoulli(FamilySpec):
    family_id = "bernoulli"
    mean_space = (0.0, 1.0)
    discrete = True
    variance_function = (0.0, 1.0, -1.0)
    std_range = (0.1, 0.9)

    def _natural_from_mean(self, mu):
        return math.log(mu / (1.0 - mu))

    def _mean_from_natural(self, lam):
        return float(special.expit(lam))

    def log_partition(self, lam):
        return np.logaddexp(0.0, lam)

    def _draw(self, mu, n, rng):
        return (rng.random(n) < mu).astype(float)

    def _sum_quantile(self, mu, k, q):
        return _binom_ppf(q, k, mu)


class GaussianFreeMean(FamilySpec):
    """Gaussian with free mean and fixed variance sigma^2."""

    family_id = "gaussian_mean"
    mean_space = (-math.inf, math.inf)
    std_range = (-2.0, 2.0)

    def __init__(self, sigma2: float = 1.0):
        self.sigma2 = float(sigma2)
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {sigma2!r}")
        self.variance_function = (self.sigma2, 0.0, 0.0)

    def _natural_from_mean(self, mu):
        return mu / self.sigma2

    def _mean_from_natural(self, lam):
        return lam * self.sigma2

    def log_partition(self, lam):
        return 0.5 * self.sigma2 * np.asarray(lam) ** 2

    def log_carrier(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * x * x / self.sigma2 - 0.5 * math.log(2.0 * math.pi * self.sigma2)

    def _draw(self, mu, n, rng):
        return rng.normal(mu, math.sqrt(self.sigma2), n)

    def _sum_quantile(self, mu, k, q):
        return special.ndtri(q) * math.sqrt(k * self.sigma2) + k * mu

    def _sum_density(self, mus):
        mean, var = sum(mus), len(mus) * self.sigma2
        log_norm = 0.5 * math.log(2.0 * math.pi * var)
        return lambda z: -0.5 * (z - mean) ** 2 / var - log_norm


class GaussianFreeVariance(FamilySpec):
    """Gaussian with fixed location and free variance.

    The sufficient statistic is X = (U - m)^2 ~ Gamma(1/2, scale 2 mu) with
    mu = sigma^2, so the fixed location only matters when reducing raw data.
    """

    family_id = "gaussian_variance"
    mean_space = (0.0, math.inf)
    natural_space = (-math.inf, 0.0)
    variance_function = (0.0, 0.0, 2.0)
    std_range = (0.6, 2.4)

    def __init__(self, fixed_mean: float = 0.0):
        self.fixed_mean = float(fixed_mean)
        if not math.isfinite(self.fixed_mean):
            raise ValueError(f"fixed_mean must be finite, got {fixed_mean!r}")

    def _natural_from_mean(self, mu):
        return -0.5 / mu

    def _mean_from_natural(self, lam):
        return -0.5 / lam

    def log_partition(self, lam):
        return -0.5 * np.log(-2.0 * np.asarray(lam))

    def log_carrier(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * np.log(x) - 0.5 * math.log(2.0 * math.pi)

    def _draw(self, mu, n, rng):
        return mu * rng.chisquare(1, n)

    def _sum_quantile(self, mu, k, q):
        return special.gammaincinv(0.5 * k, q) * (2.0 * mu)

    def _sum_density(self, mus):
        return _GammaSum(0.5, 0.5 / np.array(mus))

    def mean_from_std(self, s):
        return float(s) ** 2


class Poisson(FamilySpec):
    family_id = "poisson"
    mean_space = (0.0, math.inf)
    discrete = True
    variance_function = (0.0, 1.0, 0.0)
    std_range = (0.5, 5.0)

    def _natural_from_mean(self, mu):
        return math.log(mu)

    def _mean_from_natural(self, lam):
        return math.exp(lam)

    def log_partition(self, lam):
        return np.exp(lam)

    def log_carrier(self, x):
        return -special.gammaln(np.asarray(x, dtype=float) + 1.0)

    def _draw(self, mu, n, rng):
        return rng.poisson(mu, n).astype(float)

    def _sum_quantile(self, mu, k, q):
        return _poisson_ppf(q, k * mu)

    def _sum_density(self, mus):
        lam = sum(mus)
        log_lam = math.log(lam)
        return lambda z: z * log_lam - lam - special.gammaln(z + 1.0)


class Exponential(FamilySpec):
    """Exponential distribution with mean mu (rate 1/mu)."""

    family_id = "exponential"
    mean_space = (0.0, math.inf)
    natural_space = (-math.inf, 0.0)
    variance_function = (0.0, 0.0, 1.0)
    std_range = (0.5, 4.0)

    def _natural_from_mean(self, mu):
        return -1.0 / mu

    def _mean_from_natural(self, lam):
        return -1.0 / lam

    def log_partition(self, lam):
        return -np.log(-np.asarray(lam))

    def _draw(self, mu, n, rng):
        return rng.exponential(mu, n)

    def _sum_quantile(self, mu, k, q):
        return special.gammaincinv(k, q) * mu

    def _sum_density(self, mus):
        return _GammaSum(1.0, 1.0 / np.array(mus))

    def mean_from_std(self, s):
        return 1.0 / float(s)


class Geometric(FamilySpec):
    """Number of failures before the first success; mu = (1-p)/p."""

    family_id = "geometric"
    mean_space = (0.0, math.inf)
    natural_space = (-math.inf, 0.0)
    discrete = True
    variance_function = (0.0, 1.0, 1.0)
    std_range = (0.15, 0.6)

    def _natural_from_mean(self, mu):
        return math.log(mu / (1.0 + mu))

    def _mean_from_natural(self, lam):
        return 1.0 / math.expm1(-lam)

    def log_partition(self, lam):
        return -np.log(-np.expm1(np.asarray(lam)))

    def _p(self, mu):
        return 1.0 / (1.0 + mu)

    def _draw(self, mu, n, rng):
        return (rng.geometric(self._p(mu), n) - 1).astype(float)

    def _sum_quantile(self, mu, k, q):
        return _nbinom_ppf_quiet(q, k, self._p(mu))

    def mean_from_std(self, s):
        return (1.0 - float(s)) / float(s)


# B_2, B_4, ..., B_12, for the polygamma series of BetaFixedAlpha._psi_gap
_BERNOULLI_EVEN = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


class BetaFixedAlpha(FamilySpec):
    """Beta observations with fixed first shape alpha and free second shape.

    The sufficient statistic is X = log(1 - U) < 0 and the free shape is the
    canonical parameter.  For the default alpha = 1 the family reduces to a
    negated exponential: X = -E with E ~ Exp(rate beta) and mu = E[X] = -1/beta.
    For an integer alpha = n, -X is a sum of n independent exponentials with
    rates beta, ..., beta + n - 1, so sums of any k observations are gamma
    sums; a non-integer alpha has a sum density at k = 2 only.

    The table-style "mean of U" parameterization is available through
    ``mean_from_beta_mean``: it converts E[U] in (0, 1) to the mean of X.
    """

    family_id = "beta_fixed_alpha"
    mean_space = (-math.inf, 0.0)
    natural_space = (0.0, math.inf)
    std_range = (1.0, 8.0)

    def __init__(self, alpha: float = 1.0):
        self.alpha = float(alpha)
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
        if self.alpha == 1.0:
            self.variance_function = (0.0, 0.0, 1.0)

    def _natural_from_mean(self, mu):
        if self.alpha.is_integer():
            # Newton on the convex decreasing sum_j 1/(b + j) = -mu, from a
            # lower bound on its root, so every step rises and none
            # overshoots; q_j = b / (b + j) keeps the sums in (0, n].  A step
            # is tested before it is taken, so at n = 1 the start 1/(-mu),
            # whose step is rounding, is returned as it is.
            s, n = -mu, int(self.alpha)
            b = max(1.0 / s, n / s - (n - 1.0))
            if not math.isfinite(b):
                raise MeanDomainError(f"mu={mu!r} too close to 0: its shape b overflows")
            for _ in range(100):
                q = [b / (b + j) for j in range(n)]
                step = b * (math.fsum(q) - s * b) / math.fsum(x * x for x in q)
                if abs(step) <= 1e-15 * b:
                    break
                b += step
            return b
        # invert mu(beta) = psi(beta) - psi(alpha + beta), increasing in beta
        from scipy.optimize import brentq

        def g(t):
            return self._psi_gap(0, math.exp(t)) - mu

        lo, hi = -30.0, 30.0
        while g(lo) > 0:
            lo -= 20.0
        while g(hi) < 0:
            if hi >= 709.0:  # e^t overflows past t = 709.78
                raise MeanDomainError(f"mu={mu!r} too close to 0: its shape b overflows")
            hi = min(hi + 20.0, 709.0)
        b = math.exp(brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16))
        if b < 100.0:
            # where _psi_gap takes the digamma difference, it rounds by
            # eps (|psi(b)| + |psi(alpha + b)|); past b = 100 its series does not
            lost = abs(special.digamma(b)) + abs(special.digamma(self.alpha + b))
            if np.finfo(float).eps * lost > 1e-6 * -mu:
                raise MeanDomainError(f"mu={mu!r} too close to 0 for the digamma gap")
        return b

    def _mean_from_natural(self, lam):
        return self._psi_gap(0, lam)

    def _psi_gap(self, m: int, b: float) -> float:
        """psi^(m)(b) - psi^(m)(alpha + b), the m-th derivative of the mean
        map in the free shape b.  For an integer alpha = n it is the exact
        sum -(-1)^m m! sum_(j < n) 1 / (b + j)^(m + 1), free of the
        cancellation of the polygamma difference at large b (1.6e-9 relative
        in the variance at alpha = 2, b = 1e7).  Otherwise that difference
        below b = 100, and past it the difference of the asymptotic series

            psi^(m)(x) ~ (-1)^(m+1) [(m-1)! x^-m + m!/2 x^-(m+1)
                                     + sum_j B_2j (2j+m-1)!/(2j)! x^-(2j+m)]

        (log x in place of (m-1)! x^-m at m = 0) through B_12, term by term:
        log1p(alpha/b) and each b^-p - (alpha+b)^-p = -b^-p expm1(-p
        log1p(alpha/b)) keep their digits where the polygamma difference
        lost 4e-6 relative (m = 0, alpha = 2.5, b = 1e10)."""
        a = self.alpha
        if a.is_integer():
            return -(-1) ** m * math.factorial(m) * math.fsum(
                1.0 / (b + j) ** (m + 1) for j in range(int(a)))
        if b < 100.0:
            if m == 0:  # polygamma(0, .) is digamma behind a much slower wrapper
                return float(special.digamma(b) - special.digamma(a + b))
            return float(special.polygamma(m, b) - special.polygamma(m, a + b))
        log_ratio = math.log1p(a / b)

        def gap(p):  # b^-p - (alpha + b)^-p
            return -b ** -p * math.expm1(-p * log_ratio)

        lead = log_ratio if m == 0 else math.factorial(m - 1) * gap(m)
        terms = [lead, 0.5 * math.factorial(m) * gap(m + 1)] + [
            b2j * math.factorial(2 * j + m - 1) / math.factorial(2 * j) * gap(2 * j + m)
            for j, b2j in enumerate(_BERNOULLI_EVEN, start=1)]
        return (-1) ** (m + 1) * math.fsum(terms)

    def log_partition(self, lam):
        """log B(alpha, b).  For an integer alpha = n, B(n, b) = Gamma(n) /
        prod_(j < n) (b + j).  Otherwise ``special.betaln`` below b = 100,
        and past it log Gamma(alpha) minus Stirling's series for
        log Gamma(b + alpha) - log Gamma(b), where betaln's difference of
        log-gammas cancels (2e-9 absolute at alpha = 2.5, b = 10^6)."""
        lam = np.asarray(lam, dtype=float)
        a = self.alpha
        if a.is_integer():
            return -(np.log(lam[..., None] + np.arange(a)).sum(axis=-1)
                     - special.gammaln(a))
        b = np.maximum(lam, 100.0)

        def stirling(x):  # log Gamma(x) - (x - 1/2) log x + x - log(2 pi)/2
            y = 1.0 / (x * x)
            return (1.0 / 12 - y * (1.0 / 360 - y * (1.0 / 1260 - y / 1680))) / x

        ratio = ((b - 0.5) * np.log1p(a / b) + a * np.log(b + a) - a
                 + stirling(b + a) - stirling(b))
        return np.where(lam < 100.0, special.betaln(a, lam),
                        special.gammaln(a) - ratio)[()]

    def _variance_law(self, mu):
        """V and its derivatives in mu, through dmu/db = V: psi-gaps of the
        free shape b at every alpha."""
        b = self.natural_from_mean(mu)
        p1, p2, p3 = (self._psi_gap(m, b) for m in (1, 2, 3))
        # V' = p2 / p1 and V'' = d/dmu (p2/p1) = (p3*p1 - p2^2) / p1^3
        return p1, p2 / p1, (p3 * p1 - p2 * p2) / p1**3

    def log_carrier(self, x):
        # 1 - e^x via expm1 keeps precision as x -> 0-
        return (self.alpha - 1.0) * np.log(-np.expm1(np.asarray(x, dtype=float)))

    def mean_from_beta_mean(self, mean_u: float) -> float:
        """Convert E[U] of the beta observation to the mean of X = log(1-U)."""
        if not 0.0 < mean_u < 1.0:
            raise MeanDomainError(f"E[U]={mean_u} must lie in (0, 1)")
        # E[U] = alpha / (alpha + beta)  =>  beta = alpha (1 - E[U]) / E[U]
        b = self.alpha * (1.0 - mean_u) / mean_u
        return self.mean_from_natural(b)

    def _draw(self, mu, n, rng):
        """X = log(1 - U) in log space: 1 - U = G_b / (G_b + G_alpha) for
        independent G_s ~ Gamma(s), and log G_s = log G_(s+1) - E / s with
        E ~ Exp(1) (Marsaglia & Tsang, ACM TOMS 26:363, 2000), so X stays
        finite where G_b and 1 - U underflow to 0 at a small free shape b."""
        b = self.natural_from_mean(mu)
        log_b, log_a = (np.log(rng.standard_gamma(s + 1.0, n))
                        - rng.standard_exponential(n) / s for s in (b, self.alpha))
        x = -np.logaddexp(0.0, log_a - log_b)
        # where log(1 + e^t) underflows, -0.0 lies outside the support: take
        # the support point nearest 0 instead
        return np.minimum(x, -math.ulp(0.0), out=x)

    def _sum_quantile(self, mu, k, q):
        if self.alpha == 1.0:
            return -(special.gammaincinv(k, 1.0 - q) * (1.0 / (-1.0 / mu)))
        # Outer bounds from one observation, exact at k = 1: P(Z < k x) <=
        # k P(X < x) in the lower tail, and P(Z > x) <= P(X > x)^k at the
        # near-zero end, found through U = 1 - e^X ~ Beta(alpha, beta) so that
        # log1p keeps the digits of a U far below eps, or, where U's quantile
        # passes 1/2, through V = 1 - U ~ Beta(beta, alpha), whose digits
        # 1 - u would lose.
        b = self.natural_from_mean(mu)
        if q < 0.5:
            u = _beta_ppf(q / k, b, self.alpha)
            if u < 1e-290:
                # u has underflowed (small b): solve in log space the bound
                # I_u(b, alpha) <= 2^max(0, 1 - alpha) u^b / (b B(b, alpha))
                # for u <= 1/2 instead, whose root lies below the quantile
                return k * (math.log(q / k) + math.log(b) + float(self.log_partition(b))
                            - max(0.0, 1.0 - self.alpha) * math.log(2.0)) / b
            return k * float(np.log(u))
        p = (1.0 - q) ** (1.0 / k)
        u = _beta_ppf(p, self.alpha, b)
        if u <= 0.5:
            return np.log1p(-u)
        # V's level 1 - p, rounded up so that the end stays outer
        v = _beta_ppf(np.nextafter(1.0 - p, 1.0), b, self.alpha)
        if v < 1e-290:
            # v has underflowed (small b): solve in log space
            # v^b / (b B(b, alpha)) = 1 - p instead, a lower bound on
            # I_v(b, alpha) (to rounding at v < eps), whose root lies above
            # the quantile v of 1 - U
            return (math.log1p(-p) + math.log(b) + float(self.log_partition(b))) / b
        return math.log(v)

    def _sum_density(self, mus):
        """With alpha an integer n, 1 - U ~ Beta(b, n) makes -X a sum of n
        independent exponentials with rates b, b + 1, ..., b + n - 1 (Tang &
        Gupta, Stat. Probab. Lett. 2:165, 1984), so -Z is a gamma sum of
        shape 1 over the k n rates, at every k.  Non-integer alpha convolves
        numerically, at k = 2 only; other k are refused here."""
        if self.alpha.is_integer():
            b = np.array([self.natural_from_mean(m) for m in mus])
            gamma_sum = _GammaSum(1.0, (b[:, None] + np.arange(self.alpha)).ravel())
            return lambda z: gamma_sum(-z)
        if len(mus) == 2:
            lam, la = self._natural_params(sorted(mus, reverse=True))
            return lambda z: _convolve_log_pdf(self, lam, la, z)
        raise ComputationError(
            f"sum density for beta with non-integer alpha={self.alpha!r} is "
            f"only available for k = 2, not k = {len(mus)}"
        )

    def mean_from_std(self, s):
        return self.mean_from_natural(float(s))


# The one memory budget: a pass over many points holds temporaries of about
# 2**16 floats (512 KB), so they stay cache-sized however many points there
# are.  ``evariables`` scores that many block coordinates a pass.
_CHUNK_ELEMENTS = 2**16


def _sum_leading(terms) -> np.ndarray:
    """Sum over the leading axis of ``terms``, bit for bit as ``np.sum`` sums
    the same terms on a contiguous trailing axis.  np.sum adds fewer than 8
    terms one after the other, so they are added as whole arrays, with no
    reduction over a short axis; from 8 on it adds them in pairs, so they are
    copied to a trailing axis and np.sum adds them."""
    if len(terms) < 8:
        return functools.reduce(np.add, terms)
    return np.sum(np.ascontiguousarray(terms.T), axis=-1).T


def _log_sinch_damped(w: np.ndarray) -> np.ndarray:
    """log(e^-w sinh(w)/w) = log((1 - e^(-2w)) / (2w)) for w >= 0, without
    forming e^w, so that adding it to a large negative exponent cancels
    nothing; a series below w = 1e-4, which also holds at w = 0."""
    w = np.asarray(w, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0, replaced below
        out = np.log(-np.expm1(-2.0 * w) / (2.0 * w))
    tiny = w < 1e-4
    if tiny.any():
        wt = w[tiny]
        out[tiny] = np.log1p(wt * wt / 6.0 * (1.0 + wt * wt / 20.0)) - wt
    return out


class _GammaSum:
    """Log-density of a sum of independent Gamma(shape, rate_i), one per rate,
    built once per rate set and evaluated at any z.

    Rates within 1e-12 relative of each other are one rate (their mean) with
    a multiplicity, and the branch is picked once.  One rate is the gamma
    density; k = 2 uses log sinh(w)/w (shape 1) or the modified Bessel
    function I0 (shape 1/2).  Shape 1 with J >= 2 rates r_j of multiplicities
    m_j uses the generalized-Erlang partial fractions (Jasiulewicz &
    Kordecki, Demonstratio Math. 36:231, 2003)

        f(z) = sum_j e^(-r_j z) sum_(l < m_j) g_j[m_j - 1 - l] z^l / l!,

    g_j the Taylor coefficients at s = -r_j of r_j^m_j prod_(i != j)
    (r_i / (r_i + s))^m_i, from (n + 1) g[n + 1] = sum_p g[n - p] H[p] with
    H[p] = sum_(i != j) m_i / (r_j - r_i)^(p + 1).  They take no BLAS call:
    Horner in z and a sum over j as whole arrays (``_sum_leading``), so a
    point's bits do not depend on the points evaluated with it.  The same
    recursion on absolute values bounds |g_j| and so the coefficients' own
    rounding; a point keeps the fractions where 3k eps times the bounded
    sum|terms| is at most 1e-12 of the density and the density, scaled by
    e^(r_min z), exceeds 1e-280.  Every other point (nearly tied rates, small
    z, shape 1/2 at k >= 3) takes Moschopoulos' series (``_series``), whose
    weights are built once, up to the most terms a point has needed.
    """

    def __init__(self, shape: float, rates):
        self.shape = float(shape)
        self.rates = np.asarray(rates, dtype=float)
        self.k = self.rates.size
        groups: list[list[float]] = []
        for r in sorted(self.rates.tolist()):
            if groups and r - groups[-1][0] <= 1e-12 * r:
                groups[-1].append(r)
            else:
                groups.append([r])
        # a group's rate is its first plus the mean offset: exact for exact ties
        self.lam = np.array([g[0] + math.fsum(r - g[0] for r in g) / len(g)
                             for g in groups])
        self.mult = np.array([len(g) for g in groups])
        self._log_w = np.empty(0)  # series weights, grown on demand
        # each branch's constants, built once with the expressions it adds
        if self.lam.size == 1:
            self._eval = self._gamma
            a, r = self.k * self.shape, self.lam[0]
            self._const = (a * np.log(r), a - 1.0, r, special.gammaln(a))
        elif self.k == 2 and self.shape in (0.5, 1.0):
            self._eval = self._bessel if self.shape == 0.5 else self._sinch
            r0, r1 = self.rates
            self._const = (np.log(r0 * r1), min(r0, r1), 0.5 * abs(r0 - r1))
        elif self.shape == 1.0:
            self._eval = self._erlang
            self._coef = self._fractions()
            self._shift = (self.lam[0] - self.lam)[:, None]
            self._tol = 3 * self.k * np.finfo(float).eps / 1e-12
        else:
            self._eval = self._series

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return self._eval(z.ravel()).reshape(z.shape)

    def _gamma(self, z):
        a_log_r, a_less_1, r, log_gamma = self._const
        return a_log_r + a_less_1 * np.log(z) - r * z - log_gamma

    # Both k = 2 forms are e^(-(r0 + r1) z / 2) times a function of
    # w = |r0 - r1| z / 2 that grows like e^w; they take e^(-r_min z) times
    # the function damped by e^-w instead, since adding w to
    # -(r0 + r1) z / 2 in floats loses eps (r0 + r1) z: up to 1e-7 of the
    # log-density at a rate ratio of 2e7.

    def _sinch(self, z):
        log_r0_r1, r_min, half_gap = self._const
        return (log_r0_r1 + np.log(z) - r_min * z
                + _log_sinch_damped(half_gap * z))

    def _bessel(self, z):
        log_r0_r1, r_min, half_gap = self._const
        return (np.log(special.i0e(half_gap * z)) - r_min * z
                + 0.5 * log_r0_r1)

    def _fractions(self) -> np.ndarray:
        """c[0, j, l] = g_j[m_j - 1 - l] / l! and c[1, j, l], the same from
        the recursion on absolute values; zero for l >= m_j.  Plain floats:
        the arrays are tiny, and products overflow to inf, which the
        rounding mask then refuses, instead of raising."""
        lam, mult = self.lam.tolist(), self.mult.tolist()
        coef = np.zeros((2, len(lam), max(mult)))
        for j, (rj, mj) in enumerate(zip(lam, mult)):
            others = [(ri, mi) for i, (ri, mi) in enumerate(zip(lam, mult)) if i != j]
            g = [math.prod([rj] * mj + [ri / (ri - rj) for ri, mi in others
                                        for _ in range(mi)])]
            ga = [abs(g[0])]
            u = [1.0 / (rj - ri) for ri, _ in others]
            power = list(u)
            h, ha = [], []  # H[p] and its bound, from u^(p + 1)
            for p in range(mj - 1):
                h.append(sum(mi * x for (_, mi), x in zip(others, power)))
                ha.append(sum(mi * abs(x) for (_, mi), x in zip(others, power)))
                power = [x * y for x, y in zip(power, u)]
            for n in range(mj - 1):
                g.append(sum(g[n - p] * h[p] for p in range(n + 1)) / (n + 1))
                ga.append(sum(ga[n - p] * ha[p] for p in range(n + 1)) / (n + 1))
            fact = 1.0
            for l in range(mj):
                coef[:, j, l] = g[mj - 1 - l] / fact, ga[mj - 1 - l] / fact
                fact *= l + 1
        return coef

    def _erlang(self, z):
        out = np.empty(z.size)
        exact = np.empty(z.size, dtype=bool)
        lam0, coef, shift = self.lam[0], self._coef, self._shift
        rows = max(1, _CHUNK_ELEMENTS // coef[..., 0].size)  # (2, J, rows) arrays
        for i in range(0, z.size, rows):
            zc = z[i:i + rows]
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                poly = coef[..., -1:]
                for col in range(coef.shape[-1] - 2, -1, -1):
                    poly = poly * zc + coef[..., col:col + 1]
                terms = poly * np.exp(shift * zc)
                vals, tot = _sum_leading(terms.swapaxes(0, 1))
                # below ~1e-280 the terms lose relative precision to underflow
                exact[i:i + rows] = (self._tol * tot <= vals) & (vals > 1e-280)
                out[i:i + rows] = np.log(vals) - lam0 * zc
        if not exact.all():
            out[~exact] = self._series(z[~exact])
        return out

    def _weights(self, m: int) -> np.ndarray:
        """log of the series' first m weights: the law of sum N_j times
        1 / Gamma(k shape + n); built once, up to the largest m asked for."""
        if self._log_w.size < m:
            lam, r = self.lam, self.lam[-1]
            c = 1.0 - lam / r
            n = np.arange(m, dtype=float)
            delta = np.ones(1)
            for cj, mj in zip(c[:-1], self.mult[:-1]):
                step = (mj * self.shape + n[:-1]) / n[1:] * (cj / c.max())
                delta = np.convolve(delta, np.cumprod(np.concatenate(([1.0], step))))[:m]
            self._log_w = np.log(delta) - special.gammaln(self.k * self.shape + n)
        return self._log_w[:m]

    def _series(self, z: np.ndarray, m: int = 8) -> np.ndarray:
        """Moschopoulos' series (Ann. Inst. Statist. Math. 37:541, 1985) in
        log space.

        Gamma(s_j, r_j), s_j = m_j shape, is Gamma(s_j + N_j, r) with r the
        largest rate, for N_j negative binomial(s_j, r_j / r), so the sum
        mixes Gamma(k shape + n, r) over the law of sum N_j: positive terms.
        Scaled by c^n, c = max(1 - r_j / r), its weights are at most those of
        (1 - t)^-(k shape), so with x = c r z the terms past the first m add
        at most e^x P(m, x) / Gamma(k shape) in the units of the sum.  Each
        point starts at m terms and doubles its own count, adding only the
        new terms to its running log-sum, until that bound is below e^-40 of
        the sum, up to 16384 terms.  A point is refused as soon as the cap is
        out of reach: no partial sum exceeds e^val plus the bound, and at
        x >= 16384 the terms past the cap add at least e^x / (2 Gamma(k
        shape)), since the gamma median lies below its shape.
        """
        cap, r, rho = 2**14, self.lam[-1], self.k * self.shape
        log_gamma = special.gammaln(rho)
        x = (1.0 - self.lam[0] / r) * r * z
        with np.errstate(divide="ignore"):
            log_x = np.log(x)
        out = np.empty(z.size)
        todo = np.arange(z.size)
        top, acc = np.full(z.size, -np.inf), np.zeros(z.size)  # log-sum so far
        done = 0  # terms summed at every point of todo
        while todo.size:
            coef, n = self._weights(m)[done:], np.arange(done, m)
            rows = max(1, _CHUNK_ELEMENTS // (m - done))  # (rows, terms) arrays
            for i in range(0, todo.size, rows):
                at = todo[i:i + rows]
                t = coef + n * log_x[at, None]
                new = np.maximum(top[at], t.max(axis=1))
                acc[at] = (acc[at] * np.exp(top[at] - new)
                           + np.exp(t - new[:, None]).sum(axis=1))
                top[at] = new
            val = top[todo] + np.log(acc[todo])
            with np.errstate(divide="ignore"):
                tail = x[todo] + np.log(special.gammainc(m, x[todo])) - log_gamma
            short = tail - val > -40.0
            # one nat of slack on the bound past the cap
            reach = x[todo] - math.log(2.0) - log_gamma - np.logaddexp(val, tail)
            hopeless = short & ((m >= cap) | (x[todo] >= cap) & (reach > -39.0))
            if hopeless.any():
                raise ComputationError(
                    f"gamma-sum series needs more than {cap} terms for rates "
                    f"{self.rates.tolist()} at z={float(z[todo[hopeless]].max())!r}")
            out[todo[~short]] = val[~short]
            todo = todo[short]
            done, m = m, 2 * m
        return out + (self.shape * np.dot(self.mult, np.log(self.lam / r)) + math.log(r)
                      + (rho - 1.0) * np.log(r * z) - r * z)


def _hypoexponential_log_pdf(shape: float, rates, z) -> np.ndarray:
    """``_GammaSum(shape, rates)(z)`` for one call.  The package builds its
    ``_GammaSum``s in ``_sum_density`` and no longer calls this; it is kept
    because the span tracer of ``perfbench/spans.py`` wraps it by name."""
    return _GammaSum(shape, rates)(z)


def _convolve_log_pdf(spec: BetaFixedAlpha, lam: np.ndarray, la: np.ndarray,
                      z) -> np.ndarray:
    """Log-density of X_1 + X_2 by numeric convolution, for non-integer alpha.

    ``lam`` and ``la`` are the free shapes and log-normalizers of the two
    groups, ordered so that X_1 has the larger mean, and so the larger free
    shape; with y = -X_1 and L = -z the integrand is, up to a constant,
    e^(-r y) h(y) h(L - y), where r >= 0 is the gap between the free shapes
    and h(y) = (1 - e^-y)^(alpha-1).  Less than e^-50 of the mass of
    e^(-r y) y^(alpha-1) lies past y = (60 + 2 alpha) / r, so (0, L) is cut
    there, or at L/2 if that comes first, and each side is integrated from
    the end where its own h is singular: 80 Gauss-Jacobi nodes on the first
    20 units absorb the fractional part of h's power y^(alpha-1), and 80
    Gauss-Legendre nodes cover the rest, where h is smooth.  A single rule
    over (0, L) misses the peak of width 1/r at wide mean ratios, and its
    weight y^(alpha-1) misfits h past y ~ 1 at large alpha.  The terms are
    summed in log space, so deep tails do not underflow; a sum that is not
    finite raises ``ComputationError``.
    """
    z = np.asarray(z, dtype=float)
    flat = z.reshape(-1, 1)
    a = spec.alpha - math.ceil(spec.alpha) + 1.0
    with np.errstate(divide="ignore"):  # equal shapes: r = 0 cuts at L/2
        cut = np.maximum(0.5 * flat, -(60.0 + 2.0 * spec.alpha) / (lam[0] - lam[1]))
    terms = []
    for near, end in ((0, cut), (1, flat - cut)):
        edge = np.maximum(end, -20.0)
        xs, ws = _quad.jacobi_nodes(edge.ravel(), 80, a, 1.0)
        xr, wr = _quad.jacobi_nodes((end - edge).ravel(), 80, 1.0, 1.0)
        for x, w in ((xs, ws), (edge + xr, wr)):
            # a zero-length rest has w = 0; nodes that round to x = 0 give
            # inf - inf, refused below
            with np.errstate(divide="ignore", invalid="ignore"):
                terms.append(np.log(w) + lam[near] * x - la[near]
                             + lam[1 - near] * (flat - x) - la[1 - near]
                             + spec.log_carrier(x) + spec.log_carrier(flat - x))
    out = special.logsumexp(np.concatenate(terms, axis=1), axis=1)
    if not np.all(np.isfinite(out)):
        raise ComputationError(
            f"beta sum density with alpha={spec.alpha!r} and free shapes "
            f"{lam.tolist()} is not finite at "
            f"z={float(z.ravel()[~np.isfinite(out)][0])!r}")
    return out.reshape(z.shape)


_FAMILIES = {cls.family_id: cls for cls in (
    Bernoulli, GaussianFreeMean, GaussianFreeVariance, Poisson, Exponential,
    Geometric, BetaFixedAlpha)}


def make_family(name: str, **fixed) -> FamilySpec:
    """Construct a family by id, e.g. make_family("gaussian_mean", sigma2=2.0)."""
    if not isinstance(name, str):
        raise ValueError(f"family must be a string, got {name!r}")
    key = name.strip().lower()
    aliases = {
        "beta": "beta_fixed_alpha",
        "gaussian": "gaussian_mean",
        "gauss_mean": "gaussian_mean",
        "gauss_variance": "gaussian_variance",
    }
    key = aliases.get(key, key)
    if key not in _FAMILIES:
        raise ValueError(
            f"unknown family '{name}'; choose from {sorted(_FAMILIES)}"
        )
    cls = _FAMILIES[key]
    takes = list(inspect.signature(cls).parameters)
    for param in fixed:
        if param not in takes:
            raise ValueError(
                f"family '{key}' has no fixed parameter {param!r}; it takes "
                f"{takes or 'none'}"
            )
    _require_real(**fixed)
    return cls(**fixed)


def _check_keys(what: str, d, required, optional=()) -> None:
    """Refuse a JSON object of a run configuration or a mixture file that
    lacks a required key or has an unknown one, naming the keys."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    missing = [key for key in required if key not in d]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(map(repr, missing))}")
    unknown = [key for key in d if key not in required and key not in optional]
    if unknown:
        raise ValueError(f"{what} has unknown key(s) {', '.join(map(repr, unknown))}")


def family_from_config(cfg: dict) -> FamilySpec:
    """Inverse of FamilySpec.to_config (mean_params unread); refuses unknown keys."""
    _check_keys("config", cfg, ("family",),
                ("fixed_params", "mean_params", "beta_means"))
    fixed = cfg.get("fixed_params", {})
    if not isinstance(fixed, dict):
        raise ValueError(f"fixed_params must be a JSON object, got {fixed!r}")
    return make_family(cfg["family"], **fixed)


def problem_from_config(cfg: dict) -> tuple[FamilySpec, list[float]]:
    """The family and group means of a run configuration.

    With ``beta_means`` set, ``mean_params`` are means E[U] of beta
    observations and are converted to means of X; any other family refuses
    that key with a ``ValueError``, as it does a config with no family or
    fewer than two means.
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, got {cfg!r}")
    missing = [key for key in ("family", "mean_params") if key not in cfg]
    if missing:
        raise ValueError("config needs 'family' and 'mean_params', missing "
                         + " and ".join(map(repr, missing)))
    spec = family_from_config(cfg)
    means = cfg["mean_params"]
    if not isinstance(means, list):
        raise ValueError(f"mean_params must be a list of numbers, got {means!r}")
    if len(means) < 2:
        raise ValueError(f"mean_params needs at least two group means, got {means!r}")
    _require_real(**{f"mean_params[{i}]": m for i, m in enumerate(means)})
    beta_means = cfg.get("beta_means", False)
    if not isinstance(beta_means, bool):
        raise ValueError(f"beta_means must be true or false, got {beta_means!r}")
    if beta_means:
        if not isinstance(spec, BetaFixedAlpha):
            raise ValueError(f"beta_means applies only to beta_fixed_alpha, not "
                             f"to family '{spec.family_id}'")
        means = [spec.mean_from_beta_mean(m) for m in means]
    return spec, means


@dataclass(frozen=True)
class Alternative:
    """A simple alternative: one mean parameter per group.

    Derived quantities: the pooled mean mu0_star (the KL-closest i.i.d. null
    point), the effect size delta (Euclidean distance from the equal-means
    ray) and the unit direction with zero-sum entries (None when delta = 0).
    """

    mu: tuple[float, ...]
    mu0_star: float
    delta: float
    direction: tuple[float, ...] | None

    @classmethod
    def from_means(cls, spec: FamilySpec, mus: Sequence[float]) -> "Alternative":
        mus = [spec.check_mean(m) for m in mus]
        if len(mus) < 2:
            raise ValueError("an alternative needs k >= 2 groups")
        arr = np.asarray(mus, dtype=float)
        center = float(arr.mean())
        resid = arr - center
        delta = float(np.linalg.norm(resid))
        direction = tuple(resid / delta) if delta > 0 else None
        return cls(tuple(arr), center, delta, direction)

    @classmethod
    def from_effect(
        cls,
        spec: FamilySpec,
        mu0: float,
        delta: float,
        direction: Sequence[float],
    ) -> "Alternative":
        d = np.asarray(direction, dtype=float)
        if abs(d.sum()) > 1e-9:
            raise ValueError("direction entries must sum to 0")
        norm = np.linalg.norm(d)
        if norm == 0:
            raise ValueError("direction must be nonzero")
        return cls.from_means(spec, mu0 + delta * d / norm)

    @property
    def k(self) -> int:
        return len(self.mu)


def default_direction(k: int) -> np.ndarray:
    """The canonical positive-effect direction for k >= 2, (1, -1)/sqrt(2) at k = 2."""
    _require_at_least(2, k=k)
    d = np.zeros(k)
    d[0] = 1.0
    d[-1] = -1.0
    return d / np.linalg.norm(d)


def reduce_sufficient(source: str, raw, v: float | None = None) -> np.ndarray:
    """Map raw observations to the sufficient statistic of a supported family.

    source = "pareto" (fixed scale v > 0): t(u) = log(u / v), giving
    exponential data; source = "lognormal": t(u) = log(u), giving Gaussian
    data.
    """
    raw = np.asarray(raw, dtype=float)
    source = source.strip().lower()
    if source == "pareto":
        if v is None or v <= 0:
            raise ValueError("pareto reduction needs a positive fixed scale v")
        if np.any(raw < v):
            raise MeanDomainError(f"pareto observations must be >= v={v}")
        return np.log(raw / v)
    if source == "lognormal":
        if np.any(raw <= 0):
            raise MeanDomainError("lognormal observations must be positive")
        return np.log(raw)
    raise ValueError(f"unknown source '{source}'; use 'pareto' or 'lognormal'")
