import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from ksample_evalues import (
    Alternative,
    ComputationError,
    MeanDomainError,
    SupportError,
    as_generator,
    family_from_config,
    make_family,
    reduce_sufficient,
)
from ksample_evalues import evariables, sequential
from ksample_evalues._quad import sum_nodes, support_nodes
from ksample_evalues.expfam import (
    _FAMILIES,
    _GammaSum,
    _hypoexponential_log_pdf,
    problem_from_config,
    spawn_keys,
)

ALL_FAMILIES = [
    "bernoulli",
    "gaussian_mean",
    "gaussian_variance",
    "poisson",
    "exponential",
    "geometric",
    "beta_fixed_alpha",
]

# central sampling ranges used to draw random mean parameters per family
MU_RANGES = {
    "bernoulli": (0.05, 0.95),
    "gaussian_mean": (-3.0, 3.0),
    "gaussian_variance": (0.2, 5.0),
    "poisson": (0.2, 6.0),
    "exponential": (0.1, 4.0),
    "geometric": (0.2, 8.0),
    "beta_fixed_alpha": (-3.0, -0.15),
}


def random_mus(name, n, seed=0):
    lo, hi = MU_RANGES[name]
    rng = np.random.default_rng(seed)
    return lo + (hi - lo) * rng.random(n)


def lebesgue_integral(spec, f):
    """Independent oracle: scipy adaptive quadrature / direct summation."""
    s = spec.support
    if s.discrete:
        hi = s.hi if np.isfinite(s.hi) else 10_000
        x = np.arange(s.lo, hi + 1)
        return float(np.sum(f(x)))
    lo = s.lo if np.isfinite(s.lo) else -np.inf
    hi = s.hi if np.isfinite(s.hi) else np.inf
    val, _ = integrate.quad(f, lo, hi, limit=400)
    return val


class TestParameterMaps:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_roundtrip(self, name):
        spec = make_family(name)
        for mu in random_mus(name, 20, seed=1):
            lam = spec.natural_from_mean(mu)
            back = spec.mean_from_natural(lam)
            assert back == pytest.approx(mu, abs=1e-10 * max(1.0, abs(mu)))

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_natural_space_holds_every_lambda_and_ends_where_the_means_do(self, name):
        spec = make_family(name)
        lo, hi = spec.natural_space
        lams = [spec.natural_from_mean(mu) for mu in random_mus(name, 20, seed=2)]
        assert all(lo < lam < hi for lam in lams)
        for end in (lo, hi):
            if math.isfinite(end):
                with pytest.raises(MeanDomainError, match="^canonical parameter"):
                    spec.mean_from_natural(end)

    # the maps as closed forms, to check the checked map returns them bit for bit
    MEAN_MAPS = {
        "bernoulli": lambda spec, lam: float(special.expit(lam)),
        "gaussian_mean": lambda spec, lam: lam * spec.sigma2,
        "gaussian_variance": lambda spec, lam: -0.5 / lam,
        "poisson": lambda spec, lam: math.exp(lam),
        "exponential": lambda spec, lam: -1.0 / lam,
        "geometric": lambda spec, lam: 1.0 / math.expm1(-lam),
        "beta_fixed_alpha": lambda spec, lam: spec._psi_gap(0, lam),
    }

    @pytest.mark.parametrize("name, fixed", [
        *[(name, {}) for name in ALL_FAMILIES],
        ("gaussian_mean", {"sigma2": 2.5}),
        ("beta_fixed_alpha", {"alpha": 2.0}),
        ("beta_fixed_alpha", {"alpha": 0.5}),
    ])
    def test_valid_lambda_keeps_its_mean(self, name, fixed):
        spec = make_family(name, **fixed)
        lo, hi = spec.mean_space
        if name == "bernoulli":
            mus = np.linspace(1e-6, 1.0 - 1e-6, 201)
        else:
            mus = np.geomspace(1e-6, 1e6, 201)
            mus = mus if lo == 0.0 else -mus if hi == 0.0 else np.concatenate([mus, -mus])
        for mu in mus:
            lam = spec.natural_from_mean(mu)
            back = spec.mean_from_natural(lam)
            assert back == self.MEAN_MAPS[name](spec, lam)
            assert back == pytest.approx(mu, rel=1e-9)

    @pytest.mark.parametrize("name, fixed, lam", [
        ("exponential", {}, 1.0), ("gaussian_variance", {}, 0.5),
        ("geometric", {}, 0.5), ("geometric", {}, 1e-300),
        ("bernoulli", {}, 40.0), ("bernoulli", {}, math.inf),
        *[(name, {}, math.nan) for name in ALL_FAMILIES if name != "beta_fixed_alpha"],
        ("exponential", {}, 0.0), ("geometric", {}, 0.0), ("gaussian_variance", {}, 0.0),
        ("poisson", {}, 710.0), ("poisson", {}, -800.0),
        ("gaussian_mean", {"sigma2": 2.0}, 1e308),
        ("exponential", {}, -1e-320), ("exponential", {}, -math.inf),
        ("beta_fixed_alpha", {"alpha": 0.5}, -0.9), ("beta_fixed_alpha", {}, 1e-320),
    ])
    def test_lambda_outside_its_space_or_mean_refused(self, name, fixed, lam):
        # these once gave a wrong mean (exponential -1.0 at 1.0, bernoulli 1.0
        # at 40, NaN at NaN) or raised ZeroDivisionError or OverflowError
        spec = make_family(name, **fixed)
        match = rf"^canonical parameter {re.escape(repr(lam))} .*'{name}'"
        with pytest.raises(MeanDomainError, match=match):
            spec.mean_from_natural(lam)

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_lambda_outside_the_natural_space_refused_with_one_message(self, name):
        # NaN and every lambda past a finite end, before the family's law runs
        spec = make_family(name)
        lo, hi = spec.natural_space
        lams = [math.nan]
        lams += [lo, lo - 1.0, -math.inf] if math.isfinite(lo) else []
        lams += [hi, hi + 1.0, math.inf] if math.isfinite(hi) else []
        for lam in lams:
            msg = (f"canonical parameter {lam!r} outside ({lo}, {hi}) for family "
                   f"'{name}'")
            with pytest.raises(MeanDomainError, match=f"^{re.escape(msg)}$"):
                spec.mean_from_natural(lam)

    def test_known_natural_values(self):
        assert make_family("bernoulli").natural_from_mean(0.5) == pytest.approx(0.0)
        assert make_family("poisson").natural_from_mean(1.0) == pytest.approx(0.0)
        # exponential: lambda = -1/mu, checked against a finite difference of A'
        spec = make_family("exponential")
        lam = spec.natural_from_mean(0.5)
        assert lam == pytest.approx(-2.0)
        h = 1e-6
        a_prime = (spec.log_partition(lam + h) - spec.log_partition(lam - h)) / (2 * h)
        assert a_prime == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_out_of_domain_error_names_family(self, name):
        spec = make_family(name)
        lo, hi = spec.mean_space
        bad = lo - 1.0 if np.isfinite(lo) else hi + 1.0
        good = float(np.mean(MU_RANGES[name]))
        z = spec.sample(good, 3, as_generator(0))
        refusals = [lambda: spec.natural_from_mean(bad),
                    lambda: spec.sample(bad, 3, 0),
                    lambda: spec.sum_log_pdf([bad], z),
                    lambda: spec.sum_log_pdf([good, bad], 2 * z)]
        for call in refusals:
            with pytest.raises(MeanDomainError, match=name):
                call()


class TestDensities:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_normalization(self, name):
        spec = make_family(name)
        for mu in random_mus(name, 20, seed=2):
            total = lebesgue_integral(spec, lambda x: np.exp(spec.log_pdf(mu, x)))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_symmetric_bernoulli_ratio(self):
        spec = make_family("bernoulli")
        r = spec.log_density(0.5, 1) - spec.log_density(0.5, 0)
        assert r == pytest.approx(0.0, abs=1e-15)

    def test_exponential_rate_one_log_pdf(self):
        # at mu = 1 the carrier is trivial, so both density views agree with
        # the standard exponential pdf: log p(2) = -2
        spec = make_family("exponential")
        assert float(spec.log_density(1.0, 2.0)) == pytest.approx(-2.0)
        assert float(spec.log_pdf(1.0, 2.0)) == pytest.approx(-2.0)

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_support_error(self, name):
        spec = make_family(name)
        # off the support of one observation and of every k-fold sum
        bad = {"bernoulli": 1.5, "gaussian_mean": None, "gaussian_variance": -1.0,
               "poisson": 1.5, "exponential": -0.5, "geometric": -1.0,
               "beta_fixed_alpha": 0.5}[name]
        if bad is None:
            pytest.skip("full-line support")
        mu = np.mean(MU_RANGES[name])
        with pytest.raises(SupportError):
            spec.log_density(mu, bad)
        for k in (1, 2):
            with pytest.raises(SupportError, match=f"k={k} sum"):
                spec.sum_log_pdf([mu] * k, np.array([bad, 2.0 * k * mu]))


def central_moments_34(spec, mu):
    """E[(X - mu)^3] = V'V and E[(X - mu)^4] = 3V^2 + (V''V + V'^2)V, from the
    variance law of a natural exponential family."""
    v, d1, d2 = spec.variance(mu), spec.variance_d1(mu), spec.variance_d2(mu)
    return d1 * v, 3.0 * v * v + (d2 * v + d1 * d1) * v


class TestMoments:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_finite_difference_consistency(self, name):
        spec = make_family(name)
        for mu in random_mus(name, 5, seed=3):
            lam = spec.natural_from_mean(mu)
            h = 1e-5 * max(1.0, abs(lam))
            a = spec.log_partition
            d1 = (a(lam + h) - a(lam - h)) / (2 * h)
            d2 = (a(lam + h) - 2 * a(lam) + a(lam - h)) / (h * h)
            assert d1 == pytest.approx(mu, abs=1e-6 * max(1.0, abs(mu)))
            var = spec.variance(mu)
            assert d2 == pytest.approx(var, abs=1e-5 * max(1.0, var))

    def test_variance_examples(self):
        assert make_family("gaussian_mean", sigma2=1.0).variance(3.7) == 1.0
        assert make_family("bernoulli").variance(0.25) == pytest.approx(0.1875)
        assert make_family("exponential").variance(0.5) == pytest.approx(0.25)

    def test_exponential_variance_monte_carlo(self):
        spec = make_family("exponential")
        x = spec.sample(0.5, 10**5, as_generator(5))
        se = 0.25 * math.sqrt(8.0 / 10**5)  # var of sample variance ~ mu^4 * 8/n
        assert np.var(x) == pytest.approx(0.25, abs=4 * se)

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_variance_derivatives_match_finite_differences(self, name):
        spec = make_family(name)
        for mu in random_mus(name, 3, seed=4):
            h = 1e-5 * max(1.0, abs(mu))
            d1 = (spec.variance(mu + h) - spec.variance(mu - h)) / (2 * h)
            d2 = (
                spec.variance(mu + h) - 2 * spec.variance(mu) + spec.variance(mu - h)
            ) / (h * h)
            assert spec.variance_d1(mu) == pytest.approx(d1, abs=1e-5 * max(1, abs(d1)))
            assert spec.variance_d2(mu) == pytest.approx(d2, abs=2e-4 * max(1, abs(d2)))

    # scipy.stats law of the sufficient statistic at mean mu, and the sign
    # that maps its skewness to X's (beta with alpha = 1 has X = -E, E
    # exponential with mean -mu)
    SCIPY_LAWS = {
        "bernoulli": lambda mu: (stats.bernoulli(mu), 1.0),
        "gaussian_mean": lambda mu: (stats.norm(mu, 1.0), 1.0),
        "gaussian_variance": lambda mu: (stats.gamma(0.5, scale=2.0 * mu), 1.0),
        "poisson": lambda mu: (stats.poisson(mu), 1.0),
        "exponential": lambda mu: (stats.expon(scale=mu), 1.0),
        "geometric": lambda mu: (stats.nbinom(1, 1.0 / (1.0 + mu)), 1.0),
        "beta_fixed_alpha": lambda mu: (stats.expon(scale=-mu), -1.0),
    }

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_central_moments_match_scipy_stats(self, name):
        spec = make_family(name)
        for mu in random_mus(name, 5, seed=6):
            law, sign = self.SCIPY_LAWS[name](mu)
            var, skew, kurt = (float(v) for v in law.stats(moments="vsk"))
            assert spec.variance(mu) == pytest.approx(var, rel=1e-12)
            m3, m4 = central_moments_34(spec, mu)
            assert m3 == pytest.approx(sign * skew * var**1.5, rel=1e-10,
                                       abs=1e-14 * var**1.5)
            assert m4 == pytest.approx((kurt + 3.0) * var**2, rel=1e-10)

    def test_beta_general_alpha_moments_match_quadrature(self):
        spec = make_family("beta_fixed_alpha", alpha=2.0)
        for mu in (-2.0, -0.7, -0.3):
            x, w = support_nodes(spec, [mu], n=4096)
            p = w * np.exp(spec.log_pdf(mu, x))
            m = x - mu
            assert np.sum(p * m * m) == pytest.approx(spec.variance(mu), rel=1e-9)
            m3, m4 = central_moments_34(spec, mu)
            assert np.sum(p * m**3) == pytest.approx(m3, rel=1e-9)
            assert np.sum(p * m**4) == pytest.approx(m4, rel=1e-9)


class TestSampling:
    def test_bernoulli_mean_band(self):
        spec = make_family("bernoulli")
        x = spec.sample(0.3, 10**5, as_generator(0))
        se = math.sqrt(0.3 * 0.7 / 10**5)
        assert abs(x.mean() - 0.3) < 4 * se

    def test_poisson_variance_band(self):
        spec = make_family("poisson")
        x = spec.sample(2.0, 10**5, as_generator(1))
        # variance of the sample variance ~ (m4 - var^2)/n
        m4 = central_moments_34(spec, 2.0)[1]
        se = math.sqrt((m4 - 4.0) / 10**5)
        assert abs(np.var(x) - 2.0) < 4 * se

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_determinism(self, name):
        spec = make_family(name)
        mu = float(np.mean(MU_RANGES[name]))
        a = spec.sample(mu, 100, as_generator(42))
        b = spec.sample(mu, 100, as_generator(42))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_samples_in_support(self, name):
        spec = make_family(name)
        mu = float(np.mean(MU_RANGES[name]))
        x = spec.sample(mu, 1000, as_generator(3))
        assert np.all(spec.support.contains(x))

    @pytest.mark.parametrize("alpha", [1e-3, 0.01])
    def test_beta_draws_in_support_at_a_small_alpha(self, alpha):
        # -log(1 + e^t) underflowed to -0.0, outside the support: at
        # mu = -0.5, 92 960 of 200 000 draws at alpha = 1e-3 and 105 at 0.01
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        x = spec.sample(-0.5, 200_000, as_generator(0))
        assert np.all(spec.support.contains(x))
        assert np.any(x == -math.ulp(0.0))  # the support point nearest 0

    # P(X <= t) = I_(e^t)(b, alpha) in closed form, with e^t never formed
    BETA_CDFS = {1.0: lambda b, t: np.exp(b * t),
                 2.0: lambda b, t: np.exp(b * t) * (b + 1.0 - b * np.exp(t))}

    @pytest.mark.parametrize("mean_u", [0.999, 0.99999])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_beta_draws_finite_at_a_small_free_shape(self, alpha, mean_u):
        # 1 - U underflowed to 0 at a small free shape b: at alpha = 1 and
        # E[U] = 0.999, 47.7 % of 10^4 draws were -inf
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        mu = spec.mean_from_beta_mean(mean_u)
        x = spec.sample(mu, 10**4, as_generator(0))
        assert np.all(np.isfinite(x)) and np.all(spec.support.contains(x))
        assert abs(x.mean() - mu) < 4 * x.std() / 100
        if alpha in self.BETA_CDFS:
            b = spec.natural_from_mean(mu)
            cdf = self.BETA_CDFS[alpha]
            assert stats.kstest(x, lambda t: cdf(b, t)).pvalue > 1e-3


class TestKL:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_zero_iff_equal_and_positive(self, name):
        spec = make_family(name)
        mus = random_mus(name, 4, seed=6)
        for mu in mus:
            assert spec.kl(mu, mu) == 0.0
        for a, b in zip(mus[:-1], mus[1:]):
            assert spec.kl(a, b) > 0.0

    def test_bernoulli_two_point_sum(self):
        spec = make_family("bernoulli")
        expect = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert spec.kl(0.5, 0.25) == pytest.approx(expect, abs=1e-14)

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_matches_direct_integral(self, name):
        spec = make_family(name)
        mus = random_mus(name, 2, seed=7)
        a, b = float(mus[0]), float(mus[1])

        def integrand(x):
            return np.exp(spec.log_pdf(a, x)) * (
                spec.log_density(a, x) - spec.log_density(b, x)
            )

        assert spec.kl(a, b) == pytest.approx(
            lebesgue_integral(spec, integrand), abs=1e-8 * max(1, spec.kl(a, b))
        )


SUM_CASES = {
    "bernoulli": [0.3, 0.6, 0.45],
    "gaussian_mean": [0.5, -1.0, 2.0],
    "gaussian_variance": [0.5, 0.25, 1.5],
    "poisson": [1.0, 2.5, 0.7],
    "exponential": [0.5, 0.25, 1.2],
    "geometric": [10.0 / 3, 1.25, 2.0],
    "beta_fixed_alpha": [-1.0, -1.0 / 3, -0.7],
}


class TestSumDensity:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    @pytest.mark.parametrize("k", [2, 3])
    def test_normalization_and_mean(self, name, k):
        spec = make_family(name)
        mus = SUM_CASES[name][:k]
        z, w = sum_nodes(spec, mus, k, n=2048)
        p = np.exp(spec.sum_log_pdf(mus, z))
        assert np.sum(w * p) == pytest.approx(1.0, abs=1e-6)
        assert np.sum(w * z * p) == pytest.approx(
            sum(mus), abs=1e-6 * max(1.0, abs(sum(mus)))
        )

    @pytest.mark.parametrize(
        "name,fixed", [(n, {}) for n in ALL_FAMILIES]
        + [("beta_fixed_alpha", {"alpha": 2.0})],
        ids=ALL_FAMILIES + ["beta_fixed_alpha2"],
    )
    def test_k1_is_log_pdf(self, name, fixed):
        spec = make_family(name, **fixed)
        mu = float(np.mean(MU_RANGES[name]))
        z = spec.sample(mu, 50, as_generator(4))
        assert np.array_equal(spec.sum_log_pdf([mu], z), spec.log_pdf(mu, z))
        with pytest.raises(ValueError, match="at least one mean"):
            spec.sum_log_pdf([], z)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_bernoulli_matches_enumeration(self, k):
        spec = make_family("bernoulli")
        mus = random_mus("bernoulli", k, seed=k)
        want = np.zeros(k + 1)
        for xs in itertools.product([0, 1], repeat=k):
            want[sum(xs)] += np.prod([m if x else 1.0 - m for m, x in zip(mus, xs)])
        got = np.exp(spec.sum_log_pdf(mus, np.arange(k + 1.0)))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("mus", [[10.0 / 3] * 2, [1.25] * 3, [2.0] * 4],
                             ids=["k2", "k3", "k4"])
    def test_geometric_equal_means_match_negative_binomial(self, mus):
        spec = make_family("geometric")
        z = np.arange(3001.0)
        want = stats.nbinom.logpmf(z, len(mus), 1.0 / (1.0 + mus[0]))
        np.testing.assert_allclose(spec.sum_log_pdf(mus, z), want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("mus", [[10.0 / 3, 1.25], [2.0, 0.4]])
    def test_geometric_distinct_means_match_direct_sum(self, mus):
        spec = make_family("geometric")
        z = [0, 1, 2, 7, 50, 333, 1000]
        p, q = (1.0 / (1.0 + m) for m in mus)
        want = [math.log(math.fsum(p * (1 - p) ** x * q * (1 - q) ** (n - x)
                                   for x in range(n + 1))) for n in z]
        got = spec.sum_log_pdf(mus, np.array(z, dtype=float))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("mus", [[0.75, 0.75], [2.0, 2.0], [1.0, 0.5, 2.0]],
                             ids=["k2-0.75", "k2-2", "k3"])
    def test_lattice_entry_does_not_depend_on_the_other_z(self, mus):
        # numpy once summed the entry at max z, and only it, in another order:
        # at means (0.75, 0.75), z = 2 alone and z = 2 beside larger z
        # differed in the last bit
        spec = make_family("geometric")
        z = np.arange(40.0)
        together = spec.sum_log_pdf(mus, z)
        alone = [spec.sum_log_pdf(mus, zi) for zi in z]
        assert np.array_equal(together, np.array(alone))

    def test_poisson_at_zero(self):
        spec = make_family("poisson")
        assert float(np.exp(spec.sum_log_pdf([1.0, 1.0], 0.0))) == pytest.approx(
            math.exp(-2.0)
        )

    def test_symmetric_bernoulli(self):
        spec = make_family("bernoulli")
        assert float(np.exp(spec.sum_log_pdf([0.5, 0.5], 1.0))) == pytest.approx(0.5)

    def test_exponential_quadrature_oracle(self):
        # direct convolution integral for mu = (0.5, 0.25), z = 1:
        # 4 * (e^-2 - e^-4), also re-checked by adaptive quadrature
        spec = make_family("exponential")
        got = float(np.exp(spec.sum_log_pdf([0.5, 0.25], 1.0)))
        assert got == pytest.approx(4 * (math.exp(-2) - math.exp(-4)), rel=1e-12)
        oracle, _ = integrate.quad(
            lambda x: np.exp(spec.log_pdf(0.5, x) + spec.log_pdf(0.25, 1.0 - x)), 0, 1
        )
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_exponential_nearly_tied_rates_stable(self):
        spec = make_family("exponential")
        tied = float(np.exp(spec.sum_log_pdf([0.5, 0.5], 0.7)))
        near = float(np.exp(spec.sum_log_pdf([0.5, 0.5 + 1e-9], 0.7)))
        assert near == pytest.approx(tied, rel=1e-6)
        assert tied == pytest.approx(stats.gamma(2, scale=0.5).pdf(0.7), rel=1e-12)

    def test_gaussian_variance_closed_form_vs_quadrature(self):
        spec = make_family("gaussian_variance")
        got = float(np.exp(spec.sum_log_pdf([0.5, 0.25], 0.9)))
        oracle, _ = integrate.quad(
            lambda x: np.exp(spec.log_pdf(0.5, x) + spec.log_pdf(0.25, 0.9 - x)),
            0,
            0.9,
            points=[0.0, 0.9],
        )
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_beta_general_alpha_convolution(self):
        spec = make_family("beta_fixed_alpha", alpha=2.0)
        mus, z = [-0.8, -0.3], -1.1
        got = float(np.exp(spec.sum_log_pdf(mus, z)))
        oracle, _ = integrate.quad(
            lambda x: np.exp(spec.log_pdf(mus[0], x) + spec.log_pdf(mus[1], z - x)),
            z,
            0,
        )
        assert got == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize(
        "name", ["gaussian_variance", "exponential", "geometric", "bernoulli"]
    )
    def test_matches_monte_carlo_histogram(self, name):
        spec = make_family(name)
        mus = SUM_CASES[name][:2]
        rng = as_generator(9)
        z = spec.sample(mus[0], 10**5, rng) + spec.sample(mus[1], 10**5, rng)
        if spec.support.discrete:
            values = np.arange(0, int(np.quantile(z, 0.999)) + 1)
            probs = np.exp(spec.sum_log_pdf(mus, values.astype(float)))
            counts = np.array([(z == v).sum() for v in values])
        else:
            edges = np.quantile(z, np.linspace(0.0, 0.995, 24))
            counts, edges = np.histogram(z, bins=edges)
            grid, w = sum_nodes(spec, mus, 2, n=4096)
            pdf = np.exp(spec.sum_log_pdf(mus, grid))
            cdf_vals = np.cumsum(w * pdf)
            probs = np.diff(np.interp(edges, grid, cdf_vals))
        keep = probs * 10**5 > 10
        chi2 = np.sum(
            (counts[keep] - 10**5 * probs[keep]) ** 2 / (10**5 * probs[keep])
        )
        dof = int(keep.sum()) - 1
        assert chi2 < stats.chi2(dof).ppf(1.0 - 1e-6)

    @pytest.mark.parametrize(
        "rates",
        [np.linspace(1.0, 1.008, 5), np.linspace(1.0, 1.05, 6),
         np.linspace(1.0, 1.1, 8), np.array([1.0, 2.0, 3.0]),
         np.array([1.0, 1.0 + 1e-7, 1.3, 2.0])],
        ids=["k5-near-tied", "k6-near-tied", "k8-near-tied", "k3-spread",
             "k4-pair-1e-7"],
    )
    def test_exponential_sum_matches_exact_partial_fractions(self, rates):
        # Oracle: the partial-fraction sum in 120-digit arithmetic, which
        # outlasts its cancellation at every node.  A per-z expm of the
        # unscaled phase-type matrix is no oracle in the lower tail: it is
        # accurate in norm only, and at k=8 misses the density by 0.05 nats.
        spec = make_family("exponential")
        mus = list(1.0 / rates)
        z, _ = sum_nodes(spec, mus, len(mus), n=256)
        # far tail too, where the terms underflow past double precision
        z = np.concatenate([np.geomspace(1e-6, 1e-2, 5), z, [600.0, 800.0]])
        with mpmath.workdps(120):
            r = [mpmath.mpf(1.0 / m) for m in mus]
            coef = [mpmath.fprod(rj / (rj - ri) for rj in r if rj != ri) * ri
                    for ri in r]
            want = [float(mpmath.log(mpmath.fsum(c * mpmath.exp(-ri * mpmath.mpf(zz))
                                                 for c, ri in zip(coef, r))))
                    for zz in z]
        np.testing.assert_allclose(spec.sum_log_pdf(mus, z), want, rtol=0, atol=1e-12)

    def test_tied_stream_block_matches_mpmath_convolution(self):
        # the exponential stream block with multiplicities (2, 1, 1): rates
        # (1, 1, 1/0.7, 2); oracle: Gamma(2, 1) convolved in mpmath with the
        # two-rate closed form
        spec = make_family("exponential")
        mus = [1.0, 1.0, 0.7, 0.5]
        z, w = sum_nodes(spec, mus, 4, n=2048)
        mass = np.sum(w * np.exp(spec.sum_log_pdf(mus, z)))
        assert mass == pytest.approx(1.0, abs=1e-12)
        pts = np.concatenate([[1e-4, 0.05], z[::160]])
        with mpmath.workdps(30):
            r1, r2 = 1 / mpmath.mpf(0.7), mpmath.mpf(2)

            def pair(y):
                return r1 * r2 / (r2 - r1) * (mpmath.exp(-r1 * y) - mpmath.exp(-r2 * y))

            want = [float(mpmath.log(mpmath.quad(
                lambda x: x * mpmath.exp(-x) * pair(zz - x), [0, zz])))
                for zz in map(mpmath.mpf, pts)]
        np.testing.assert_allclose(spec.sum_log_pdf(mus, pts), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_gaussian_variance_sum_matches_mpmath_convolution(self, k):
        # oracle: pairs of Gamma(1/2) members in the modified-Bessel closed
        # form, convolved in mpmath; an odd last member's (y - x)^(-1/2) is
        # taken out by x = y (1 - t^2)
        spec = make_family("gaussian_variance")
        mus = [0.5, 0.25, 1.5, 2.0, 0.8][:k]
        z, w = sum_nodes(spec, mus, k, n=2048)
        mass = np.sum(w * np.exp(spec.sum_log_pdf(mus, z)))
        assert mass == pytest.approx(1.0, abs=1e-12)
        pts = [1e-3, 0.5, 4.0, 40.0] if k < 5 else [0.05, 3.0, 40.0]
        with mpmath.workdps(30 if k < 5 else 25):
            r = [1 / (2 * mpmath.mpf(m)) for m in mus]

            def pair(a, b):
                return lambda y: (mpmath.sqrt(a * b) * mpmath.exp(-(a + b) * y / 2)
                                  * mpmath.besseli(0, (a - b) * y / 2))

            def conv(f, g, method):
                return lambda y: mpmath.quad(lambda x: f(x) * g(y - x), [0, y],
                                             method=method)

            def last_half(f, y):
                rl = r[-1]
                return mpmath.quad(lambda t: f(y * (1 - t * t)) * 2
                                   * mpmath.sqrt(rl * y / mpmath.pi)
                                   * mpmath.exp(-rl * y * t * t),
                                   [0, 1], method="gauss-legendre")

            f12 = pair(r[0], r[1])
            if k == 3:
                dens = lambda y: last_half(f12, y)
            else:
                method = "tanh-sinh" if k == 4 else "gauss-legendre"
                f1234 = conv(f12, pair(r[2], r[3]), method)
                dens = f1234 if k == 4 else (lambda y: last_half(f1234, y))
            want = [float(mpmath.log(dens(mpmath.mpf(zz)))) for zz in pts]
        np.testing.assert_allclose(spec.sum_log_pdf(mus, np.array(pts)), want,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape,rates", [(1.0, [1.0, 0.3]), (1.0, [2.0, 0.5]),
                                             (0.5, [1.0, 0.3]), (0.5, [2.0, 0.05])])
    def test_series_matches_k2_closed_forms(self, shape, rates):
        # at k = 2 the sinch (shape 1) and Bessel (shape 1/2) forms are the
        # series' oracles, on the family's own sum grid
        rates = np.array(rates)
        spec = make_family("exponential" if shape == 1.0 else "gaussian_variance")
        z, _ = sum_nodes(spec, shape / rates, 2, n=512)
        gamma_sum = _GammaSum(shape, rates)
        np.testing.assert_allclose(gamma_sum._series(z, 64), gamma_sum(z),
                                   rtol=0, atol=1e-12)

    def test_series_term_cap_refuses(self):
        spec = make_family("gaussian_variance")
        with pytest.raises(ComputationError,
                           match=r"rates \[50\.0, 0\.5, 0\.05\] at z=900\.0"):
            spec.sum_log_pdf([0.01, 1.0, 10.0], np.array([1.0, 900.0]))

    @pytest.mark.parametrize("shape, rates, z", [
        (0.5, [50.0, 0.5, 0.05], 900.0),
        # beta alpha = 2, k = 4 at E[U] about (1 - 1.6e-6, 0.00085, 1 - 1.2e-6, 0.982)
        (1.0, [3.2e-06, 1.0000032, 2350.94, 2351.94, 2.4e-06, 1.0000024,
               0.0366599, 1.0366599], 12655.1),
    ])
    def test_series_refuses_once_the_cap_is_out_of_reach(self, shape, rates, z):
        # the weights once grew to the 16384-term cap before the refusal
        gamma_sum = _GammaSum(shape, rates)
        with pytest.raises(ComputationError,
                           match=rf"more than 16384 terms .* at z={re.escape(repr(z))}$"):
            gamma_sum._series(np.array([1.0, z]))
        assert gamma_sum._log_w.size < 2**14

    def test_series_term_count_is_per_point(self, monkeypatch):
        # each point doubles its own term count: a far point that needs
        # hundreds of terms does not make the near ones sum them too
        from ksample_evalues import expfam

        pending = []  # (terms, points still summing) at each check
        gammainc = expfam.special.gammainc

        def record(m, x):
            pending.append((m, np.size(x)))
            return gammainc(m, x)

        monkeypatch.setattr(expfam.special, "gammainc", record)
        rates = np.array([1.0, 1.0, 1.0 + 1e-7, 2.0])
        near = np.array([1e-4, 0.05, 0.7, 3.0])
        out = _GammaSum(1.0, rates)._series(np.append(near, 600.0), 8)
        # the near points are done by 64 terms; the far one needs 1024
        assert pending == [(8, 5), (16, 4), (32, 3), (64, 1), (128, 1),
                           (256, 1), (512, 1), (1024, 1)]
        monkeypatch.undo()
        np.testing.assert_allclose(out, [mp_erlang_log_pdf(rates, z) for z in
                                         np.append(near, 600.0)], rtol=0, atol=1e-12)

    def test_z_outside_support_errors(self):
        spec = make_family("exponential")
        with pytest.raises(SupportError):
            spec.sum_log_pdf([0.5, 0.25], -1.0)
        spec2 = make_family("bernoulli")
        with pytest.raises(SupportError):
            spec2.sum_log_pdf([0.5, 0.5], 3.0)


def mp_erlang_log_pdf(rates, z, dps=60):
    """Oracle: log-density at z of a sum of exponentials with these rates,
    the sum of the residues of e^(s z) prod_i r_i / (r_i + s), each pole's
    derivative taken by mpmath's numerical differentiation in ``dps``-digit
    arithmetic, which outlasts the cancellation of nearly tied rates."""
    with mpmath.workdps(dps):
        mult = {}
        for r in map(mpmath.mpf, rates):
            mult[r] = mult.get(r, 0) + 1
        zz, total = mpmath.mpf(z), 0
        for rj, mj in mult.items():
            def residue(s, rj=rj, mj=mj):
                return rj**mj * mpmath.exp(s * zz) * mpmath.fprod(
                    (ri / (ri + s)) ** mi for ri, mi in mult.items() if ri != rj)
            total += mpmath.diff(residue, -rj, mj - 1) / mpmath.factorial(mj - 1)
        return float(mpmath.log(total))


class TestGammaSum:
    """One evaluator per rate set: tied rates take the generalized-Erlang
    partial fractions where their rounding bound holds, the series
    elsewhere."""

    PTS = [1e-4, 0.05, 0.7, 3.0, 10.0, 40.0, 600.0]

    @pytest.mark.parametrize("b", [1.5, 7.0])
    @pytest.mark.parametrize("k", [2, 3])
    def test_tied_pairs_match_hypergeometric_closed_form(self, b, k):
        # Gamma(k, b) + Gamma(k, b + 1) has the density b^k (b+1)^k z^(2k-1)
        # e^(-(b+1) z) 1F1(k; 2k; z) / Gamma(2k)
        rates = [b, b + 1.0] * k
        z, _ = sum_nodes(make_family("exponential"), [1.0 / r for r in rates],
                         2 * k, n=64)
        z = np.concatenate([self.PTS, z])
        with mpmath.workdps(40):
            bb = mpmath.mpf(b)
            want = [float(k * mpmath.log(bb * (bb + 1)) + (2 * k - 1) * mpmath.log(zz)
                          - (bb + 1) * zz - mpmath.loggamma(2 * k)
                          + mpmath.log(mpmath.hyp1f1(k, 2 * k, zz)))
                    for zz in map(mpmath.mpf, z)]
        gamma_sum = _GammaSum(1.0, rates)
        assert list(gamma_sum.mult) == [k, k]
        np.testing.assert_allclose(gamma_sum(z), want, rtol=0, atol=1e-12)
        assert np.array_equal(_hypoexponential_log_pdf(1.0, rates, z), gamma_sum(z))

    @pytest.mark.parametrize("rates, n_series", [([1.0, 1.0, 1 / 0.7, 2.0], 3),
                                                 ([1.0, 1.0, 1.0 + 1e-7, 2.0], 7)],
                             ids=["stream-block", "near-tie-1e-7"])
    def test_tied_and_nearly_tied_match_residues(self, rates, n_series):
        # the tied block keeps the fractions from z = 3 on; the 1e-7 pair is
        # two rates, whose fractions cancel by ~1e14, so the rounding bound
        # sends every point to the series
        gamma_sum = _GammaSum(1.0, rates)
        coef, bound = gamma_sum._coef
        assert np.all(bound >= np.abs(coef))
        series = []
        run_series = gamma_sum._series
        gamma_sum._series = lambda z: series.extend(z) or run_series(z)
        got = gamma_sum(np.array(self.PTS))
        assert series == self.PTS[:n_series]
        want = [mp_erlang_log_pdf(rates, zz) for zz in self.PTS]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_cond_stream_builds_its_gamma_sums_once(self, monkeypatch):
        # multiplicities (2, 1, 1): the alternative's rates (1, 1, 1/0.7, 2)
        # are tied, the null's are equal; each is built with the statistic
        built = []
        init = _GammaSum.__init__

        def counting_init(self, shape, rates):
            built.append(list(rates))
            init(self, shape, rates)

        monkeypatch.setattr(_GammaSum, "__init__", counting_init)
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [1.0, 0.7, 0.5])
        st = sequential.StreamState(spec, alt, "cond", 0.05, multiplicities=[2, 1, 1])
        assert len(built) == 2
        flat = sequential.expand_multiplicities(spec, alt, [2, 1, 1])
        rng = np.random.default_rng(3)
        blocks = np.stack([spec.sample(mu, 40, rng) for mu in flat.mu], axis=-1)
        for b in blocks:
            st.ingest_block(b)
        assert st.blocks_completed == 40 and len(built) == 2
        # oracle: the block's pooled-mean ratio less the ratio of the sum
        # densities, the tied one from 60-digit residues, the null Gamma(4)
        lam, a = spec._natural_params(flat.mu)
        lam0, a0 = spec._natural_params([flat.mu0_star])
        rates = [1.0 / mu for mu in flat.mu]
        want = 0.0
        for b in blocks:
            z = float(np.sum(b))
            null = 4 * math.log(-lam0[0]) + 3 * math.log(z) + lam0[0] * z - math.log(6)
            want += (float(np.sum((lam - lam0) * b - (a - a0)))
                     - mp_erlang_log_pdf(rates, z) + null)
        assert st.log_evalue == pytest.approx(want, rel=1e-12)

    def test_rates_within_1e12_are_one_group(self):
        gamma_sum = _GammaSum(1.0, [2.0, 1.0, 1.0 + 1e-13, 1.0])
        assert list(gamma_sum.mult) == [3, 1]
        assert gamma_sum.lam[1] == 2.0
        # exact ties keep their rate exactly
        assert _GammaSum(1.0, [0.1] * 3 + [0.2]).lam[0] == 0.1


def test_families_state_laws_not_entry_points():
    # the checked entry points, the heatmap range, the fixed parameters, the
    # support and the variance with its derivatives are derived on FamilySpec
    # only, a sum density is stated once, as _sum_density, and the family
    # table is keyed by each class's own id
    derived = ("sum_log_pdf", "sample", "natural_from_mean", "default_std_range",
               "fixed_params", "support", "variance", "variance_d1", "variance_d2")
    for family_id, cls in _FAMILIES.items():
        assert not set(derived) & set(vars(cls)), cls
        assert not hasattr(cls, "_sum_log_pdf"), cls
        assert cls.family_id == family_id and "std_range" in vars(cls), cls


@pytest.mark.parametrize("name, fixed, kind, lo, hi, discrete", [
    ("bernoulli", {}, "finite", 0, 1, True),
    ("gaussian_mean", {}, "interval", -math.inf, math.inf, False),
    ("gaussian_mean", {"sigma2": 2.0}, "interval", -math.inf, math.inf, False),
    ("gaussian_variance", {}, "interval", 0.0, math.inf, False),
    ("poisson", {}, "lattice", 0, math.inf, True),
    ("exponential", {}, "interval", 0.0, math.inf, False),
    ("geometric", {}, "lattice", 0, math.inf, True),
    ("beta_fixed_alpha", {"alpha": 1.0}, "interval", -math.inf, 0.0, False),
    ("beta_fixed_alpha", {"alpha": 2.5}, "interval", -math.inf, 0.0, False),
], ids=["bernoulli", "gaussian_mean", "gaussian_mean-sigma2-2", "gaussian_variance",
        "poisson", "exponential", "geometric", "beta-alpha-1", "beta-alpha-2.5"])
def test_support_follows_from_the_mean_space(name, fixed, kind, lo, hi, discrete):
    spec = make_family(name, **fixed)
    assert (spec.support.kind, spec.support.lo, spec.support.hi) == (kind, lo, hi)
    assert spec.discrete is discrete and spec.support.discrete is discrete
    assert spec.support is spec.support  # built once per family


def mp_beta_sum_log_pdf(alpha, shapes, z):
    """Oracle: log-density at z of X_1 + X_2, X_i = log(1 - U_i) with
    1 - U_i ~ Beta(shapes[i], alpha), by 30-digit quadrature over y = -X_1.
    The integrand is folded onto (0, L/2), L = -z, so each factor's singular
    end is an endpoint, and broken at the scales 1/|b_1 - b_2| and 1, where a
    wide mean ratio puts its peak."""
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        b1, b2 = (mpmath.mpf(b) for b in shapes)
        big_l = -mpmath.mpf(z)
        log_norm = mpmath.log(mpmath.beta(b1, a) * mpmath.beta(b2, a))

        def f(y, rest):  # rest = L - y, given exactly
            return mpmath.exp(-b1 * y - b2 * rest - log_norm + (a - 1) * (
                mpmath.log(-mpmath.expm1(-y)) + mpmath.log(-mpmath.expm1(-rest))))

        scales = [s * t for s in (1e-2, 0.1, 1, 10, 100)
                  for t in (1, 1 / abs(b1 - b2))]
        pts = sorted({mpmath.mpf(0), big_l / 2} | {mpmath.mpf(p) for p in scales
                                                  if 0 < p < big_l / 2})
        total = mpmath.quad(lambda u: f(u, big_l - u) + f(big_l - u, u), pts)
        return float(mpmath.log(total))


class TestBetaGeneralAlpha:
    """The sum density and grid of beta observations with alpha != 1: a
    gamma sum for integer alpha, a convolution at k = 2 otherwise."""

    # wide mean ratios: one 160-node rule over (z, 0) missed the peak of
    # width 1/(b_1 - b_2), by 12 nats at alpha = 2.5 and E[U] = (0.99, 0.001)
    @pytest.mark.parametrize("alpha, beta_means", [
        (0.3, (0.5, 0.25)), (0.7, (0.5, 0.25)), (1.3, (0.5, 0.25)),
        (2.0, (0.5, 0.25)), (5.0, (0.5, 0.25)),
        (2.5, (0.99, 0.001)), (2.5, (0.9, 0.01)), (2.0, (0.99, 0.001)),
        (0.3, (0.99, 0.001)), (5.5, (0.001, 0.5)),
    ])
    def test_convolution_matches_mpmath(self, alpha, beta_means):
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        mus = [spec.mean_from_beta_mean(m) for m in beta_means]
        shapes = [spec.natural_from_mean(m) for m in mus]
        pts = [-0.01, -0.5, -3.0, sum(mus), 3.0 * sum(mus)]
        want = [mp_beta_sum_log_pdf(alpha, shapes, zz) for zz in pts]
        got = spec.sum_log_pdf(mus, np.array(pts))
        np.testing.assert_allclose(np.expm1(got - np.array(want)), 0.0, atol=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 2.5])
    def test_underflowing_convolution_refused(self, alpha):
        # at the smallest subnormal z the nodes round to x = 0, where a
        # log-density is infinite: refused rather than returned
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        with pytest.raises(ComputationError, match=rf"alpha={alpha} .* z=-5e-324"):
            spec.sum_log_pdf([-1.0, -0.5], -5e-324)

    def test_k3_matches_nested_mpmath(self):
        # alpha = 2 at k = 3 is a gamma sum; the oracle convolves beta
        # densities and knows nothing of that
        spec = make_family("beta_fixed_alpha", alpha=2.0)
        mus = [spec.mean_from_beta_mean(m) for m in (0.5, 0.25, 0.4)]
        pts = [-0.3, -4.0]
        with mpmath.workdps(15):
            bs = [mpmath.mpf(spec.natural_from_mean(m)) for m in mus]

            def pdf(b, x):  # alpha = 2: b (b + 1) e^(b x) (1 - e^x)
                return b * (b + 1) * mpmath.exp(b * x) * -mpmath.expm1(x)

            def pair(zz):
                return mpmath.quad(lambda x: pdf(bs[1], x) * pdf(bs[2], zz - x),
                                   [zz, 0])

            want = [float(mpmath.log(mpmath.quad(
                lambda x: pdf(bs[0], x) * pair(zz - x), [zz, 0])))
                for zz in map(mpmath.mpf, pts)]
        got = spec.sum_log_pdf(mus, np.array(pts))
        np.testing.assert_allclose(np.expm1(got - np.array(want)), 0.0, atol=1e-9)

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 5.0])
    @pytest.mark.parametrize("k", [3, 4])
    def test_integer_alpha_normalization_and_mean(self, alpha, k):
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        mus = [spec.mean_from_beta_mean(m) for m in (0.5, 0.25, 0.4, 0.6)[:k]]
        z, w = sum_nodes(spec, mus, k, n=3000)
        p = np.exp(spec.sum_log_pdf(mus, z))
        assert np.sum(w * p) == pytest.approx(1.0, abs=1e-9)
        assert np.sum(w * z * p) == pytest.approx(sum(mus), rel=1e-9)

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 5.0])
    def test_integer_alpha_mean_map_round_trip_matches_mpmath(self, alpha):
        # mu(b) = -sum_(j < n) 1/(b + j); the digamma difference it replaces
        # was off by 8.4e-9 relative at alpha = 2, b = 1e7
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        for b in np.geomspace(1e-3, 1e7, 21):
            with mpmath.workdps(50):
                mu = float(-mpmath.fsum(1 / (mpmath.mpf(b) + j)
                                        for j in range(int(alpha))))
            assert spec.mean_from_natural(b) == pytest.approx(mu, rel=2e-15)
            assert spec.natural_from_mean(mu) == pytest.approx(b, rel=2e-15)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_integer_alpha_mean_map_refuses_overflowing_shape(self, alpha):
        # the Newton start 1/(-mu) overflows at a subnormal mean; it gave NaN
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        with pytest.raises(MeanDomainError, match=r"mu=-1e-310 "):
            spec.natural_from_mean(-1e-310)

    @pytest.mark.parametrize("alpha, mu", [
        (0.3, -5e-324), (2.5, -5e-324), (1e-12, -2e-14)])
    def test_mean_map_refuses_unresolved_digamma_difference(self, alpha, mu):
        # at -5e-324 the shape b itself would overflow; at alpha = 1e-12, mu
        # = -2e-14 the root b ~ 50 lies where the mean map takes the digamma
        # difference, whose rounding exceeds |mu| there
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        with pytest.raises(MeanDomainError, match=rf"mu={mu!r} "):
            spec.natural_from_mean(mu)

    @pytest.mark.parametrize("mu", [-1e15, -1e200])
    def test_non_integer_alpha_mean_map_widens_its_bracket(self, mu):
        # the free shape's log lies below the first bracket's end, -30
        spec = make_family("beta_fixed_alpha", alpha=2.5)
        assert math.log(spec.natural_from_mean(mu)) < -30.0
        assert spec.mean_from_natural(spec.natural_from_mean(mu)) == pytest.approx(
            mu, rel=1e-13)

    @pytest.mark.parametrize("alpha, mu", [
        (2.0, -1e-300), (0.3, -1e-6), (2.5, -1e-6), (0.001, -1e-6),
        *[(alpha, mu) for alpha in (0.3, 2.5, 0.001)
          for mu in (-1e-9, -1e-12, -1e-14, -1e-16, -1e-300)]])
    def test_mean_map_near_zero_matches_mpmath(self, alpha, mu):
        # past b = 100 the non-integer mean map is the psi-gap series, which
        # takes no digamma difference; a guard on that difference once
        # refused most of these means
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        # t = b (-mu) is of order alpha at every scale of mu; 400 digits
        # resolve the digamma difference at |mu| = 1e-300
        with mpmath.workdps(400):
            s, a = -mpmath.mpf(mu), mpmath.mpf(alpha)
            t = mpmath.findroot(
                lambda t: (mpmath.digamma(t / s) - mpmath.digamma(a + t / s)) / s + 1, a)
            want = float(t / s)
        assert spec.natural_from_mean(mu) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 2.0, 2.5])
    def test_log_partition_matches_mpmath(self, alpha):
        # gammaln(alpha) + gammaln(b) - gammaln(alpha + b), and betaln too,
        # cancel past b ~ 1e3: 1e-8 absolute at b = 1e7
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        b = np.geomspace(1e-3, 1e7, 31)
        with mpmath.workdps(50):
            want = [float(mpmath.log(mpmath.beta(alpha, bb))) for bb in b]
        np.testing.assert_allclose(spec.log_partition(b), want, rtol=0, atol=5e-14)
        assert [spec.log_partition(bb) for bb in b] == list(spec.log_partition(b))

    @pytest.mark.parametrize("alpha", [2.5, 5.5, 50.0])
    @pytest.mark.parametrize("b", [1e2, 1e4, 1e7, 1e10])
    def test_non_integer_alpha_psi_gap_matches_mpmath(self, alpha, b):
        # the polygamma difference was off by 4e-6 relative at m = 0, alpha =
        # 2.5, b = 1e10, and 1e-9 at b = 1e7; alpha + b is formed in mpmath,
        # where a float sum would round the oracle's argument at small alpha
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        for m in range(4):
            with mpmath.workdps(50):
                bb = mpmath.mpf(b)
                want = mpmath.polygamma(m, bb) - mpmath.polygamma(m, bb + alpha)
                err = float(abs(spec._psi_gap(m, b) / want - 1))
            assert err <= 3e-16, m

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, 5.0])
    def test_integer_alpha_moments_match_mpmath(self, alpha):
        # log B(n, b), and the variance and its two mu-derivatives from
        # 50-digit polygammas at the b that mu maps to; the double-precision
        # polygamma differences cancel at large b (1.6e-9 relative in the
        # variance at alpha = 2, b = 1e7)
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        for b in np.geomspace(1e-3, 1e7, 11):
            mu = spec.mean_from_natural(b)
            b = spec.natural_from_mean(mu)
            with mpmath.workdps(50):
                bb, a = mpmath.mpf(b), mpmath.mpf(alpha)
                p1, p2, p3 = (mpmath.polygamma(m, bb) - mpmath.polygamma(m, a + bb)
                              for m in (1, 2, 3))
                want = [mpmath.log(mpmath.beta(a, bb)), p1, p2 / p1,
                        (p3 * p1 - p2 * p2) / p1**3]
            got = [spec.log_partition(b), spec.variance(mu), spec.variance_d1(mu),
                   spec.variance_d2(mu)]
            np.testing.assert_allclose(got, [float(w) for w in want], rtol=1e-13, atol=0)

    def test_alpha2_variance_at_large_shape(self):
        spec = make_family("beta_fixed_alpha", alpha=2.0)
        with mpmath.workdps(50):
            b = mpmath.mpf(1e7)
            want = float(mpmath.polygamma(1, b) - mpmath.polygamma(1, b + 2))
        got = spec.variance(spec.mean_from_natural(1e7))
        assert got == pytest.approx(want, rel=1e-15, abs=0)

    def test_alpha_one_maps_are_exact(self):
        # alpha = 1 is a negated exponential: b = -1/mu and A(b) = -log b
        spec = make_family("beta_fixed_alpha")
        for mu in (-1e3, -3.0, -1.0, -1.0 / 3.0, -0.15, -1e-5):
            b = spec.natural_from_mean(mu)
            assert same_float(b, -1.0 / mu)
            assert same_float(float(spec.log_partition(b)), float(-np.log(b)))

    # each grid's lower end was k log(u) with u the beta quantile, which
    # underflows at small b: these grids held 1 - 7.2e-2, 1 - 5.2e-3,
    # 1 - 5.6e-3 and 1 - 2.6e-8 of the mass
    @pytest.mark.parametrize("alpha, beta_means", [
        (0.3, (0.99,)), (0.3, (0.99, 0.001)), (2.0, (0.999, 0.5, 1e-4)), (2.0, (0.99,)),
    ])
    def test_underflowing_quantile_grid_holds_the_mass(self, alpha, beta_means):
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        mus = [spec.mean_from_beta_mean(m) for m in beta_means]
        z, w = sum_nodes(spec, mus, len(mus), n=3000)
        mass = np.sum(w * np.exp(spec.sum_log_pdf(mus, z)))
        assert abs(1.0 - mass) <= 1e-12

    def test_non_integer_alpha_refused_past_k2(self):
        spec = make_family("beta_fixed_alpha", alpha=2.5)
        with pytest.raises(ComputationError,
                           match=r"non-integer alpha=2\.5 .* not k = 3"):
            spec.sum_log_pdf([-1.0, -0.5, -0.7], -2.0)

    @pytest.mark.parametrize("alpha, beta_means", [
        (2.5, (0.99, 0.001)), (2.5, (0.9, 0.01)), (2.0, (0.99, 0.001)),
    ])
    def test_wide_mean_ratio_grid_normalization(self, alpha, beta_means):
        # the single-rule convolution put 0.20 of the mass on the first grid
        # and 1 - 8.9e-7 on the second; alpha = 2 is now a gamma sum
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        mus = [spec.mean_from_beta_mean(m) for m in beta_means]
        z, w = sum_nodes(spec, mus, 2, n=3000)
        p = np.exp(spec.sum_log_pdf(mus, z))
        assert np.sum(w * p) == pytest.approx(1.0, abs=1e-9)
        assert np.sum(w * z * p) == pytest.approx(sum(mus), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 2.0, 5.0])
    def test_sum_grid_normalization(self, alpha):
        # the grid's ends are sum_quantile's outer bounds; they must hold the
        # mass, also at alpha < 1 where the near-zero end is far below eps
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        mus = [spec.mean_from_beta_mean(0.5), spec.mean_from_beta_mean(0.25)]
        z, w = sum_nodes(spec, mus, 2, n=2048)
        assert z[-1] < 0.0
        p = np.exp(spec.sum_log_pdf(mus, z))
        assert np.sum(w * p) == pytest.approx(1.0, abs=1e-9)
        assert np.sum(w * z * p) == pytest.approx(sum(mus), rel=1e-9)
        # k = 1, the support grid: its near-zero end was -0.0 at alpha = 0.5
        x, wx = support_nodes(spec, mus)
        for mu in mus:
            assert np.sum(wx * np.exp(spec.log_pdf(mu, x))) == pytest.approx(1.0, abs=1e-9)


class TestIntegerCounts:
    @pytest.mark.parametrize("name", ["poisson", "geometric"])
    def test_non_integer_counts_refused(self, name):
        spec = make_family(name)
        alt = Alternative.from_means(spec, [2.0, 1.0])
        for bad in (100.0005, 1e6 + 0.4):
            with pytest.raises(SupportError):
                spec.check_support(bad)
            with pytest.raises(SupportError):
                spec.sum_log_pdf([2.0, 1.0], bad)
            state = sequential.StreamState(spec, alt, "pseudo", 0.05)
            with pytest.raises(SupportError):
                state.ingest(1, bad)
        for good in (3.0, 100.0, 3.0 + 1e-12):
            spec.check_support(good)
            spec.sum_log_pdf([2.0, 1.0], good)
            sequential.StreamState(spec, alt, "pseudo", 0.05).ingest(1, good)


class TestReduceSufficient:
    def test_pareto(self):
        assert reduce_sufficient("pareto", 1.0, v=1.0) == pytest.approx(0.0)
        assert reduce_sufficient("pareto", 2.0 * math.e, v=2.0) == pytest.approx(1.0)
        with pytest.raises(MeanDomainError):
            reduce_sufficient("pareto", 0.5, v=1.0)

    def test_lognormal(self):
        assert reduce_sufficient("lognormal", math.e**2) == pytest.approx(2.0)
        with pytest.raises(MeanDomainError):
            reduce_sufficient("lognormal", -1.0)

    @pytest.mark.parametrize("v", [None, 0.0])
    def test_pareto_needs_a_positive_scale(self, v):
        with pytest.raises(ValueError, match="needs a positive fixed scale v"):
            reduce_sufficient("pareto", 2.0, v=v)

    def test_unknown_source_refused(self):
        with pytest.raises(ValueError, match="unknown source 'weibull'"):
            reduce_sufficient("Weibull", 2.0)


class TestAlternative:
    def test_reconstruction_identity(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25, 0.9])
        rebuilt = alt.mu0_star + alt.delta * np.asarray(alt.direction)
        assert np.allclose(rebuilt, alt.mu, rtol=0, atol=1e-14)
        assert abs(sum(alt.direction)) < 1e-12
        assert np.linalg.norm(alt.direction) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate(self):
        spec = make_family("poisson")
        alt = Alternative.from_means(spec, [2.0, 2.0])
        assert alt.delta == 0.0
        assert alt.direction is None

    def test_from_effect(self):
        spec = make_family("gaussian_mean")
        alt = Alternative.from_effect(spec, 0.0, 0.2, [1.0, -1.0])
        assert alt.mu0_star == pytest.approx(0.0, abs=1e-15)
        assert alt.delta == pytest.approx(0.2)

    def test_validates_means(self):
        spec = make_family("bernoulli")
        with pytest.raises(MeanDomainError):
            Alternative.from_means(spec, [0.5, 1.5])

    def test_one_group_refused(self):
        with pytest.raises(ValueError, match="needs k >= 2 groups"):
            Alternative.from_means(make_family("poisson"), [2.0])

    @pytest.mark.parametrize("direction, match", [
        ([1.0, 0.5], "must sum to 0"),
        ([0.0, 0.0], "must be nonzero"),
    ])
    def test_from_effect_refuses_bad_direction(self, direction, match):
        with pytest.raises(ValueError, match=match):
            Alternative.from_effect(make_family("gaussian_mean"), 0.0, 0.2, direction)


class TestFamilyRefusals:
    @pytest.mark.parametrize("name, fixed, match", [
        ("gaussian_mean", {"sigma2": 0.0}, "sigma2 must be positive"),
        ("beta_fixed_alpha", {"alpha": 0.0}, "alpha must be positive"),
        # NaN and inf sigma2 were accepted (the pseudo log e-value was NaN);
        # alpha = NaN failed inside brentq and inf raised OverflowError
        ("gaussian_mean", {"sigma2": math.nan}, "^sigma2 must be positive and finite, got nan$"),
        ("gaussian_mean", {"sigma2": math.inf}, "^sigma2 must be positive and finite, got inf$"),
        ("beta_fixed_alpha", {"alpha": math.nan}, "^alpha must be positive and finite, got nan$"),
        ("beta_fixed_alpha", {"alpha": math.inf}, "^alpha must be positive and finite, got inf$"),
        ("gaussian_variance", {"fixed_mean": math.nan}, "^fixed_mean must be finite, got nan$"),
        ("gaussian_variance", {"fixed_mean": -math.inf}, "^fixed_mean must be finite, got -inf$"),
    ])
    def test_fixed_parameter_must_be_positive(self, name, fixed, match):
        with pytest.raises(ValueError, match=match):
            _FAMILIES[name](**fixed)

    def test_beta_natural_parameter_outside_its_space(self):
        with pytest.raises(MeanDomainError, match=r"canonical parameter 0.0 outside"):
            make_family("beta_fixed_alpha").mean_from_natural(0.0)

    def test_beta_observation_mean_outside_unit_interval(self):
        with pytest.raises(MeanDomainError, match=r"E\[U\]=1.0 must lie in \(0, 1\)"):
            make_family("beta_fixed_alpha", alpha=2.0).mean_from_beta_mean(1.0)


class TestConfig:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_roundtrip(self, name):
        spec = make_family(name)
        cfg = spec.to_config(mean_params=[1.0, 2.0])
        back = family_from_config(cfg)
        assert back.family_id == spec.family_id
        assert back.fixed_params() == spec.fixed_params()

    @pytest.mark.parametrize("name, fixed, params, text", [
        ("bernoulli", {}, {}, "Bernoulli()"),
        ("gaussian_mean", {"sigma2": 2.0}, {"sigma2": 2.0}, "GaussianFreeMean(sigma2=2.0)"),
        ("gaussian_mean", {}, {"sigma2": 1.0}, "GaussianFreeMean(sigma2=1.0)"),
        ("gaussian_variance", {}, {"fixed_mean": 0.0},
         "GaussianFreeVariance(fixed_mean=0.0)"),
        ("poisson", {}, {}, "Poisson()"),
        ("exponential", {}, {}, "Exponential()"),
        ("geometric", {}, {}, "Geometric()"),
        ("beta_fixed_alpha", {"alpha": 2.5}, {"alpha": 2.5}, "BetaFixedAlpha(alpha=2.5)"),
    ])
    def test_fixed_params_config_and_repr(self, name, fixed, params, text):
        # read off the constructor's parameters
        spec = make_family(name, **fixed)
        assert spec.fixed_params() == params and repr(spec) == text
        assert spec.to_config([0.5, 0.25]) == {
            "family": name, "fixed_params": params, "mean_params": [0.5, 0.25]}

    @pytest.mark.parametrize("name, fixed, match", [
        (3, {}, "^family must be a string, got 3$"),
        ("gaussian_mean", {"sigma2": "2"}, "^sigma2 must be a number, got '2'$"),
        ("gaussian_mean", {"sigma2": [1]}, r"^sigma2 must be a number, got \[1\]$"),
        ("beta", {"alpha": True}, "^alpha must be a number, got True$"),
    ])
    def test_wrong_types_refused_by_key(self, name, fixed, match):
        with pytest.raises(ValueError, match=match):
            make_family(name, **fixed)

    @pytest.mark.parametrize("edit, match", [
        ({"fixed_params": [1]}, r"^fixed_params must be a JSON object, got \[1\]$"),
        ({"mean_params": 5}, "^mean_params must be a list of numbers, got 5$"),
        ({"mean_params": "0.5"}, "^mean_params must be a list of numbers, got '0.5'$"),
        ({"mean_params": [0.5, [1]]}, r"^mean_params\[1\] must be a number, got \[1\]$"),
        ({"beta_means": "yes"}, "^beta_means must be true or false, got 'yes'$"),
    ])
    def test_config_of_wrong_types_refused_by_key(self, edit, match):
        cfg = {"family": "exponential", "fixed_params": {}, "mean_params": [0.5, 0.25]}
        with pytest.raises(ValueError, match=match):
            problem_from_config({**cfg, **edit})

    @pytest.mark.parametrize("cfg, missing", [
        ({}, "'family' and 'mean_params'"),
        ({"family": "poisson"}, "'mean_params'"),
        ({"mean_params": [1, 2]}, "'family'"),
    ])
    def test_missing_keys_refused_by_name(self, cfg, missing):
        # once a KeyError from the public readers
        with pytest.raises(ValueError, match=f"^config needs 'family' and "
                                             f"'mean_params', missing {missing}$"):
            problem_from_config(cfg)
        if "family" not in cfg:
            with pytest.raises(ValueError, match="^config is missing 'family'$"):
                family_from_config(cfg)

    def test_unknown_key_refused_by_name(self):
        # alpha belongs under fixed_params: the family was built at alpha = 1
        cfg = {"family": "beta_fixed_alpha", "alpha": 2.0, "mean_params": [-1.0, -0.5]}
        for read in (family_from_config, problem_from_config):
            with pytest.raises(ValueError, match="^config has unknown key\\(s\\) 'alpha'$"):
                read(cfg)

    def test_fewer_than_two_means_refused_by_name(self):
        with pytest.raises(ValueError, match=r"^mean_params needs at least two "
                                             r"group means, got \[1.0\]$"):
            problem_from_config({"family": "poisson", "mean_params": [1.0]})

    def test_fixed_params_respected(self):
        spec = make_family("gaussian_mean", sigma2=2.5)
        back = family_from_config(spec.to_config())
        assert back.sigma2 == 2.5

    def test_beta_mean_conversion(self):
        spec = make_family("beta_fixed_alpha")
        mu = spec.mean_from_beta_mean(0.5)
        assert mu == pytest.approx(-1.0)
        # and back: E[U] = alpha / (alpha + b) at the free shape b = lambda(mu)
        assert spec.alpha / (spec.alpha + spec.natural_from_mean(mu)) == pytest.approx(0.5)


# Means for the quantile parity check.  The geometric means above 10 have
# success probability p < 0.09, where scipy's public nbdtrik + nbdtr returns
# fewer support points at q = 1 - 1e-15 than scipy.stats.nbinom.
PARITY_FAMILIES = [
    ("bernoulli", {}, [0.05, 0.3, 0.5, 0.9]),
    ("gaussian_mean", {"sigma2": 0.7}, [-3.0, 0.0, 0.4, 2.5]),
    ("gaussian_variance", {}, [0.01, 0.5, 1.0, 5.0]),
    ("poisson", {}, [0.01, 0.2, 5.0, 30.0]),
    ("exponential", {}, [0.01, 0.25, 1.0, 4.0]),
    ("geometric", {}, [0.2, 10.0 / 3, 11.0, 20.0, 50.0, 100.0]),
    ("beta_fixed_alpha", {"alpha": 1.0}, [-3.0, -1.0, -0.15]),
    ("beta_fixed_alpha", {"alpha": 2.0}, [-3.0, -0.5, -0.15]),
]
PARITY_QS = [1e-15, 1e-9, 0.3, 0.5, 1 - 1e-9, 1 - 1e-15]
# a mean outside each family's mean space, which scipy.stats answers with NaN
OUTSIDE_MEANS = [("bernoulli", {}, 1.5), ("gaussian_mean", {}, math.nan),
                 ("gaussian_variance", {}, -1.0), ("poisson", {}, -1.0),
                 ("exponential", {}, -1.0), ("geometric", {}, -0.5),
                 ("beta_fixed_alpha", {"alpha": 2.0}, 0.5)]


def stats_sum_quantile(spec, mu, k, q):
    """Oracle: the frozen scipy.stats distribution of the k-fold sum."""
    fid = spec.family_id
    if fid == "bernoulli":
        return stats.binom(k, mu).ppf(q)
    if fid == "gaussian_mean":
        return stats.norm(k * mu, math.sqrt(k * spec.sigma2)).ppf(q)
    if fid == "gaussian_variance":
        return stats.gamma(0.5 * k, scale=2.0 * mu).ppf(q)
    if fid == "poisson":
        return stats.poisson(k * mu).ppf(q)
    if fid == "exponential":
        return stats.gamma(k, scale=mu).ppf(q)
    if fid == "geometric":
        return stats.nbinom(k, 1.0 / (1.0 + mu)).ppf(q)
    if spec.alpha == 1.0:
        # negated gamma sum
        return -float(stats.gamma(k, scale=1.0 / (-1.0 / mu)).ppf(1.0 - q))
    # outer bounds from one observation X = log(1 - U), U ~ Beta(alpha, beta):
    # k q1(q / k) in the lower tail, q1(1 - (1 - q)^(1/k)) at the near-zero end,
    # through V = 1 - U ~ Beta(beta, alpha) at V's level rounded up where U's
    # quantile passes 1/2
    b = spec.natural_from_mean(mu)
    if q < 0.5:
        return k * np.log(stats.beta(b, spec.alpha).ppf(q / k))
    p = (1.0 - q) ** (1.0 / k)
    u = stats.beta(spec.alpha, b).ppf(p)
    if u <= 0.5:
        return np.log1p(-u)
    return np.log(stats.beta(b, spec.alpha).ppf(np.nextafter(1.0 - p, 1.0)))


def same_float(a, b):
    return type(a) is float and a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestQuantileParity:
    @pytest.mark.parametrize(
        "name,fixed,mus", PARITY_FAMILIES,
        ids=[f"{n}{fx.get('alpha', '')}" for n, fx, _ in PARITY_FAMILIES],
    )
    def test_bitwise_equal_to_scipy_stats(self, name, fixed, mus):
        spec = make_family(name, **fixed)
        bad = []
        for mu in mus:
            for q in PARITY_QS:
                for k in range(1, 9):
                    got = spec.sum_quantile(mu, k, q)
                    want = float(stats_sum_quantile(spec, mu, k, q))
                    if not same_float(got, want):
                        bad.append(("sum_quantile", mu, k, q, got, want))
        assert not bad


def beta_upper_one_observation(alpha, b, p):
    """Oracle: x with P(X > x) = p for X = log V, V ~ Beta(b, alpha), by
    bisection in log v on mpmath's upper incomplete beta; a lower end within
    1e-20 relative of the root."""
    with mpmath.workdps(40):
        a, bb, pp = mpmath.mpf(alpha), mpmath.mpf(b), mpmath.mpf(p)
        lo, hi = mpmath.mpf(-1e12), mpmath.mpf(0)
        while hi - lo > 1e-20 * abs(hi):
            mid = (lo + hi) / 2
            if mpmath.betainc(bb, a, mpmath.exp(mid), 1, regularized=True) > pp:
                lo = mid
            else:
                hi = mid
        return float(lo)


class TestBetaNearZeroEnd:
    @pytest.mark.parametrize("alpha, b, k, q", [
        # once -36.7368 through log1p(-u), below the one-observation -36.56155
        (2.0, 5.000012500064007e-06, 4, 1 - 1e-15),
        (2.0, 5e-6, 2, 1 - 1e-9), (0.5, 1e-4, 4, 1 - 1e-9), (0.5, 1e-4, 4, 1 - 1e-15),
        (3.7, 1e-5, 2, 1 - 1e-9), (3.7, 1e-5, 4, 1 - 1e-15),
        (2.0, 1e-3, 1, 0.9), (1.5, 0.05, 1, 0.9), (2.0, 1e-9, 1, 1 - 1e-9),
    ])
    def test_end_bounds_one_observation_quantile(self, alpha, b, k, q):
        # where U's quantile lies within a few eps of 1, the end goes through
        # V = 1 - U; it bounds the one-observation quantile (exact at k = 1)
        # from above, also where V's level 1 - p rounds
        spec = make_family("beta_fixed_alpha", alpha=alpha)
        got = spec.sum_quantile(spec.mean_from_natural(b), k, q)
        want = beta_upper_one_observation(alpha, b, (1.0 - q) ** (1.0 / k))
        assert want <= got <= want + 1e-7 * abs(want)


class TestQuantileRefusals:
    """``sum_quantile`` refuses what scipy.stats answers with NaN or a
    support bound, and what no k-sum has, naming the value."""

    @pytest.mark.parametrize("name, fixed, mu", OUTSIDE_MEANS,
                             ids=[n for n, _, _ in OUTSIDE_MEANS])
    def test_mean_outside_the_mean_space(self, name, fixed, mu):
        with pytest.raises(MeanDomainError, match=f"^mu={mu!r} outside mean space"):
            make_family(name, **fixed).sum_quantile(mu, 2, 0.5)

    @pytest.mark.parametrize("k, q, message", [
        (0, 0.5, "k must be at least 1, got 0"), (-1, 0.5, "k must be at least 1, got -1"),
        (2.5, 0.5, "k must be an integer, got 2.5"),
        *[(2, q, f"q must lie in (0, 1), got {q!r}") for q in (0.0, 1.0, -0.1, 1.5, math.nan)]])
    @pytest.mark.parametrize("name, fixed", [(n, fx) for n, fx, _ in PARITY_FAMILIES],
                             ids=[f"{n}{fx.get('alpha', '')}" for n, fx, _ in PARITY_FAMILIES])
    def test_k_and_level_refused_by_name(self, name, fixed, k, q, message):
        # k = 2.5 once gave 2.1757 (exponential), beta k = 0 raised
        # ZeroDivisionError, and q outside (0, 1) gave NaN
        spec = make_family(name, **fixed)
        mu = spec.mean_from_std(spec.default_std_range()[0])
        with pytest.raises(ValueError) as exc:
            spec.sum_quantile(mu, k, q)
        assert str(exc.value) == message

    @pytest.mark.parametrize("build", [
        lambda spec, alt: sum_nodes(spec, [0.5, -1.0], 2),
        lambda spec, alt: evariables.null_expectation_profile(spec, alt, "cond", [-1.0]),
    ], ids=["sum_nodes", "null_expectation_profile"])
    def test_grid_refused_before_it_is_built(self, build):
        # an exponential mean of -1 once built an all-NaN grid
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        with pytest.raises(MeanDomainError, match=r"^mu=-1.0 outside"):
            build(spec, alt)


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs ~0.8 s to import; quantiles come from scipy.special
    code = ("import sys, ksample_evalues, ksample_evalues.cli; "
            "sys.exit('scipy.stats' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == 0


class TestSpawnKeys:
    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 5, 3**150])
    def test_keys_are_seed_sequence_keys(self, seed):
        # one- to eight-word seeds: padded to the pool, and hashed in past it
        keys = spawn_keys(seed, 10**4 + 1)
        assert keys.dtype == np.uint64 and keys.shape == (10**4 + 1, 2)
        want = np.array([np.random.SeedSequence(seed, spawn_key=(t,)).generate_state(
            2, np.uint64) for t in range(10**4 + 1)])
        assert np.array_equal(keys, want)

    def test_philox_at_a_key_draws_the_spawned_stream(self):
        keys = spawn_keys(7, 3)
        for t in range(3):
            rng = np.random.Generator(np.random.Philox(key=keys[t]))
            want = np.random.SeedSequence(7, spawn_key=(t,))
            assert np.array_equal(
                rng.random(9), np.random.Generator(np.random.Philox(want)).random(9))

    @pytest.mark.parametrize("seed, count, match", [
        (-1, 3, "^seed must be at least 0, got -1$"),
        (1.5, 3, "^seed must be an integer, got 1.5$"),
        (0, 0, "^count must be at least 1, got 0$"),
        (0, 2**32 + 1, r"^count must be at most 2\*\*32, got 4294967297$"),
    ])
    def test_refusals_name_the_argument(self, seed, count, match):
        with pytest.raises(ValueError, match=match):
            spawn_keys(seed, count)
