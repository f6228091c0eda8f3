import itertools
import json
import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from ksample_evalues import Alternative, MeanDomainError, as_generator, make_family
from ksample_evalues import evariables as ev
from ksample_evalues import ripr


@pytest.fixture(scope="module")
def bern():
    spec = make_family("bernoulli")
    return spec, Alternative.from_means(spec, [0.5, 0.25])


class TestDegenerateAlternative:
    @pytest.mark.parametrize("kind", ["pseudo", "gro_iid", "cond"])
    def test_all_statistics_exactly_one(self, kind):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.7, 0.7])
        res = ev.log_evalue(spec, alt, [0.3, 1.9], kind)
        assert res.log_evalue == 0.0
        assert res.evalue == 1.0

    def test_gro_m_degenerate(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.7, 0.7])
        mix = ripr.li_approximate(spec, alt)[0]
        assert float(ev.log_s_gro_m(spec, alt, [0.3, 1.9], mix)) == 0.0


class TestPseudo:
    def test_poisson_high_precision_oracle(self):
        # p_1(0) p_2(3) / (p_1.5(0) p_1.5(3)) = 8 / 3.375 = 64/27 exactly
        spec = make_family("poisson")
        alt = Alternative.from_means(spec, [1.0, 2.0])
        val = float(np.exp(ev.log_s_pseudo(spec, alt, [0, 3])))
        assert val == pytest.approx(64.0 / 27.0, rel=1e-14)

    def test_equal_means_unity(self, bern):
        spec, _ = bern
        alt = Alternative.from_means(spec, [0.4, 0.4])
        for blk in itertools.product([0, 1], repeat=2):
            assert float(ev.log_s_pseudo(spec, alt, blk)) == 0.0


class TestBernoulliIdentities:
    def test_pseudo_equals_gro_iid_exhaustive(self, bern):
        spec, alt = bern
        for blk in itertools.product([0, 1], repeat=2):
            a = float(ev.log_s_pseudo(spec, alt, blk))
            b = float(ev.log_s_gro_iid(spec, alt, blk))
            assert a == pytest.approx(b, abs=1e-12)

    def test_pseudo_equals_gro_iid_k3(self):
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.6, 0.3, 0.45])
        for blk in itertools.product([0, 1], repeat=3):
            a = float(ev.log_s_pseudo(spec, alt, blk))
            b = float(ev.log_s_gro_iid(spec, alt, blk))
            assert a == pytest.approx(b, abs=1e-12)

    def test_cond_ignores_equal_outcomes(self, bern):
        spec, alt = bern
        assert float(ev.log_s_cond(spec, alt, [1, 1])) == pytest.approx(0.0, abs=1e-12)
        assert float(ev.log_s_cond(spec, alt, [0, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_cond_two_outcome_enumeration(self, bern):
        spec, alt = bern
        m1, m2 = alt.mu
        expect = 2 * m1 * (1 - m2) / (m1 * (1 - m2) + (1 - m1) * m2)
        got = float(np.exp(ev.log_s_cond(spec, alt, [1, 0])))
        assert got == pytest.approx(expect, rel=1e-12)
        expect01 = 2 * (1 - m1) * m2 / (m1 * (1 - m2) + (1 - m1) * m2)
        assert float(np.exp(ev.log_s_cond(spec, alt, [0, 1]))) == pytest.approx(
            expect01, rel=1e-12
        )


class TestCondIdentities:
    @pytest.mark.parametrize(
        "name,mus",
        [("gaussian_mean", [0.3, -0.5]), ("poisson", [1.0, 2.5])],
    )
    def test_pseudo_equals_cond_on_random_blocks(self, name, mus):
        spec = make_family(name)
        alt = Alternative.from_means(spec, mus)
        rng = as_generator(7)
        x = np.stack([spec.sample(m, 1000, rng) for m in alt.mu], axis=-1)
        d = np.abs(ev.log_s_pseudo(spec, alt, x) - ev.log_s_cond(spec, alt, x))
        assert d.max() < 1e-10

    def test_geometric_outlier_blocks_stay_finite(self):
        # both blocks once gave -inf and NaN: their sums underflowed in the
        # lattice convolution although every density is representable
        spec = make_family("geometric")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        blocks = np.array([[300.0, 300.0], [700.0, 700.0]])
        got = ev.log_s_cond(spec, alt, blocks)

        def log_sum_pmf(mus, z):
            p, q = (1.0 / (1.0 + m) for m in mus)
            x = np.arange(z + 1.0)
            return special.logsumexp(np.log(p * q) + x * np.log1p(-p)
                                     + (z - x) * np.log1p(-q))

        mu0 = alt.mu0_star
        for (x1, x2), value in zip(blocks, got):
            z = x1 + x2
            log_alt = (stats.nbinom.logpmf(x1, 1, 1 / (1 + alt.mu[0]))
                       + stats.nbinom.logpmf(x2, 1, 1 / (1 + alt.mu[1])))
            log_null = stats.nbinom.logpmf([x1, x2], 1, 1 / (1 + mu0)).sum()
            want = (log_alt - log_sum_pmf(alt.mu, z)
                    - log_null + stats.nbinom.logpmf(z, 2, 1 / (1 + mu0)))
            assert value == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_baseline_invariance(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        blk = [0.7, 0.4]
        vals = [
            float(ev.log_s_cond(spec, alt, blk, mu0=m0))
            for m0 in np.linspace(0.15, 0.9, 10)
        ]
        assert max(vals) - min(vals) < 1e-10

    def test_natural_difference_invariance(self):
        # alternatives sharing all lambda(mu_j) - lambda(mu_k) differences give
        # the same conditional statistic
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        shift = 0.35
        shifted = [
            spec.mean_from_natural(spec.natural_from_mean(m) + shift) for m in alt.mu
        ]
        alt2 = Alternative.from_means(spec, shifted)
        for blk in ([0.7, 0.4], [0.05, 1.3], [2.0, 0.6]):
            assert float(ev.log_s_cond(spec, alt, blk)) == pytest.approx(
                float(ev.log_s_cond(spec, alt2, blk)), abs=1e-10
            )


class TestGroM:
    def test_mixture_of_another_type_refused(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        with pytest.raises(TypeError, match="mixture must be a ripr.MixtureNull"):
            ev.log_s_gro_m(spec, alt, [0.7, 0.4], {"components": []})

    def test_single_point_reduces_to_pseudo(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        mix = ripr.point_mixture(spec, alt, alt.mu0_star)
        for blk in ([0.7, 0.4], [0.1, 1.5]):
            assert float(ev.log_s_gro_m(spec, alt, blk, mix)) == pytest.approx(
                float(ev.log_s_pseudo(spec, alt, blk)), abs=1e-12
            )

    def test_uncertified_mixture_refused(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        raw = ripr.MixtureNull(((0.5, 0.3), (0.5, 0.45)))
        with pytest.raises(ripr.CertificationError):
            ev.log_s_gro_m(spec, alt, [0.7, 0.4], raw)
        with pytest.raises(ValueError, match="projection"):
            ev.log_evalue(spec, alt, [0.7, 0.4], "gro_m")

    def test_mixture_for_another_problem_refused(self):
        # a mixture certified for exponential (0.5, 0.25), used on poisson
        # (5, 0.1), once gave log e = 3.42 with the foreign certificate attached
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        mix = ripr.point_mixture(spec, alt, alt.mu0_star)
        pois = make_family("poisson")
        palt = Alternative.from_means(pois, [5.0, 0.1])
        for call in (
            lambda: ev.log_s_gro_m(pois, palt, [3, 0], mix),
            lambda: ev.log_evalue(pois, palt, [3, 0], "gro_m", mixture=mix),
        ):
            with pytest.raises(ripr.CertificationError) as exc:
                call()
            msg = str(exc.value)
            assert "exponential" in msg and "[0.5, 0.25]" in msg
            assert "poisson" in msg and "[5.0, 0.1]" in msg
        other = Alternative.from_means(spec, [0.5, 0.3])
        with pytest.raises(ripr.CertificationError, match=r"\[0\.5, 0\.3\]"):
            ev.log_s_gro_m(spec, other, [0.7, 0.4], mix)

    def test_bernoulli_mixture_reproduces_gro_iid(self):
        # the equal-mixture statistic is growth-optimal for Bernoulli, so a
        # converged projection reproduces it within its certificate slack
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        mix, _ = ripr.li_approximate(spec, alt)
        tol = mix.certificate.sup_expectation - 1.0 + 1e-6
        for blk in itertools.product([0, 1], repeat=2):
            a = float(ev.log_s_gro_m(spec, alt, blk, mix))
            b = float(ev.log_s_gro_iid(spec, alt, blk))
            assert a == pytest.approx(b, abs=max(10 * tol, 1e-8))

    @pytest.mark.parametrize("bound", [True, False], ids=["bound", "by-hand"])
    def test_certificate_attached_to_result(self, bound):
        # a mixture built by hand carries its problem like a searched one;
        # without it, it was once taken on trust and is now refused
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        mix = ripr.point_mixture(spec, alt, alt.mu0_star)
        want = ev.log_evalue(spec, alt, [0.7, 0.4], "gro_m", mixture=mix).log_evalue
        if not bound:
            with pytest.raises(ripr.CertificationError, match="has no config"):
                ripr.MixtureNull(mix.components, mix.certificate)
            mix = ripr.MixtureNull(mix.components, mix.certificate,
                                   {"family": "exponential", "mean_params": [0.5, 0.25]})
        res = ev.log_evalue(spec, alt, [0.7, 0.4], "gro_m", mixture=mix)
        assert res.log_evalue == want
        assert res.certificate == mix.certificate.to_dict()
        assert json.loads(res.to_json())["certificate"] == res.certificate


class TestStatisticRecord:
    @pytest.mark.parametrize("family, means, blocks", [
        ("exponential", [0.5, 0.25], [[0.7, 0.4], [0.1, 1.5], [2.5, 0.01]]),
        ("poisson", [5.0, 0.1], [[3, 0], [1, 2], [3, 0]]),
    ], ids=["continuous", "lattice"])
    @pytest.mark.parametrize("kind", list(ev.EValueKind), ids=lambda k: k.value)
    def test_record_carries_kind_alternative_and_admitted_mixture(self, family, means,
                                                                  blocks, kind):
        spec = make_family(family)
        alt = Alternative.from_means(spec, means)
        mix = ripr.point_mixture(spec, alt, alt.mu0_star)
        stat = ev._statistic(spec, alt, kind.value, mix)
        assert isinstance(stat, ev.Statistic)
        assert stat.kind is kind and stat.alt is alt
        # only gro_m admits the mixture it is given; every other kind drops it
        admitted = mix if kind is ev.EValueKind.GRO_M else None
        assert stat.mixture is admitted
        assert stat.certificate is (None if admitted is None else mix.certificate)
        x = np.asarray(blocks, dtype=float)
        for b in (x, x[0], x[0]):  # many blocks, one, and one seen before
            assert np.asarray(stat(b)).tobytes() == np.asarray(stat.score(b)).tobytes()

    def test_kind_and_gate_checked_where_the_record_is_built(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.5])  # zero effect
        with pytest.raises(ValueError, match="'bogus' is not a valid EValueKind"):
            ev._statistic(spec, alt, "bogus")
        with pytest.raises(ValueError, match="needs a certified mixture"):
            ev._statistic(spec, alt, "gro_m")


class TestFCriterion:
    def test_exponential_value(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        # sum mu_i^2 - k mu0*^2 = 0.25 + 0.0625 - 2 * 0.375^2
        assert ev.f_criterion(spec, alt, alt.mu0_star) == pytest.approx(0.03125)
        assert ev.pseudo_verdict(spec, alt).verdict is ev.Verdict.NOT_E_VARIABLE

    def test_bernoulli_value(self, bern):
        spec, alt = bern
        assert ev.f_criterion(spec, alt, alt.mu0_star) == pytest.approx(-0.03125)
        assert ev.pseudo_verdict(spec, alt).verdict is ev.Verdict.LOCALLY_E_VARIABLE

    def test_gaussian_mean_indeterminate(self):
        spec = make_family("gaussian_mean")
        alt = Alternative.from_means(spec, [0.8, -0.1])
        v = ev.pseudo_verdict(spec, alt)
        assert v.verdict is ev.Verdict.INDETERMINATE
        assert abs(v.f_value) < 1e-12

    def test_domain_error_on_shift(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [2.0, 0.2])
        # shifting by mu0 - mu0* pushes the small mean negative
        with pytest.raises(MeanDomainError):
            ev.f_criterion(spec, alt, 0.05)

    def test_closed_form_null_expectation_sign(self):
        # the closed-form E under the null of the pooled-mean ratio is 1 at
        # mu0* and curves according to the sign of f
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        e0 = ev.expectation_pseudo(spec, alt, alt.mu0_star)
        assert e0 == pytest.approx(1.0, abs=1e-12)
        h = 1e-3
        curv = (
            ev.expectation_pseudo(spec, alt, alt.mu0_star + h)
            - 2 * e0
            + ev.expectation_pseudo(spec, alt, alt.mu0_star - h)
        ) / h**2
        assert curv > 0  # matches f(mu0*) > 0: not an e-variable
        spec_b = make_family("bernoulli")
        alt_b = Alternative.from_means(spec_b, [0.5, 0.25])
        curv_b = (
            ev.expectation_pseudo(spec_b, alt_b, alt_b.mu0_star + h)
            - 2 * ev.expectation_pseudo(spec_b, alt_b, alt_b.mu0_star)
            + ev.expectation_pseudo(spec_b, alt_b, alt_b.mu0_star - h)
        ) / h**2
        assert curv_b < 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family, means, mu0s", [
        ("exponential", [0.5, 0.25], [1.5, 2.0, 50.0]),
        ("gaussian_variance", [0.5, 0.25], [1.5, 1.7, 50.0]),
        ("geometric", [10.0 / 3, 1.25], [50.0]),
        ("beta_fixed_alpha", [-0.5, -0.25], [-1.5, -10.0]),
    ])
    def test_closed_form_null_expectation_inf_past_the_natural_space(
            self, family, means, mu0s):
        # lambda_1 + lambda0 - lambda0* reaches the boundary of the natural
        # space: the expectation once came out NaN, with a RuntimeWarning
        spec = make_family(family)
        alt = Alternative.from_means(spec, means)
        for mu0 in mu0s:
            assert ev.expectation_pseudo(spec, alt, mu0) == math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_closed_form_null_expectation_finite_inside(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        assert ev.expectation_pseudo(spec, alt, 1.4) == 5.88662790697671


class TestEVariableProperty:
    @pytest.mark.parametrize("kind", ["gro_iid", "cond"])
    def test_exponential_grid(self, kind):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        vals = ev.null_expectation_profile(
            spec, alt, kind, np.linspace(0.125, 1.0, 40)
        )
        assert vals.max() <= 1.0 + 1e-6

    def test_gaussian_mean_quadrature_oracle(self):
        # tensor-quadrature evaluation of max over mu0 of E[S_gro_iid]
        spec = make_family("gaussian_mean")
        alt = Alternative.from_means(spec, [0.0, 1.0])
        vals = ev.null_expectation_profile(
            spec, alt, "gro_iid", np.linspace(-1.0, 2.0, 30)
        )
        assert vals.max() <= 1.0 + 1e-6

    def test_cond_is_one_where_a_coordinate_reaches_the_far_end_of_the_sum(self):
        # under the null at 757.95 the integrand puts the second coordinate
        # near the far end of the 2-sum; a one-observation grid read 2.1e-43
        spec = make_family("poisson")
        alt = Alternative.from_means(spec, [16.131704, 757.949398])
        vals = ev.null_expectation_profile(
            spec, alt, "cond", [757.949398, alt.mu0_star, 16.131704])
        np.testing.assert_allclose(vals, 1.0, rtol=0, atol=1e-9)

    def test_k3_monte_carlo(self):
        spec = make_family("poisson")
        alt = Alternative.from_means(spec, [1.0, 2.0, 1.5])
        for kind in ("gro_iid", "cond"):
            for mu0 in (1.0, 1.5, 2.2):
                mean, se = ev.null_expectation_mc(
                    spec, alt, kind, mu0, n=200_000, seed=3
                )
                assert mean <= 1.0 + 4 * se + 1e-3

    def test_tensor_quadrature_only_at_k2(self):
        spec = make_family("poisson")
        alt = Alternative.from_means(spec, [1.0, 2.0, 1.5])
        with pytest.raises(ValueError, match="restricted to k = 2"):
            ev.null_expectation_profile(spec, alt, "cond", [1.5])

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_monte_carlo_size_below_two_refused(self, n):
        spec = make_family("poisson")
        alt = Alternative.from_means(spec, [1.0, 2.0])
        with pytest.raises(ValueError, match=f"^n must be at least 2, got {n}$"):
            ev.null_expectation_mc(spec, alt, "cond", 1.5, n=n)


class TestResultSerialization:
    def test_json_fields(self):
        spec = make_family("poisson")
        alt = Alternative.from_means(spec, [1.0, 2.0])
        res = ev.log_evalue(spec, alt, [0, 3], "pseudo")
        payload = json.loads(res.to_json())
        assert payload["kind"] == "pseudo"
        assert payload["log_evalue"] == pytest.approx(math.log(64.0 / 27.0))

    def test_overflowing_evalue_is_inf_without_warning(self):
        # log e = 2071.1 is past a double's ~709.78
        spec = make_family("poisson")
        alt = Alternative.from_means(spec, [3000.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ev.log_evalue(spec, alt, [3000, 1], "pseudo")
            assert res.evalue == math.inf
        assert res.log_evalue == pytest.approx(2071.1, abs=0.05)

    def test_vectorized_blocks(self):
        spec = make_family("poisson")
        alt = Alternative.from_means(spec, [1.0, 2.0])
        blocks = np.array([[0, 3], [1, 1], [2, 0]])
        out = ev.log_s_cond(spec, alt, blocks)
        assert out.shape == (3,)
        singles = [float(ev.log_s_cond(spec, alt, b)) for b in blocks]
        assert np.allclose(out, singles, atol=0, rtol=1e-15)

    def test_block_length_mismatch(self):
        spec = make_family("poisson")
        alt = Alternative.from_means(spec, [1.0, 2.0])
        with pytest.raises(ValueError, match="k=2"):
            ev.log_s_pseudo(spec, alt, [1, 2, 3])


def _trailing_axis_statistic(spec, alt, kind):
    """pseudo, gro_iid and cond as numpy sums over the trailing axis of a
    block, the formula the statistic had before it added coordinates as the
    rows of x.T: the oracle of its bits."""
    lam, a = spec._natural_params(alt.mu)
    if kind == "gro_iid":
        offsets = a + np.log(alt.k)

        def log_sum_of_tilts(x):
            logs = lam * x[..., None] - offsets
            mx = logs.max(axis=-1)
            return mx + np.log(np.sum(np.exp(logs - mx[..., None]), axis=-1))
        return lambda x: (np.sum(lam * x - a, axis=-1)
                          - np.sum(log_sum_of_tilts(x), axis=-1))
    lam0, a0 = spec._natural_params([alt.mu0_star])
    dlam, da = lam - lam0, a - a0
    if kind == "pseudo":
        return lambda x: np.sum(dlam * x - da, axis=-1)
    log_z_ratio = ev._log_sum_ratio(spec, alt, alt.mu0_star)
    return lambda x: np.sum(dlam * x - da, axis=-1) - log_z_ratio(np.sum(x, axis=-1))


ORACLE_FAMILIES = [
    ("bernoulli", {}, (0.6, 0.4, 0.3, 0.5)),
    ("gaussian_mean", {}, (0.3, -0.3, 0.1, 0.0)),
    ("gaussian_variance", {}, (1.0, 0.6, 0.8, 1.0)),
    ("poisson", {}, (2.0, 1.0, 1.5, 2.0)),
    ("exponential", {}, (1.0, 0.7, 0.5, 0.9)),
    ("geometric", {}, (1.0, 0.5, 2.0, 1.0)),
    ("beta_fixed_alpha", {"alpha": 2.0}, (-1.0, -0.5, -0.7, -0.6)),
]


@pytest.mark.parametrize("kind", ["pseudo", "gro_iid", "cond"])
@pytest.mark.parametrize("multiplicities", [(1, 1), (1, 1, 1), (1, 1, 1, 1),
                                            (4, 4), (5, 4), (3, 3, 3)],
                         ids=lambda m: "x".join(map(str, m)))
@pytest.mark.parametrize("family, fixed, means", ORACLE_FAMILIES,
                         ids=[f for f, _, _ in ORACLE_FAMILIES])
def test_statistic_bitwise_equal_to_trailing_axis_sums(family, fixed, means,
                                                       multiplicities, kind):
    # k' = sum(m) coordinates, below 8 and from 8 on, where np.sum pairs terms
    spec = make_family(family, **fixed)
    alt = Alternative.from_means(
        spec, np.repeat(means[:len(multiplicities)], multiplicities))
    rng = as_generator(alt.k)
    blocks = np.stack([spec.sample(mu, 5 * 7, rng) for mu in alt.mu],
                      axis=-1).reshape(5, 7, alt.k)  # (T, B, k')
    got, want = ev._statistic(spec, alt, kind), _trailing_axis_statistic(spec, alt, kind)
    assert np.array_equal(got(blocks), want(blocks))
    for block in blocks[0]:
        assert np.array_equal(got(block), want(block))
