import math

import numpy as np
import pytest

from ksample_evalues import Alternative, default_direction, make_family
from ksample_evalues import evariables as ev
from ksample_evalues import growth as gr
from ksample_evalues import ripr
from ksample_evalues.expfam import spawn_generator


class TestGrowthRates:
    @pytest.mark.parametrize("kind", ["pseudo", "gro_iid", "cond"])
    def test_degenerate_zero(self, kind):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.4, 0.4])
        assert gr.growth_rate(spec, alt, kind).rate == 0.0

    def test_gaussian_closed_form_kl(self):
        # pooled-mean growth equals the Gaussian KL, delta^2 / (2 sigma^2) summed
        spec = make_family("gaussian_mean", sigma2=1.5)
        alt = Alternative.from_means(spec, [0.4, -0.6])
        expect = sum((m - alt.mu0_star) ** 2 for m in alt.mu) / (2 * 1.5)
        assert gr.growth_pseudo(spec, alt) == pytest.approx(expect, abs=1e-12)
        assert gr.growth_rate(spec, alt, "cond").rate == pytest.approx(
            expect, abs=1e-8
        )

    def test_zero_gap_families(self):
        for name, mus in [("gaussian_mean", [0.3, -0.2]), ("poisson", [1.0, 2.5])]:
            spec = make_family(name)
            alt = Alternative.from_means(spec, mus)
            assert gr.gap_pseudo_cond(spec, alt) == pytest.approx(0.0, abs=1e-10)
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        assert gr.gap_pseudo_iid(spec, alt) == pytest.approx(0.0, abs=1e-12)
        # no effect: both gaps are zero exactly, without quadrature
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.5])
        assert gr.gap_pseudo_iid(spec, alt) == gr.gap_pseudo_cond(spec, alt) == 0.0

    def test_bernoulli_cond_ranked_below_pseudo(self):
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        assert gr.growth_pseudo(spec, alt) > gr.growth_rate(spec, alt, "cond").rate

    def test_monte_carlo_agrees_with_quadrature(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        for kind in ("pseudo", "gro_iid", "cond"):
            q = gr.growth_rate(spec, alt, kind).rate
            m = gr.growth_rate(spec, alt, kind, method="mc", mc_n=300_000, seed=2)
            assert q == pytest.approx(m.rate, abs=4 * m.stderr)

    def test_gro_m_growth_is_kl_to_mixture(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        mix = ripr.point_mixture(spec, alt, alt.mu0_star)
        got = gr.growth_rate(spec, alt, "gro_m", mixture=mix).rate
        assert got == pytest.approx(gr.growth_pseudo(spec, alt), abs=1e-10)

    def test_gro_m_quadrature_refuses_foreign_mixture(self):
        # an exponential (0.5, 0.25) point mixture on poisson (5, 0.1) once
        # gave rate 8.469 with no error
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        mix = ripr.point_mixture(spec, alt, alt.mu0_star)
        poisson = make_family("poisson")
        other = Alternative.from_means(poisson, [5.0, 0.1])
        with pytest.raises(ripr.CertificationError) as exc:
            gr.growth_rate(poisson, other, "gro_m", mixture=mix)
        msg = str(exc.value)
        assert "exponential" in msg and "poisson" in msg and "[5.0, 0.1]" in msg

    def test_gro_m_quadrature_refuses_uncertified_mixture(self):
        # quadrature once gave rate 0.1159 where Monte Carlo refused
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        raw = ripr.MixtureNull(((0.5, 0.3), (0.5, 0.45)))
        for method in ("quadrature", "mc"):
            with pytest.raises(ripr.CertificationError):
                gr.growth_rate(spec, alt, "gro_m", method=method, mixture=raw,
                               mc_n=100)

    def test_zero_effect_refuses_before_its_shortcut(self):
        # at delta = 0 a missing mixture once gave rate 0.0, and an unknown
        # method was accepted
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.4, 0.4])
        with pytest.raises(ValueError, match="run the projection first"):
            gr.growth_rate(spec, alt, "gro_m")
        with pytest.raises(ValueError, match="method must be"):
            gr.growth_rate(spec, alt, "pseudo", method="bogus")

    @pytest.mark.parametrize("mc_n", [0, 1, -3])
    def test_monte_carlo_size_below_two_refused(self, mc_n):
        # 0 once gave NaN, 1 a NaN stderr and -3 numpy's "negative
        # dimensions are not allowed"
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        with pytest.raises(ValueError, match=f"^mc_n must be at least 2, got {mc_n}$"):
            gr.growth_rate(spec, alt, "pseudo", method="mc", mc_n=mc_n)

    @pytest.mark.parametrize("family, means, kinds", [
        ("exponential", [0.5, 0.25], ["pseudo", "gro_iid", "cond"]),
        ("poisson", [2.0, 1.0], ["pseudo", "gro_iid", "cond"]),
        ("exponential", [0.5, 0.25], ["pseudo", "gro_m", "cond"]),
    ])
    def test_monte_carlo_report_equals_per_kind_draws(self, family, means, kinds):
        # one draw scored for every kind gives bit for bit what a fresh
        # spawn_generator(seed, 0) draw per kind gave
        spec = make_family(family)
        alt = Alternative.from_means(spec, means)
        mix = ripr.point_mixture(spec, alt, alt.mu0_star)
        rep = gr.growth_report(spec, alt, kinds, method="mc", mixture=mix,
                               mc_n=5000, seed=7)
        for kind in kinds:
            rng = spawn_generator(7, 0)
            x = np.stack([spec.sample(m, 5000, rng) for m in alt.mu], axis=-1)
            v = ev._log_statistic(spec, alt, x, kind, mix)
            entry = rep.entries[ev.EValueKind(kind)]
            assert entry.rate == float(v.mean())
            assert entry.stderr == float(v.std(ddof=1) / np.sqrt(5000))

    def test_monte_carlo_report_draws_once(self, monkeypatch):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        calls = []
        sample = type(spec).sample
        monkeypatch.setattr(type(spec), "sample",
                            lambda self, *a: calls.append(a) or sample(self, *a))
        gr.growth_report(spec, alt, ["pseudo", "gro_iid", "cond"], method="mc",
                         mc_n=1000)
        assert len(calls) == alt.k

    def test_monte_carlo_report_checks_the_draws_once(self, monkeypatch):
        spec = make_family("poisson")
        alt = Alternative.from_means(spec, [2.0, 1.0])
        shapes = []
        check = type(spec).check_support
        monkeypatch.setattr(type(spec), "check_support",
                            lambda self, x: shapes.append(np.shape(x)) or check(self, x))
        gr.growth_report(spec, alt, ["pseudo", "gro_iid", "cond"], method="mc",
                         mc_n=1000)
        assert shapes == [(1000, 2)]

    def test_monte_carlo_scores_beta_draws_near_zero(self):
        # at alpha = 0.01 and mu = -0.5, about 1 draw in 2000 underflowed to
        # -0.0, outside the support, and the rate refused its own draws
        spec = make_family("beta_fixed_alpha", alpha=0.01)
        alt = Alternative.from_means(spec, [-0.5, -5.0])
        entry = gr.growth_rate(spec, alt, "gro_iid", method="mc", mc_n=20_000, seed=0)
        assert math.isfinite(entry.rate)

    def test_report_gaps_are_exact_rate_differences(self):
        spec = make_family("geometric")
        alt = Alternative.from_means(spec, [10.0 / 3, 1.25])
        rep = gr.growth_report(spec, alt, ["pseudo", "gro_iid", "cond"])
        for a in rep.entries:
            for b in rep.entries:
                assert rep.gap(a, b) == rep.entries[a].rate - rep.entries[b].rate

    def test_ordering_chain(self):
        # pooled-mean dominates; the certified mixture dominates both of the
        # computable e-values, all up to quadrature/certificate tolerance
        spec = make_family("gaussian_variance")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        mix, _ = ripr.brute_force_two_component(
            spec, alt, n_alpha=40, mu_count=40, mu0_count=300
        )
        tol = 3e-6
        g_pseudo = gr.growth_pseudo(spec, alt)
        g_m = gr.growth_rate(spec, alt, "gro_m", mixture=mix).rate
        g_iid = gr.growth_rate(spec, alt, "gro_iid").rate
        g_cond = gr.growth_rate(spec, alt, "cond").rate
        assert g_pseudo >= g_m - tol
        assert g_m >= g_iid - tol
        assert g_m >= g_cond - tol


def fisher_info_and_slope(spec, mu0):
    """The Fisher information I = 1/V of the mean and dI/dmu = -V'/V^2."""
    v = spec.variance(mu0)
    return 1.0 / v, -spec.variance_d1(mu0) / (v * v)


class TestFourthOrderCoefficients:
    def test_gaussian_location_analytic_eighth(self):
        spec = make_family("gaussian_mean")
        c = gr.coeff_iid_gap(spec, 0.0)
        assert c.value == pytest.approx(0.125, rel=1e-9)

    def test_bernoulli_iid_identically_zero(self):
        spec = make_family("bernoulli")
        for mu0 in (0.2, 0.5, 0.7):
            assert gr.coeff_iid_gap(spec, mu0).value == 0.0

    def test_zero_cond_gap_families(self):
        assert gr.coeff_cond_gap(make_family("gaussian_mean"), 0.4).value == 0.0
        assert gr.coeff_cond_gap(make_family("poisson"), 2.0).value == 0.0

    @pytest.mark.parametrize(
        "name,fixed,mu0",
        [
            ("exponential", {}, 0.375),
            ("geometric", {}, 2.0),
            ("gaussian_variance", {}, 1.0),
            ("beta_fixed_alpha", {}, -0.5),
            ("beta_fixed_alpha", {"alpha": 0.5}, -0.5),
            ("beta_fixed_alpha", {"alpha": 2.0}, -0.5),
            ("poisson", {}, 2.0),
        ],
    )
    def test_quadrature_matches_moment_closed_form(self, name, fixed, mu0):
        # (1/(8k)) E_mu0[s(X)^2] by quadrature, s the score curvature
        from ksample_evalues._quad import support_nodes

        spec = make_family(name, **fixed)
        i0, i1 = fisher_info_and_slope(spec, mu0)
        x, w = support_nodes(spec, [mu0], n=4096)
        s = i0 * i0 * (x - mu0) ** 2 + i1 * (x - mu0) - i0
        want = float(np.sum(w * np.exp(spec.log_pdf(mu0, x)) * s * s)) / 16.0
        assert gr.coeff_iid_gap(spec, mu0).value == pytest.approx(want, rel=1e-8)

    def test_negative_value_rejected_for_pure_gaps(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gr.FourthOrderCoefficient(-1.0, gr.GapKind.IID_GAP)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("name,fixed,mu0", [("exponential", {}, 0.375),
                                                ("gaussian_variance", {}, 1.0),
                                                ("beta_fixed_alpha", {}, -0.5),
                                                ("beta_fixed_alpha", {"alpha": 2.0}, -0.5)])
    def test_cond_gap_matches_tilted_density_finite_difference(self, name, fixed, mu0, k):
        # cross-check the curvature construction against a central second
        # difference of the direction-tilted sum density; beta with alpha = 2
        # has no quadratic variance function and integrates numerically
        spec = make_family(name, **fixed)
        d = default_direction(k)
        from ksample_evalues._quad import sum_nodes

        z, wz = sum_nodes(spec, [mu0], k, n=1024)
        h = 2e-3
        up = np.exp(spec.sum_log_pdf(list(mu0 + h * d), z))
        mid = np.exp(spec.sum_log_pdf([mu0] * k, z))
        dn = np.exp(spec.sum_log_pdf(list(mu0 - h * d), z))
        g2 = (up - 2 * mid + dn) / h**2
        fd_value = float(np.sum(wz * g2 * g2 / mid)) / 8.0
        assert gr.coeff_cond_gap(spec, mu0, k=k).value == pytest.approx(fd_value, rel=1e-4)

    def test_k3_cond_gap_positive_for_exponential(self):
        spec = make_family("exponential")
        c = gr.coeff_cond_gap(spec, 0.375, k=3)
        assert c.value > 0
        # empirical check at one small delta
        d = np.array([1.0, 0.0, -1.0]) / math.sqrt(2)
        delta = 0.05
        alt = Alternative.from_effect(spec, 0.375, delta, d)
        emp = gr.gap_pseudo_cond(spec, alt) / delta**4
        assert emp == pytest.approx(c.value, rel=0.15)

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("name,mu0", [("poisson", 2.0), ("poisson", 30.0),
                                          ("geometric", 1.5), ("bernoulli", 0.3)])
    def test_discrete_cond_second_moment_matches_per_z_sum(self, name, mu0, k):
        from ksample_evalues._quad import sum_nodes

        spec = make_family(name)
        z, wz = sum_nodes(spec, [mu0], k)
        log_gz = spec.sum_log_pdf([mu0] * k, z)
        # E[X_1^2 | Z=z] summed over x <= z one z at a time
        xs = np.arange(0.0, z.max() + 1.0)
        xs = xs[xs <= spec.support.hi]
        px = np.exp(spec.log_pdf(mu0, xs))
        rest = np.arange(0.0, z.max() + 1.0)
        rest = rest[rest <= (k - 1) * spec.support.hi]
        rest_tab = np.exp(spec.sum_log_pdf([mu0] * (k - 1), rest))
        ex2 = np.empty_like(z)
        for i, zz in enumerate(z):
            xi = xs[xs <= zz + 1e-9]
            t = np.round(zz - xi).astype(int)
            ok = t < rest.size
            ex2[i] = np.sum(xi[ok] ** 2 * px[: xi.size][ok] * rest_tab[t[ok]])
        ex2 /= np.exp(log_gz)
        # the coefficient's defining sum, (1/8) sum_z g(z) c(z)^2
        i0, i1 = fisher_info_and_slope(spec, mu0)
        ex1x2 = (z * z - k * ex2) / (k * (k - 1.0))
        c = i0 * i0 * (ex2 - ex1x2) + i1 * (z / k - mu0) - i0
        want = float(np.sum(wz * np.exp(log_gz) * c * c)) / 8.0
        got = gr.coeff_cond_gap(spec, mu0, k=k).value
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestSignedFourthRoot:
    def test_odd_symmetry(self):
        x = np.array([-16.0, -1.0, 0.0, 1.0, 16.0])
        out = gr.signed_fourth_root(x)
        assert np.allclose(out, [-2.0, -1.0, 0.0, 1.0, 2.0])


@pytest.fixture(scope="module")
def result():
    spec = make_family("geometric")
    return gr.heatmap(spec, ("gro_iid", "cond"), n=8)


class TestHeatmap:
    def test_diagonal_cells_zero(self, result):
        assert np.allclose(np.diag(result.gap), 0.0)

    def test_symmetry_under_group_exchange(self, result):
        assert np.allclose(result.gap, result.gap.T, atol=1e-10, equal_nan=True)

    def test_rows_count_and_fields(self, result):
        rows = result.rows()
        assert len(rows) == 64
        mu1, mu2, gap, root = rows[1]
        assert root == pytest.approx(gr.signed_fourth_root(gap))

    def test_slices_symmetric_in_delta(self, result):
        deltas, vals = result.slice(0)
        assert len(deltas) == 8
        assert np.allclose(deltas, -deltas[::-1])
        assert np.allclose(vals, vals[::-1], atol=1e-8)

    @pytest.mark.parametrize("kinds", [("gro_m", "cond"), ("pseudo", "gro_m")])
    @pytest.mark.parametrize("method", ["quadrature", "mc"])
    def test_gro_m_refused_before_any_cell(self, monkeypatch, method, kinds):
        # a certified mixture is bound to one alternative; without a refusal
        # every off-diagonal cell once failed and came back NaN
        cells = []
        monkeypatch.setattr(gr.Alternative, "from_means",
                            classmethod(lambda cls, spec, mus: cells.append(mus)))
        with pytest.raises(ValueError, match="bound to one alternative"):
            gr.heatmap(make_family("poisson"), kinds, n=3, method=method, mc_n=100)
        assert not cells

    @pytest.mark.parametrize("n", [1, 0, -2])
    def test_fewer_than_two_points_refused(self, monkeypatch, n):
        # n = 0 once gave an empty grid and n = -2 numpy's "Number of
        # samples, -2, must be non-negative."
        cells = []
        monkeypatch.setattr(gr.Alternative, "from_means",
                            classmethod(lambda cls, spec, mus: cells.append(mus)))
        with pytest.raises(ValueError, match=f"^n must be at least 2, got {n}$"):
            gr.heatmap(make_family("exponential"), ("pseudo", "cond"), n=n)
        assert not cells

    @pytest.mark.parametrize("mc_n", [0, 1, -3])
    def test_monte_carlo_size_below_two_refused(self, monkeypatch, mc_n):
        # mc_n = 0 once gave NaN cells and no failures
        cells = []
        monkeypatch.setattr(gr.Alternative, "from_means",
                            classmethod(lambda cls, spec, mus: cells.append(mus)))
        with pytest.raises(ValueError, match=f"^mc_n must be at least 2, got {mc_n}$"):
            gr.heatmap(make_family("exponential"), ("pseudo", "cond"), n=3,
                       method="mc", mc_n=mc_n)
        assert not cells

    def test_cell_failures_recorded_not_fatal(self):
        # a grid touching the boundary of the mean space fails cell-wise
        spec = make_family("geometric")
        res = gr.heatmap(spec, ("gro_iid", "cond"), n=4, std_lo=-0.2, std_hi=0.5)
        assert res.failures
        assert np.isnan(res.gap).any()

    def test_programming_error_in_a_cell_propagates(self, monkeypatch):
        # only named refusals are cell failures; a TypeError was once a NaN cell
        def broken(*args, **kwargs):
            raise TypeError("broken cell")

        monkeypatch.setattr(gr, "growth_rate", broken)
        with pytest.raises(TypeError, match="^broken cell$"):
            gr.heatmap(make_family("exponential"), ("gro_iid", "cond"), n=3)

    @pytest.mark.parametrize("name", ["bernoulli", "gaussian_mean", "gaussian_variance",
                                      "poisson", "exponential", "geometric",
                                      "beta_fixed_alpha"])
    def test_default_range_of_every_family(self, name):
        spec = make_family(name)
        res = gr.heatmap(spec, ("gro_iid", "cond"), n=3)
        lo, hi = spec.default_std_range()
        assert res.std_values[0] == lo and res.std_values[-1] == hi
        assert res.mu_values[0] == spec.mean_from_std(lo)
        assert not res.failures and np.isfinite(res.gap).all()
        assert np.array_equal(res.gap, res.gap.T)
        assert np.all(np.diag(res.gap) == 0.0)

    def test_custom_range_in_standard_parameterization(self):
        spec = make_family("exponential")
        res = gr.heatmap(spec, ("pseudo", "cond"), n=5, std_lo=1.0, std_hi=2.0)
        # rates 1..2 map to means 1..0.5
        assert res.mu_values[0] == pytest.approx(1.0)
        assert res.mu_values[-1] == pytest.approx(0.5)

    def test_monte_carlo_cells_symmetric_within_noise(self):
        # the MC path evaluates every cell independently, so group-exchange
        # symmetry is a real check there (quadrature mirrors it exactly)
        spec = make_family("exponential")
        res = gr.heatmap(spec, ("pseudo", "cond"), n=4, method="mc", mc_n=40_000, seed=3)
        for i in range(4):
            for j in range(i + 1, 4):
                tol = 5 * math.hypot(res.stderr[i, j], res.stderr[j, i]) + 1e-12
                assert abs(res.gap[i, j] - res.gap[j, i]) < tol

    def test_monte_carlo_cells_match_quadrature(self):
        spec = make_family("exponential")
        quad = gr.heatmap(spec, ("pseudo", "cond"), n=4)
        mc = gr.heatmap(spec, ("pseudo", "cond"), n=4, method="mc", mc_n=40_000, seed=4)
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                assert mc.gap[i, j] == pytest.approx(
                    quad.gap[i, j], abs=5 * mc.stderr[i, j] + 1e-9
                )

    def test_monte_carlo_cell_checks_its_draws_once(self, monkeypatch):
        spec = make_family("poisson")
        shapes = []
        check = type(spec).check_support
        monkeypatch.setattr(type(spec), "check_support",
                            lambda self, x: shapes.append(np.shape(x)) or check(self, x))
        res = gr.heatmap(spec, ("gro_iid", "cond"), n=3, method="mc", mc_n=500, seed=2)
        assert not res.failures
        assert shapes == [(500, 2)] * 6  # the six off-diagonal cells

    def test_monte_carlo_cells_pair_the_draws(self):
        # poisson pseudo and cond agree on every block, so a cell that scores
        # both kinds on the same draws has neither a gap nor any noise
        spec = make_family("poisson")
        res = gr.heatmap(spec, ("pseudo", "cond"), n=3, method="mc", mc_n=20_000, seed=2)
        assert not res.failures
        assert np.all(np.abs(res.gap) <= 1e-12)
        assert np.all(res.stderr <= 1e-12)
