import json
import logging
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

import ksample_evalues
from ksample_evalues import Alternative, MeanDomainError, make_family
from ksample_evalues import evariables as ev
from ksample_evalues import growth as gr
from ksample_evalues import ripr


# the problem of the hand-built certificates below
EXPO_CONFIG = {"family": "exponential", "fixed_params": {}, "mean_params": [0.5, 0.25]}


@pytest.fixture(scope="module")
def expo():
    spec = make_family("exponential")
    return spec, Alternative.from_means(spec, [0.5, 0.25])


@pytest.fixture(scope="module")
def expo_pair(expo):
    """A certified two-component mixture for exponential (0.5, 0.25)."""
    spec, alt = expo
    mix, _ = ripr.brute_force_two_component(
        spec, alt, n_alpha=30, mu_count=30, mu0_count=200
    )
    return mix


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each thread pool the searches start."""
    started = []

    class Pool(ripr.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(ripr, "ThreadPoolExecutor", Pool)
    return started


def test_ripr_does_not_import_evariables():
    # the projection and its certificate need no statistic; Monte Carlo
    # checks of a mixture go through evariables and growth
    src = str(Path(ksample_evalues.__file__).resolve().parents[1])
    code = ("import sys, ksample_evalues.ripr; "
            "print('ksample_evalues.evariables' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


class TestMixtureNullValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            ripr.MixtureNull(((0.6, 0.3), (0.5, 0.4)))

    def test_nonempty(self):
        with pytest.raises(ValueError, match="at least one"):
            ripr.MixtureNull(())

    def test_weight_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ripr.MixtureNull(((1.5, 0.3), (-0.5, 0.4)))

    def test_certificate_cannot_sit_below_one(self):
        cert = ripr.Certificate(0.95, 100, 0.1, 1.0, "li", 0.5)
        with pytest.raises(ValueError, match="below 1"):
            ripr.MixtureNull(((1.0, 0.3),), cert, EXPO_CONFIG)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_or_mean_refused(self, bad):
        for comps, name in [(((bad, 0.3),), "weight"), (((1.0, bad),), "mean"),
                            (((0.5, 0.3), (0.5, bad)), "mean")]:
            msg = f"mixture {name} must be finite, got {bad!r}"
            with pytest.raises(ValueError, match=msg):
                ripr.MixtureNull(comps)
            payload = {"components": [{"w": w, "mu0": m} for w, m in comps]}
            with pytest.raises(ValueError, match=msg):
                ripr.MixtureNull.from_json_dict(payload)

    @pytest.mark.parametrize("field", ["sup_expectation", "mu0_lo", "mu0_hi", "argmax_mu0"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_certificate_refused(self, bad, field):
        msg = f"certificate {field} must be finite, got {bad!r}"
        good = {"sup_expectation": 1.0005, "mu0_grid_size": 100, "mu0_lo": 0.1,
                "mu0_hi": 1.0, "method": "li", "argmax_mu0": 0.5}
        with pytest.raises(ValueError, match=msg):
            ripr.Certificate(**{**good, field: bad})
        cert = ripr.Certificate(**good)
        payload = ripr.MixtureNull(((1.0, 0.3),), cert, EXPO_CONFIG).to_json_dict()
        payload["certificate"][field] = bad
        with pytest.raises(ValueError, match=msg):
            ripr.MixtureNull.from_json_dict(payload)

    def test_config_without_means_refused(self):
        payload = {"components": [{"w": 1.0, "mu0": 0.3}],
                   "config": {"family": "exponential"}}
        with pytest.raises(ValueError, match="needs 'family' and 'mean_params'"):
            ripr.MixtureNull.from_json_dict(payload)

    @pytest.mark.parametrize("edit, match", [
        (lambda p: p.pop("components"), r"^mixture is missing 'components'$"),
        (lambda p: p.update(weights=[1.0]), r"^mixture has unknown key\(s\) 'weights'$"),
        (lambda p: p["components"][0].pop("mu0"),
         r"^mixture component is missing 'mu0'$"),
        (lambda p: p.update(components=5), r"^mixture components must be a list, got 5$"),
        (lambda p: p.update(components=["w"]),
         r"^mixture component must be a JSON object, got 'w'$"),
        (lambda p: [p["certificate"].pop(key) for key in ("mu0_lo", "method")],
         r"^mixture certificate is missing 'mu0_lo', 'method'$"),
        (lambda p: p["certificate"].update(sup=1.0),
         r"^mixture certificate has unknown key\(s\) 'sup'$"),
        (lambda p: p.update(certificate=[1.0]),
         r"^mixture certificate must be a JSON object, got \[1\.0\]$"),
        # values of the wrong type once raised TypeError, or passed
        (lambda p: p["components"][0].update(w="x"), r"^w must be a number, got 'x'$"),
        (lambda p: p["components"][0].update(mu0=None), r"^mu0 must be a number, got None$"),
        (lambda p: p["certificate"].update(sup_expectation="1.0"),
         r"^sup_expectation must be a number, got '1\.0'$"),
        (lambda p: p["certificate"].update(mu0_lo=True), r"^mu0_lo must be a number, got True$"),
        (lambda p: p["certificate"].update(mu0_grid_size="x"),
         r"^mu0_grid_size must be an integer, got 'x'$"),
        (lambda p: p["certificate"].update(mu0_grid_size=0),
         r"^mu0_grid_size must be at least 1, got 0$"),
        (lambda p: p["certificate"].update(method=1),
         r"^certificate method must be a string, got 1$"),
        (lambda p: p.update(config={"family": 3, "mean_params": [0.5, 0.25]}),
         r"^family must be a string, got 3$"),
    ])
    def test_malformed_file_refused_by_key(self, edit, match):
        cert = ripr.Certificate(1.0005, 100, 0.1, 1.0, "li", 0.5)
        payload = ripr.MixtureNull(((1.0, 0.3),), cert, EXPO_CONFIG).to_json_dict()
        edit(payload)
        with pytest.raises(ValueError, match=match):
            ripr.MixtureNull.from_json_dict(payload)

    def test_json_roundtrip(self):
        cert = ripr.Certificate(1.0005, 1000, 0.1, 1.0, "brute_force_2", 0.4)
        for certificate, config in ((None, None), (None, EXPO_CONFIG),
                                    (cert, EXPO_CONFIG)):
            mix = ripr.MixtureNull(((0.6, 0.3), (0.4, 0.45)), certificate, config)
            back = ripr.MixtureNull.from_json_dict(mix.to_json_dict())
            assert back == mix
            assert back.config == config

    def test_certificate_without_config_refused(self):
        # a certified mixture without its problem was once taken on trust
        cert = ripr.Certificate(1.0005, 1000, 0.1, 1.0, "brute_force_2", 0.4)
        comps = ((0.6, 0.3), (0.4, 0.45))
        msg = ("certified mixture has no config, so its problem is unknown; "
               "give config=spec.to_config(means)")
        with pytest.raises(ripr.CertificationError, match=f"^{re.escape(msg)}$"):
            ripr.MixtureNull(comps, cert)
        payload = {"components": [{"w": w, "mu0": m} for w, m in comps],
                   "certificate": cert.to_dict()}
        with pytest.raises(ripr.CertificationError, match=f"^{re.escape(msg)}$"):
            ripr.MixtureNull.from_json_dict(payload)

    @pytest.mark.parametrize("edit, match", [
        ({"mu0_lo": 1.0, "mu0_hi": 0.1},
         r"^certificate needs mu0_lo <= mu0_hi, got 1\.0 > 0\.1$"),
        ({"argmax_mu0": 1.5},
         r"^certificate argmax_mu0=1\.5 lies outside \[0\.1, 1\.0\]$"),
        ({"argmax_mu0": 0.05}, r"^certificate argmax_mu0=0\.05 lies outside "),
        ({"mu0_lo": 0.3, "mu0_hi": 0.3, "argmax_mu0": 0.3000001},
         r"^certificate argmax_mu0=0\.3000001 lies outside "),
    ], ids=["window-reversed", "argmax-above", "argmax-below", "one-point"])
    def test_certificate_window_refused(self, edit, match):
        # a mixture file could state either; _SumGrid refused the first only
        # once a grid was built
        good = {"sup_expectation": 1.0005, "mu0_grid_size": 100, "mu0_lo": 0.1,
                "mu0_hi": 1.0, "method": "li", "argmax_mu0": 0.5}
        with pytest.raises(ValueError, match=match):
            ripr.Certificate(**{**good, **edit})
        payload = {"components": [{"w": 1.0, "mu0": 0.3}],
                   "certificate": {**good, **edit}, "config": EXPO_CONFIG}
        with pytest.raises(ValueError, match=match):
            ripr.MixtureNull.from_json_dict(payload)
        one_point = {**good, "mu0_lo": 0.3, "mu0_hi": 0.3, "argmax_mu0": 0.3}
        assert ripr.Certificate(**one_point).argmax_mu0 == 0.3


class TestProblemBinding:
    def test_searches_bind_their_problem(self, expo):
        spec, alt = expo
        want = {"family": "exponential", "fixed_params": {}, "mean_params": [0.5, 0.25]}
        li, _ = ripr.li_approximate(spec, alt, max_iters=2, n_z=400)
        brute, _ = ripr.brute_force_two_component(
            spec, alt, n_alpha=5, mu_count=6, mu0_count=40, n_z=400)
        point = ripr.point_mixture(spec, alt, alt.mu0_star)
        for mix in (li, brute, point):
            assert mix.config == want
            mix.require_problem(spec, alt.mu)

    def test_refusal_names_both_problems(self, expo):
        spec, alt = expo
        mix = ripr.point_mixture(spec, alt, alt.mu0_star)
        with pytest.raises(ripr.CertificationError) as exc:
            mix.require_problem(make_family("poisson"), [5.0, 0.1])
        msg = str(exc.value)
        assert "exponential" in msg and "[0.5, 0.25]" in msg
        assert "poisson" in msg and "[5.0, 0.1]" in msg
        with pytest.raises(ripr.CertificationError, match=r"\[0\.5, 0\.5, 0\.25\]"):
            mix.require_problem(spec, [0.5, 0.5, 0.25])

    def test_project_file_config_is_resolved(self):
        # a 'ksev project' file may omit default fixed params and give beta
        # means of the observation
        cert = ripr.Certificate(1.0, 100, -2.0, -0.1, "li", -1.0)
        config = {"family": "beta", "mean_params": [0.5, 0.25], "beta_means": True}
        payload = {"components": [{"w": 1.0, "mu0": -1.0}],
                   "certificate": cert.to_dict(), "config": config}
        mix = ripr.MixtureNull.from_json_dict(payload)
        spec = make_family("beta_fixed_alpha")
        means = [spec.mean_from_beta_mean(m) for m in (0.5, 0.25)]
        assert mix.config == spec.to_config(means)
        mix.require_problem(spec, means)

    def test_hand_built_config_equals_the_file(self, tmp_path):
        # the constructor resolves a config as a file read does: the same
        # problem stated by hand and read back from a file compares equal
        cert = ripr.Certificate(1.0, 100, -2.0, -0.1, "li", -1.0)
        config = {"family": "beta", "mean_params": [0.5, 0.25], "beta_means": True}
        by_hand = ripr.MixtureNull(((1.0, -1.0),), cert, config)
        path = tmp_path / "mix.json"
        path.write_text(json.dumps({"components": [{"w": 1.0, "mu0": -1.0}],
                                    "certificate": cert.to_dict(),
                                    "config": config}))
        from_file = ripr.MixtureNull.from_json_dict(json.loads(path.read_text()))
        assert by_hand == from_file
        assert by_hand.config == from_file.config == {
            "family": "beta_fixed_alpha", "fixed_params": {"alpha": 1.0},
            "mean_params": from_file.config["mean_params"]}
        assert ripr.MixtureNull.from_json_dict(by_hand.to_json_dict()) == by_hand
        # an uncertified mixture's config is resolved alike
        assert ripr.MixtureNull(((1.0, -1.0),), None, config).config == by_hand.config

    def test_config_that_is_no_object_refused(self):
        with pytest.raises(ValueError, match=r"^config must be a JSON object, got 5$"):
            ripr.MixtureNull(((1.0, 0.3),), None, 5)

    def test_beta_means_on_another_family_refused(self):
        payload = ripr.MixtureNull(((1.0, 0.4),)).to_json_dict()
        payload["config"] = {"family": "exponential", "mean_params": [0.5, 0.25],
                             "beta_means": True}
        with pytest.raises(ValueError, match="beta_means.*'exponential'"):
            ripr.MixtureNull.from_json_dict(payload)


class TestWorstCaseExpectation:
    def test_matches_direct_double_quadrature(self, expo):
        spec, alt = expo
        mix = ripr.MixtureNull(((0.56, 0.35), (0.44, 0.51)))
        for mu0 in (0.3, 0.45, 0.6):

            def integrand(x2, x1):
                num = np.exp(spec.log_pdf(alt.mu[0], x1) + spec.log_pdf(alt.mu[1], x2))
                den = 0.56 * np.exp(
                    spec.log_pdf(0.35, x1) + spec.log_pdf(0.35, x2)
                ) + 0.44 * np.exp(spec.log_pdf(0.51, x1) + spec.log_pdf(0.51, x2))
                return np.exp(spec.log_pdf(mu0, x1) + spec.log_pdf(mu0, x2)) * num / den

            oracle, _ = integrate.dblquad(
                integrand, 0, 40, 0, 40, epsabs=1e-12, epsrel=1e-10
            )
            value = ripr.worst_case_expectation(spec, alt, mix, count=1, lo=mu0,
                                                hi=mu0)[0]
            assert value == pytest.approx(oracle, rel=1e-8)

    def test_matches_monte_carlo(self, expo, expo_pair):
        spec, alt = expo
        value = ripr.worst_case_expectation(spec, alt, expo_pair, count=1, lo=0.35,
                                            hi=0.35)[0]
        mean, se = ev.null_expectation_mc(spec, alt, "gro_m", 0.35, n=400_000,
                                          seed=1, mixture=expo_pair)
        assert value == pytest.approx(mean, abs=4 * se)

    def test_exact_projection_point_certifies_at_one(self):
        # Gaussian location: the projection is the single pooled-mean point
        spec = make_family("gaussian_mean")
        alt = Alternative.from_means(spec, [0.0, 1.0])
        mix = ripr.point_mixture(spec, alt, alt.mu0_star)
        sup, _ = ripr.worst_case_expectation(spec, alt, mix)
        assert sup == pytest.approx(1.0, abs=1e-6)

    def test_sub_projection_mixture_exceeds_one(self, expo):
        spec, alt = expo
        mix = ripr.point_mixture(spec, alt, 0.6)  # off-center single point
        sup, argmax = ripr.worst_case_expectation(spec, alt, mix)
        assert (sup, argmax) == (mix.certificate.sup_expectation,
                                 mix.certificate.argmax_mu0)
        assert sup > 1.0
        mean, se = ev.null_expectation_mc(spec, alt, "gro_m", argmax, n=10**6,
                                          seed=2, mixture=mix)
        assert sup == pytest.approx(mean, abs=max(4 * se, 3e-3))


class TestShiftedTiltRows:
    """A grid's rows are scaled at each z by e^(-s(z)), s the largest tilt at
    z over ``_SHIFT_MEANS`` certification means: they stay finite where the
    tilts overflow, and the factor cancels in every ratio and in ``kl``."""

    @pytest.mark.parametrize("mus, search, window", [
        ((95.633, 0.573), "point", {}), ((95.633, 0.573), "li", {}),
        ((300.7, 0.282, 2.02), "point", {}), ((300.7, 0.282, 2.02), "li", {}),
        ((5.0, 0.1), "point", {"lo": 10.0, "hi": 200.0}),
        ((30.0, 0.5, 2.0), "li", {}),
    ])
    def test_poisson_tilts_past_the_largest_float_certify(self, mus, search, window):
        # each overflowed in exp and was then refused as degenerate
        spec = make_family("poisson")
        alt = Alternative.from_means(spec, list(mus))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if search == "point":
                mix = ripr.point_mixture(spec, alt, alt.mu0_star, **window)
            else:
                mix, _ = ripr.li_approximate(spec, alt)
        assert mix.components == ((1.0, alt.mu0_star),)
        assert 1.0 <= mix.certificate.sup_expectation < 1.0 + 1e-9

    @pytest.mark.parametrize("name, mus", [
        ("exponential", (0.5, 0.25)), ("poisson", (2.0, 1.0, 3.0)),
        ("bernoulli", (0.6, 0.4)), ("gaussian_variance", (0.5, 0.25)),
    ])
    def test_shift_cancels_in_every_ratio_and_in_kl(self, name, mus):
        spec = make_family(name)
        alt = Alternative.from_means(spec, list(mus))
        grid = ripr._SumGrid(spec, alt, 250)
        lam, la = spec._natural_params(grid.mu0s)
        raw = np.exp(np.multiply.outer(lam, grid.z) - alt.k * la[:, None])
        rows = grid.tilt_rows(grid.mu0s)
        np.testing.assert_allclose(rows * np.exp(grid.shift), raw, rtol=1e-12)
        assert np.all(rows.max(axis=0) >= 1.0)
        ws, comps = [0.3, 0.7], [grid.lo, alt.mu0_star]
        d = grid.mixture(ws, comps)
        lam_c, la_c = spec._natural_params(comps)
        d_raw = np.exp(np.multiply.outer(lam_c, grid.z) - alt.k * la_c[:, None]).T @ ws
        np.testing.assert_allclose(grid.expectations(d), (raw * grid.wm) @ (1.0 / d_raw),
                                   rtol=1e-12)
        lams, las = spec._natural_params(alt.mu)
        kl_raw = float(np.sum(lams * np.array(alt.mu) - las)) - np.log(d_raw) @ grid.wm
        assert grid.kl(d) == pytest.approx(kl_raw, rel=1e-10, abs=1e-12)


class TestKLToMixture:
    def test_degenerate_zero(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.4, 0.4])
        mix = ripr.point_mixture(spec, alt, 0.4)
        assert ripr.kl_to_mixture(spec, alt, mix) == pytest.approx(0.0, abs=1e-12)

    def test_single_points_minimized_at_pooled_mean(self, expo):
        spec, alt = expo
        kls = []
        for mu0 in np.linspace(0.2, 0.6, 21):
            mix = ripr.MixtureNull(((1.0, float(mu0)),))
            kls.append(ripr.kl_to_mixture(spec, alt, mix))
        best = np.argmin(kls)
        assert np.linspace(0.2, 0.6, 21)[best] == pytest.approx(
            alt.mu0_star, abs=0.021
        )
        closed = sum(spec.kl(m, alt.mu0_star) for m in alt.mu)
        mix0 = ripr.MixtureNull(((1.0, alt.mu0_star),))
        assert ripr.kl_to_mixture(spec, alt, mix0) == pytest.approx(
            closed, abs=1e-10
        )

    @pytest.mark.parametrize("name, fixed, mus", [
        ("exponential", {}, [0.5, 0.25]), ("geometric", {}, [10 / 3, 1.25]),
        ("gaussian_variance", {}, [0.5, 0.25]), ("poisson", {}, [2.0, 1.0]),
        ("bernoulli", {}, [0.6, 0.4]), ("gaussian_mean", {}, [0.5, -0.5]),
        ("beta_fixed_alpha", {"alpha": 1.0}, [-1.0, -0.5]),
        ("beta_fixed_alpha", {"alpha": 2.0}, [-1.0, -0.5]),
    ])
    def test_point_mixtures_outside_the_window(self, name, fixed, mus):
        # the z grid spans the alternative and the default window only; the
        # integrand carries the alternative's sum density, so a mixture mean
        # beyond the window needs no more of the grid
        spec = make_family(name, **fixed)
        alt = Alternative.from_means(spec, mus)
        lo, hi = ripr.default_search_range(spec, alt)
        a, b = spec.mean_space
        below = a + 0.5 * (lo - a) if math.isfinite(a) else lo - (hi - lo)
        above = b - 0.5 * (b - hi) if math.isfinite(b) else hi + (hi - lo)
        for mu0 in (below, above):
            got = ripr.kl_to_mixture(spec, alt, ripr.MixtureNull(((1.0, mu0),)))
            assert got == pytest.approx(sum(spec.kl(m, mu0) for m in mus), rel=1e-10)

    def test_two_components_beat_best_single(self, expo):
        spec, alt = expo
        mix2, _ = ripr.brute_force_two_component(
            spec, alt, n_alpha=40, mu_count=40, mu0_count=300
        )
        kl2 = ripr.kl_to_mixture(spec, alt, mix2)
        kl1 = ripr.kl_to_mixture(
            spec, alt, ripr.MixtureNull(((1.0, alt.mu0_star),))
        )
        assert kl2 <= kl1 + 1e-12

    def test_monte_carlo_agrees(self, expo, expo_pair):
        spec, alt = expo
        quad = ripr.kl_to_mixture(spec, alt, expo_pair)
        mc = gr.growth_rate(spec, alt, "gro_m", method="mc", mixture=expo_pair,
                            mc_n=400_000, seed=4)
        assert quad == pytest.approx(mc.rate, abs=4 * mc.stderr)


class TestLiApproximate:
    def test_degenerate_alternative_stops_at_pooled_mean(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.4, 0.4])
        mix, trace = ripr.li_approximate(spec, alt)
        assert mix.components == ((1.0, 0.4),)
        assert trace[0]["kl"] == 0.0
        assert len(trace) == 1

    @pytest.mark.parametrize(
        "name,mus",
        [
            ("bernoulli", [0.5, 0.25]),
            ("gaussian_mean", [0.3, -0.4]),
            ("poisson", [1.0, 2.5]),
        ],
    )
    def test_analytic_projection_families_need_no_search(self, name, mus):
        spec = make_family(name)
        alt = Alternative.from_means(spec, mus)
        mix, trace = ripr.li_approximate(spec, alt)
        assert len(trace) == 1
        assert len(mix.components) == 1
        assert mix.components[0][1] == pytest.approx(alt.mu0_star)
        assert mix.certificate.sup_expectation <= 1.0 + 1e-6

    def test_greedy_kl_monotone(self):
        spec = make_family("gaussian_variance")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        mix, trace = ripr.li_approximate(spec, alt, max_iters=8)
        kls = [t["kl"] for t in trace]
        assert all(b <= a + 1e-12 for a, b in zip(kls, kls[1:]))
        assert mix.certificate.method == "li"

    def test_trace_records_iteration_fields(self):
        spec = make_family("geometric")
        alt = Alternative.from_means(spec, [10.0 / 3, 1.25])
        _, trace = ripr.li_approximate(spec, alt, max_iters=5)
        assert [t["iter"] for t in trace] == list(range(1, len(trace) + 1))
        assert all({"iter", "kl", "sup_expectation"} <= set(t) for t in trace)


class TestBruteForce:
    def test_small_search_certifies_near_one(self, expo_pair):
        mix = expo_pair
        assert 1.0 - 1e-6 <= mix.certificate.sup_expectation < 1.01
        assert mix.certificate.method == "brute_force_2"
        assert 1 <= len(mix.components) <= 2
        lo, hi = mix.certificate.mu0_lo, mix.certificate.mu0_hi
        assert all(lo <= m <= hi for _, m in mix.components)

    def test_certificate_sound_against_monte_carlo(self, expo, expo_pair):
        spec, alt = expo
        cert = expo_pair.certificate
        mean, se = ev.null_expectation_mc(
            spec, alt, "gro_m", cert.argmax_mu0, n=10**6, seed=11,
            mixture=expo_pair,
        )
        assert cert.sup_expectation == pytest.approx(mean, abs=max(3e-3, 4 * se))


    def test_nan_coarse_sups_rank_last(self):
        # on beta alpha=2 the tilt rows of means near 0 underflow at the low
        # end of the z grid, so some coarse sups are NaN; they must not push
        # finite candidates out of the re-certified top list
        spec = make_family("beta_fixed_alpha", alpha=2.0)
        alt = Alternative.from_means(spec, [-3.0, -1.5])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            mix, _ = ripr.brute_force_two_component(spec, alt, mu_count=50,
                                                    mu0_count=400)
        assert mix.certificate.sup_expectation < 1.005

    def test_callers_errstate_holds_in_the_workers(self):
        # the same row divides by zero in the table's coarse sups, which the
        # pool computes off the calling thread
        spec = make_family("beta_fixed_alpha", alpha=2.0)
        alt = Alternative.from_means(spec, [-3.0, -1.5])
        with np.errstate(divide="raise", over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError) as excinfo:
            ripr.brute_force_two_component(spec, alt, mu_count=50, mu0_count=400)
        assert "coarse_sup" in [entry.name for entry in excinfo.traceback]

    @pytest.mark.parametrize("name,mus", [("geometric", [10.0 / 3, 1.25]),
                                          ("gaussian_variance", [0.5, 0.25])])
    def test_mixture_does_not_depend_on_worker_count(self, name, mus, monkeypatch,
                                                     caplog):
        spec = make_family(name)
        alt = Alternative.from_means(spec, mus)
        caplog.set_level(logging.DEBUG, logger="ksample_evalues")
        mixtures = []
        for cpus in ({0}, set(range(8))):
            monkeypatch.setattr(ripr.os, "sched_getaffinity", lambda pid, c=cpus: c)
            mixtures.append(ripr.brute_force_two_component(spec, alt)[0].to_json_dict())
        assert mixtures[0] == mixtures[1]
        logged = [r.getMessage() for r in caplog.records
                  if r.name == "ksample_evalues.ripr"]
        assert " chunks on 1 workers, " in logged[0]
        assert " chunks on 8 workers, " in logged[1]

    @pytest.mark.parametrize("mu_count,chunks", [(5, 1), (20, 2)])
    def test_no_more_workers_than_chunks(self, expo, monkeypatch, pools, mu_count,
                                         chunks):
        # 400 search nodes make chunks of 125 pairs: 15 and 210 pairs here;
        # a table of one chunk runs on the calling thread
        monkeypatch.setattr(ripr.os, "sched_getaffinity", lambda pid: set(range(8)))
        spec, alt = expo
        ripr.brute_force_two_component(spec, alt, mu_count=mu_count, mu0_count=20)
        assert pools == ([chunks] if chunks > 1 else [])


class TestCandidateTable:
    # both searches take their weight steps through one table; at the default
    # 100 candidates on 400 search nodes Li's table is one chunk of 125 rows
    # and brute2's 5050 pairs are 41 chunks
    def test_default_li_starts_no_pool(self, expo, monkeypatch):
        def refuse(max_workers):
            raise AssertionError(f"Li started a pool of {max_workers}")

        monkeypatch.setattr(ripr, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(ripr.os, "sched_getaffinity", lambda pid: set(range(8)))
        spec, alt = expo
        mix, trace = ripr.li_approximate(spec, alt)
        assert len(trace) > 1 and len(mix.components) > 1

    def test_default_brute2_starts_one_pool_per_usable_cpu(self, expo, monkeypatch,
                                                           pools):
        monkeypatch.setattr(ripr.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        spec, alt = expo
        ripr.brute_force_two_component(spec, alt)
        assert pools == [3]

    @pytest.mark.parametrize("name,mus", [("exponential", [0.5, 0.25]),
                                          ("gaussian_variance", [0.5, 0.25])])
    def test_li_does_not_depend_on_worker_count(self, name, mus, monkeypatch, pools):
        # 300 candidates are three chunks: on the calling thread with one
        # usable CPU, on a pool of three with eight
        spec = make_family(name)
        alt = Alternative.from_means(spec, mus)
        runs = []
        for cpus in ({0}, set(range(8))):
            monkeypatch.setattr(ripr.os, "sched_getaffinity", lambda pid, c=cpus: c)
            mix, trace = ripr.li_approximate(spec, alt, mu_count=300)
            runs.append((mix.to_json_dict(), trace))
        assert runs[0] == runs[1]
        assert pools == [3] * (len(runs[0][1]) - 1)


class TestDegenerateGrids:
    @pytest.mark.parametrize(
        "search,kw,message",
        [
            ("brute2", {"n_alpha": 0}, "n_alpha must be at least 2, got 0"),
            ("brute2", {"n_alpha": 1}, "n_alpha must be at least 2, got 1"),
            ("brute2", {"mu_count": 0}, "mu_count must be at least 1, got 0"),
            ("brute2", {"mu0_count": 0}, "mu0_count must be at least 1, got 0"),
            ("li", {"n_alpha": 1}, "n_alpha must be at least 2, got 1"),
            ("li", {"mu_count": 0}, "mu_count must be at least 1, got 0"),
            ("li", {"cert_count": 0}, "cert_count must be at least 1, got 0"),
            ("li", {"max_iters": 0}, "max_iters must be at least 1, got 0"),
            ("li", {"max_iters": -2}, "max_iters must be at least 1, got -2"),
            ("worst", {"count": 0}, "count must be at least 1, got 0"),
            ("point", {"count": 0}, "count must be at least 1, got 0"),
        ],
    )
    def test_refused_naming_argument(self, expo, search, kw, message):
        spec, alt = expo
        mix = ripr.MixtureNull(((1.0, alt.mu0_star),))
        call = {
            "brute2": lambda: ripr.brute_force_two_component(spec, alt, **kw),
            "li": lambda: ripr.li_approximate(spec, alt, **kw),
            "worst": lambda: ripr.worst_case_expectation(spec, alt, mix, **kw),
            "point": lambda: ripr.point_mixture(spec, alt, alt.mu0_star, **kw),
        }[search]
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize(
        "kw,error,message",
        [
            ({"mu_lo": 0.3, "mu_hi": 0.2}, ValueError,
             "null-mean grid needs lo <= hi, got lo=0.3 > hi=0.2"),
            ({"mu_hi": math.inf}, MeanDomainError,
             r"null-mean grid end hi=inf outside mean space \(0.0, inf\)"),
            ({"mu_lo": -1.0}, MeanDomainError,
             r"null-mean grid end lo=-1.0 outside mean space \(0.0, inf\)"),
            ({"mu_lo": math.nan}, MeanDomainError, "null-mean grid end lo=nan"),
        ],
    )
    @pytest.mark.parametrize("search", ["li", "brute2"])
    def test_window_refused_naming_values(self, expo, search, kw, error, message):
        # lo > hi once died as "certificate below 1 is impossible for a
        # correct search", and hi = inf as a SupportError about NaN z values
        spec, alt = expo
        run = ripr.li_approximate if search == "li" else ripr.brute_force_two_component
        with pytest.raises(error, match=message):
            run(spec, alt, **kw)

    def test_smallest_grids_accepted(self, expo):
        spec, alt = expo
        mix, _ = ripr.brute_force_two_component(
            spec, alt, n_alpha=2, mu_count=1, mu0_count=1, n_z=400)
        assert len(mix.components) == 1
        mix, _ = ripr.li_approximate(spec, alt, max_iters=3, n_alpha=2,
                                     mu_count=1, cert_count=1, n_z=400)
        assert mix.certificate.mu0_grid_size == 1


class TestConvexArgmin:
    @staticmethod
    def search(rows):
        rows = np.asarray(rows, dtype=float)
        calls = []

        def f(idx):
            calls.append(idx.shape[1])
            assert idx.shape[1] <= 2
            return np.take_along_axis(rows, idx, axis=1)

        idx, vals = ripr._convex_argmin(f, rows.shape[1], rows.shape[0])
        return idx, vals, sum(calls)

    def test_plateau_goes_to_lowest_index(self):
        idx, vals, _ = self.search([[5, 4, 3, 3, 3, 3, 3, 6]])
        assert idx.tolist() == [2] and vals.tolist() == [3.0]

    # sizes at and next to Fibonacci numbers pad the bracket past the grid
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 13, 14, 21, 22, 34, 35, 89,
                                   90, 100, 144, 145])
    def test_matches_full_argmin(self, n):
        x = np.arange(n, dtype=float)
        rows = [np.abs(x - c) for c in np.linspace(-1.0, n, 2 * n + 3)]
        rows += [(x - c) ** 2 for c in np.linspace(-1.0, n, 2 * n + 3)]
        rows += [x, x[::-1].copy(), np.zeros(n), np.full(n, 7.0)]
        for p in range(n):  # plateau on [p, q], sloped outside
            for q in range(p, n):
                rows.append(np.maximum(np.maximum(p - x, x - q), 0.0) * (1 + p))
        rows = np.array(rows)
        idx, vals, evals = self.search(rows)
        assert idx.tolist() == np.argmin(rows, axis=1).tolist()
        assert vals.tolist() == rows.min(axis=1).tolist()
        if n == 100:
            assert evals == 11


def _li_sweep(spec, alt, n_alpha=100, mu_count=100, cert_count=1000,
              max_iters=15, search_nz=ripr._SEARCH_NZ):
    """``li_approximate`` with every step's weight found by sweeping all of
    ``alphas`` on a ``search_nz``-node grid, each trace row and the
    certificate taken on the 3000-node certification grid from the density
    of the current components, normalized and heaviest first; returns the
    mixture, the trace and each step's (n_alpha, mu_count) KL objectives."""
    search = ripr._SumGrid(spec, alt, cert_count, n_z=search_nz)
    cert = ripr._SumGrid(spec, alt, cert_count)
    cand_mus = np.linspace(search.lo, search.hi, mu_count)
    alphas = np.linspace(0.0, 1.0, n_alpha)
    u = search.tilt_rows(cand_mus)

    def components(weights):
        comps = sorted(((w, mu) for mu, w in weights.items() if w > 0),
                       key=lambda t: -t[0])
        total = sum(w for w, _ in comps)
        return [w / total for w, _ in comps], [m for _, m in comps]

    def row(it, weights):
        d_cert = cert.mixture(*components(weights))
        kl = float(cert.kl(d_cert)) if alt.delta else 0.0
        return {"iter": it, "kl": kl, "sup_expectation": cert.sup(d_cert)[0]}

    weights = {float(alt.mu0_star): 1.0}
    d = search.tilt_rows([alt.mu0_star])[0].copy()
    trace = [row(1, weights)]
    objectives = []
    for it in range(2, max_iters + 1):
        if trace[-1]["sup_expectation"] <= ripr._STOP_SUP:
            break
        best = (np.inf, None, None)
        objs = []
        for a in alphas:
            obj = search.kl(a * d[None, :] + (1.0 - a) * u)
            objs.append(obj)
            j = int(np.argmin(obj))
            if obj[j] < best[0]:
                best = (float(obj[j]), a, j)
        objectives.append(np.array(objs))
        _, a, j = best
        weights = {mu: w * a for mu, w in weights.items()}
        mu_new = float(cand_mus[j])
        weights[mu_new] = weights.get(mu_new, 0.0) + (1.0 - a)
        d = a * d + (1.0 - a) * u[j]
        trace.append(row(it, weights))
    mix = ripr._certify(cert, *components(weights), "li")
    return mix, trace, objectives


def _brute2_sweep(spec, alt, n_alpha=100, mu_count=100, mu0_count=1000,
                  search_nz=ripr._SEARCH_NZ):
    """``brute_force_two_component`` with every pair's weight found by
    sweeping all of ``alphas`` on a ``search_nz``-node grid, certified on the
    3000-node grid; returns the mixture and the (pairs, n_alpha) coarse-row
    sups."""
    search = ripr._SumGrid(spec, alt, mu0_count, n_z=search_nz)
    comp_mus = np.linspace(search.lo, search.hi, mu_count)
    alphas = np.linspace(0.0, 1.0, n_alpha)
    u = search.tilt_rows(comp_mus)
    t_coarse = search.cert_rows()[:: ripr._COARSE_STRIDE].T
    sup_single = ((1.0 / u) @ t_coarse).max(axis=1)
    top = [(float(sup_single[i]), 1.0, i, i) for i in range(mu_count)]
    sups = []
    a_col = alphas[:, None]
    for i in range(mu_count):
        for j in range(i + 1, mu_count):
            d = a_col * u[i] + (1.0 - a_col) * u[j]
            sup = ((1.0 / d) @ t_coarse).max(axis=1)
            sups.append(sup)
            ai = int(np.argmin(sup))
            top.append((float(sup[ai]), float(alphas[ai]), i, j))
    top.sort(key=lambda t: t[0])

    def components(a, i, j):
        if i == j or a in (0.0, 1.0):
            return [1.0], [float(comp_mus[i if (i == j or a == 1.0) else j])]
        return [a, 1.0 - a], [float(comp_mus[i]), float(comp_mus[j])]

    ws, mus = min(
        (components(a, i, j) for _, a, i, j in top[: ripr._REFINE_TOP]),
        key=lambda c: search.sup(search.mixture(*c))[0],
    )
    cert = ripr._SumGrid(spec, alt, mu0_count)
    return ripr._certify(cert, ws, mus, "brute_force_2"), np.array(sups)


def _assert_discretely_convex(objectives):
    # rows are samples of a convex function of the weight, up to rounding;
    # NaN samples (a component tilt that underflows on the z grid) are skipped
    second = objectives[..., 2:] - 2 * objectives[..., 1:-1] + objectives[..., :-2]
    scale = np.fmax.reduce(np.abs(objectives), axis=-1, keepdims=True)
    assert not np.any(second < -1e-12 * scale)


def _oracle_problem(name, fixed, mus):
    spec = make_family(name, **fixed)
    if name == "beta_fixed_alpha":
        mus = [spec.mean_from_beta_mean(m) for m in mus]
    return spec, Alternative.from_means(spec, mus)


_ORACLE_ROWS = [
    ("bernoulli", {}, [0.5, 0.25]),
    ("gaussian_mean", {}, [0.3, -0.4]),
    ("poisson", {}, [1.0, 2.5]),
    ("exponential", {}, [0.5, 0.25]),
    ("gaussian_variance", {}, [0.5, 0.25]),
    ("geometric", {}, [10.0 / 3, 1.25]),
    ("beta_fixed_alpha", {}, [0.5, 0.25]),
    ("beta_fixed_alpha", {"alpha": 2.0}, [0.5, 0.25]),
]


class TestSearchesMatchFullSweep:
    # the Fibonacci bracket of the weight step returns the grid point of the
    # full sweep on the same search grid, also at weight grids of a Fibonacci
    # number of points and one past it, which pad the bracket
    @pytest.mark.parametrize("name,fixed,mus", _ORACLE_ROWS)
    def test_brute2(self, name, fixed, mus):
        spec, alt = _oracle_problem(name, fixed, mus)
        want, sups = _brute2_sweep(spec, alt, mu_count=20, mu0_count=200)
        got, _ = ripr.brute_force_two_component(spec, alt, mu_count=20,
                                                mu0_count=200)
        assert got.to_json_dict() == want.to_json_dict()
        _assert_discretely_convex(sups)

    @pytest.mark.parametrize("name,fixed,mus", _ORACLE_ROWS)
    def test_li(self, name, fixed, mus):
        spec, alt = _oracle_problem(name, fixed, mus)
        want, want_trace, objectives = _li_sweep(spec, alt, mu_count=20,
                                                 cert_count=200)
        got, trace = ripr.li_approximate(spec, alt, mu_count=20,
                                         cert_count=200)
        assert got.to_json_dict() == want.to_json_dict()
        assert trace == want_trace
        for obj in objectives:  # (n_alpha, mu_count): convex down each column
            _assert_discretely_convex(obj.T)

    @pytest.mark.parametrize("n_alpha", [35, 89])
    @pytest.mark.parametrize("name,fixed,mus", [_ORACLE_ROWS[3], _ORACLE_ROWS[7]])
    def test_brute2_padded_bracket(self, name, fixed, mus, n_alpha):
        spec, alt = _oracle_problem(name, fixed, mus)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            want, _ = _brute2_sweep(spec, alt, n_alpha, mu_count=20, mu0_count=200)
            got, _ = ripr.brute_force_two_component(spec, alt, n_alpha=n_alpha,
                                                    mu_count=20, mu0_count=200)
        assert got.to_json_dict() == want.to_json_dict()

    @pytest.mark.parametrize("n_alpha", [35, 89])
    @pytest.mark.parametrize("name,fixed,mus", [_ORACLE_ROWS[3], _ORACLE_ROWS[7]])
    def test_li_padded_bracket(self, name, fixed, mus, n_alpha):
        spec, alt = _oracle_problem(name, fixed, mus)
        want, want_trace, _ = _li_sweep(spec, alt, n_alpha, mu_count=20,
                                        cert_count=200)
        got, trace = ripr.li_approximate(spec, alt, n_alpha=n_alpha, mu_count=20,
                                         cert_count=200)
        assert got.to_json_dict() == want.to_json_dict()
        assert trace == want_trace


class TestTieRuleOnRealObjectives:
    # every NaN-free KL and coarse-sup row the two sweeps record is convex only
    # up to rounding, so equal and near-equal neighbours occur; the bracket
    # still returns np.argmin's index and value on each.  NaN rows are
    # skipped, as _assert_discretely_convex skips their NaN samples
    @pytest.mark.parametrize("name,fixed,mus", _ORACLE_ROWS)
    def test_bracket_returns_full_argmin(self, name, fixed, mus):
        spec, alt = _oracle_problem(name, fixed, mus)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            _, _, objectives = _li_sweep(spec, alt, mu_count=20, cert_count=200)
            _, sups = _brute2_sweep(spec, alt, mu_count=20, mu0_count=200)
        rows = np.concatenate([obj.T for obj in objectives] + [sups])
        rows = rows[~np.isnan(rows).any(axis=1)]
        assert rows.shape[0] >= 190  # brute2's pairs i < j at least
        idx, vals = ripr._convex_argmin(
            lambda i: np.take_along_axis(rows, i, axis=1), rows.shape[1], rows.shape[0])
        assert idx.tolist() == np.argmin(rows, axis=1).tolist()
        assert vals.tolist() == rows.min(axis=1).tolist()


class TestSearchGridResolution:
    # searching on the 400-node grid picks the mixture the same sweep picks
    # on the 3000-node certification grid; only the trace's KL may move, by
    # the order of the sums
    @pytest.mark.parametrize("name,fixed,mus", _ORACLE_ROWS)
    def test_brute2(self, name, fixed, mus):
        spec, alt = _oracle_problem(name, fixed, mus)
        want, _ = _brute2_sweep(spec, alt, mu_count=20, mu0_count=200,
                                search_nz=3000)
        got, _ = ripr.brute_force_two_component(spec, alt, mu_count=20,
                                                mu0_count=200)
        assert got.to_json_dict() == want.to_json_dict()

    @pytest.mark.parametrize("name,fixed,mus", _ORACLE_ROWS)
    def test_li(self, name, fixed, mus):
        spec, alt = _oracle_problem(name, fixed, mus)
        want, want_trace, _ = _li_sweep(spec, alt, mu_count=20, cert_count=200,
                                        search_nz=3000)
        got, trace = ripr.li_approximate(spec, alt, mu_count=20,
                                         cert_count=200)
        assert got.to_json_dict() == want.to_json_dict()
        assert [t["sup_expectation"] for t in trace] == \
            [t["sup_expectation"] for t in want_trace]
        assert [t["kl"] for t in trace] == pytest.approx(
            [t["kl"] for t in want_trace], rel=1e-13, abs=0.0)

    def test_certificate_stays_on_the_fine_grid(self, expo):
        # the pooled-mean point mixture carries edge mass on 400 nodes
        # (fraction ~2e-8 > 1e-8), so a certificate taken on the search grid
        # would refuse it
        spec, alt = expo
        mix, trace = ripr.li_approximate(spec, alt, max_iters=1)
        assert mix.components == ((1.0, alt.mu0_star),)
        assert mix.certificate.sup_expectation == trace[0]["sup_expectation"]
        with pytest.raises(ripr.ComputationError, match="edge mass fraction"):
            ripr.li_approximate(spec, alt, max_iters=1, n_z=ripr._SEARCH_NZ)


class TestSearchResult:
    """Both searches return (mixture, trace) through ``_Search.result``, and
    ``_Search.trace_row`` writes every trace row on the certification grid."""

    @pytest.mark.parametrize("name, mus", [
        ("exponential", [0.5, 0.25]), ("geometric", [10.0 / 3, 1.25]),
        ("gaussian_variance", [0.5, 0.25])])
    def test_brute2_row_is_kl_to_mixture_and_the_certificate(self, name, mus):
        # at default windows brute2's certification grid is the grid of
        # kl_to_mixture, which once wrote this row in 'ksev project'
        spec = make_family(name)
        alt = Alternative.from_means(spec, mus)
        mix, trace = ripr.brute_force_two_component(spec, alt, n_alpha=20, mu_count=20)
        assert trace == [{"iter": 1, "kl": ripr.kl_to_mixture(spec, alt, mix),
                          "sup_expectation": mix.certificate.sup_expectation}]

    @pytest.mark.parametrize("name, mus", [
        ("exponential", [0.5, 0.25]), ("geometric", [10.0 / 3, 1.25]),
        ("exponential", [0.4, 0.4])])
    def test_both_traces_share_keys_and_end_at_the_certificate(self, name, mus):
        spec = make_family(name)
        alt = Alternative.from_means(spec, mus)
        li, li_trace = ripr.li_approximate(spec, alt, max_iters=4)
        bf, bf_trace = ripr.brute_force_two_component(spec, alt, n_alpha=20,
                                                      mu_count=20)
        assert [list(row) for row in li_trace + bf_trace] == \
            [["iter", "kl", "sup_expectation"]] * (len(li_trace) + 1)
        # both last rows are computed on the certified components
        assert bf_trace[-1]["sup_expectation"] == bf.certificate.sup_expectation
        assert li_trace[-1]["sup_expectation"] == li.certificate.sup_expectation
        if not alt.delta:
            assert li_trace[0]["kl"] == bf_trace[0]["kl"] == 0.0


class TestCertRows:
    @pytest.mark.parametrize("name, fixed, mus", [
        ("geometric", {}, [10.0 / 3, 1.25]), ("gaussian_variance", {}, [0.5, 0.25]),
        ("exponential", {}, [0.5, 0.25]), ("poisson", {}, [5.0, 0.1]),
        ("beta_fixed_alpha", {"alpha": 2.0}, [-1.0, -0.5]),
        ("beta_fixed_alpha", {"alpha": 2.5}, [-1.0, -0.5]),
    ])
    def test_stored_row_is_the_rebuilt_tilt_row(self, name, fixed, mus):
        # check_edges reads its integrand from cert_rows(); a tilt row built
        # for one mean, times wm, has the same bits
        spec = make_family(name, **fixed)
        alt = Alternative.from_means(spec, mus)
        grid = ripr._SumGrid(spec, alt)
        rows = grid.cert_rows()
        for i in range(0, grid.mu0s.size, 37):
            assert np.array_equal(grid.tilt_rows([grid.mu0s[i]])[0] * grid.wm, rows[i])

    def test_edge_check_builds_no_tilt_row(self, expo, monkeypatch):
        spec, alt = expo
        grid = ripr._SumGrid(spec, alt, 200)
        d = grid.mixture([0.5, 0.5], [0.3, 0.45])
        sup, i = grid.sup(d)
        assert sup == float(grid.expectations(d)[i])
        monkeypatch.setattr(grid, "tilt_rows", lambda *a: pytest.fail("tilt row built"))
        grid.check_edges(d, i)
        coarse = ripr._SumGrid(spec, alt, 200, n_z=ripr._SEARCH_NZ)
        point = coarse.mixture([1.0], [alt.mu0_star])
        _, i = coarse.sup(point)
        with pytest.raises(ripr.ComputationError,
                           match=f"not converged at mu0={float(coarse.mu0s[i])}: "):
            coarse.check_edges(point, i)


class TestLogging:
    def test_silent_by_default(self):
        src = str(Path(ksample_evalues.__file__).resolve().parents[1])
        code = (
            "import logging\n"
            "from ksample_evalues import Alternative, make_family, ripr\n"
            "log = logging.getLogger('ksample_evalues')\n"
            "assert any(isinstance(h, logging.NullHandler) for h in log.handlers)\n"
            "log.setLevel(logging.DEBUG)\n"
            "spec = make_family('exponential')\n"
            "alt = Alternative.from_means(spec, [0.5, 0.25])\n"
            "ripr.li_approximate(spec, alt, max_iters=2, mu_count=5, "
            "cert_count=20, n_z=600)\n"
        )
        run = subprocess.run([sys.executable, "-c", code], cwd=src,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "" and run.stderr == ""

    def test_each_search_logs_both_grids(self, expo, caplog):
        spec, alt = expo
        caplog.set_level(logging.DEBUG, logger="ksample_evalues")
        ripr.li_approximate(spec, alt, max_iters=2, mu_count=5, cert_count=20,
                            n_z=600)
        ripr.brute_force_two_component(spec, alt, n_alpha=5, mu_count=5,
                                       mu0_count=20, n_z=600)
        records = [r for r in caplog.records if r.name == "ksample_evalues.ripr"]
        assert [r.levelno for r in records] == [logging.DEBUG] * 2
        for record, name in zip(records, ["li_approximate",
                                          "brute_force_two_component"]):
            msg = record.getMessage()
            assert msg.startswith(f"{name}: search grid 400 nodes, "
                                  "certification grid 600 nodes, ")
            assert "search " in msg and " s, certification " in msg
        # 5 candidates, one chunk, so one worker whatever the host; 100
        # weights take 11 evaluations per row, 5 take 4 (a bracket of width 5)
        assert ", 2 iterations, each weight table in 1 chunks on 1 workers, " \
            "11 evaluations per row, " in records[0].getMessage()
        # 5 means give 15 pairs, one chunk
        assert ", 15 candidates ranked in 1 chunks on 1 workers, " \
            "4 evaluations per row, 15 re-ranked, " in records[1].getMessage()

    def test_li_without_a_weight_step_names_no_table(self, expo, caplog):
        spec, alt = expo
        caplog.set_level(logging.DEBUG, logger="ksample_evalues")
        ripr.li_approximate(spec, alt, max_iters=1, mu_count=5, cert_count=20)
        assert ", 1 iterations, no weight table, " in caplog.records[-1].getMessage()


class TestCertificateReproduces:
    # worst_case_expectation on a certificate's own grid gives back the
    # certified sup and argmax exactly, also on the curve that delta = 0
    # makes flat to rounding
    @pytest.mark.parametrize(
        "name,mus",
        [
            ("exponential", [0.5, 0.25]),
            ("gaussian_variance", [0.5, 0.25]),
            ("geometric", [10.0 / 3, 1.25]),
            ("exponential", [0.4, 0.4]),
        ],
    )
    @pytest.mark.parametrize("search", ["li", "brute2"])
    def test_worst_case_on_certificate_grid(self, name, mus, search):
        spec = make_family(name)
        alt = Alternative.from_means(spec, mus)
        if search == "li":
            mix, _ = ripr.li_approximate(spec, alt, max_iters=4)
        else:
            mix, _ = ripr.brute_force_two_component(
                spec, alt, n_alpha=10, mu_count=10, mu0_count=200
            )
        cert = mix.certificate
        sup, argmax = ripr.worst_case_expectation(
            spec, alt, mix, count=cert.mu0_grid_size, lo=cert.mu0_lo,
            hi=cert.mu0_hi,
        )
        assert sup == cert.sup_expectation
        assert argmax == cert.argmax_mu0


class TestDefaultRange:
    def test_positive_family_expands_hull(self, expo):
        spec, alt = expo
        lo, hi = ripr.default_search_range(spec, alt)
        assert lo == pytest.approx(0.125)
        assert hi == pytest.approx(1.0)

    def test_negative_family_mirrors(self):
        spec = make_family("beta_fixed_alpha")
        alt = Alternative.from_means(spec, [-1.0, -1.0 / 3])
        lo, hi = ripr.default_search_range(spec, alt)
        assert lo < -1.0 < -1.0 / 3 < hi < 0

    def test_bernoulli_stays_inside_unit_interval(self):
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        lo, hi = ripr.default_search_range(spec, alt)
        assert 0 < lo < 0.25 and 0.5 < hi < 1

    @pytest.mark.parametrize(
        "name,fixed,mus,want",
        [
            # bounded: halfway to each boundary
            ("bernoulli", {}, [0.6, 0.2], (0.1, 0.8)),
            # (0, inf): x1/2 and x2
            ("poisson", {}, [3.0, 1.0], (0.5, 6.0)),
            # (-inf, 0): x2 and x1/2
            ("beta_fixed_alpha", {"alpha": 2.0}, [-3.0, -1.0], (-6.0, -0.5)),
            # whole line: two standard deviations plus the span
            ("gaussian_mean", {"sigma2": 0.25}, [1.0, -1.0], (-4.0, 4.0)),
        ],
    )
    def test_rule_read_off_the_mean_space(self, name, fixed, mus, want):
        spec = make_family(name, **fixed)
        alt = Alternative.from_means(spec, mus)
        assert ripr.default_search_range(spec, alt) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("shape", [(), (64,), (4, 5, 3)], ids=["scalar", "n", "TBk"])
@pytest.mark.parametrize("c", [1, 2, 3, 14, 40])
def test_log_sum_of_tilts_matches_logsumexp(c, shape):
    rng = np.random.default_rng(c)
    # terms of one size, so that the order of their sum shows in its bits
    lams, offsets = rng.normal(size=c), rng.normal(size=c)
    z = rng.normal(size=shape)
    got = ripr._log_sum_of_tilts(lams, offsets, z)
    want = special.logsumexp(lams * z[..., None] - offsets, axis=-1)
    assert np.shape(got) == shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
    # bit for bit the formula with the component axis last
    logs = lams * z[..., None] - offsets
    mx = logs.max(axis=-1)
    trailing = mx + np.log(np.sum(np.exp(logs - mx[..., None]), axis=-1))
    assert np.array_equal(got, trailing)
