import importlib.util
import inspect
import math
import os
import subprocess
import sys
import tomllib
from importlib.resources import files
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from ksample_evalues import Alternative, _quad, make_family, ripr
from ksample_evalues import evariables as ev
from ksample_evalues import growth as gr

ROOT = Path(__file__).resolve().parents[1]


def stored_table():
    """{n: (x, w)} for every rule of the shipped table."""
    with np.load(files("ksample_evalues") / _quad._TABLE, allow_pickle=False) as t:
        sizes = sorted(int(key[1:]) for key in t.files if key[0] == "x")
        return {n: (t[f"x{n}"], t[f"w{n}"]) for n in sizes}


def legendre_reference(n, x0, dps=40):
    """Gauss-Legendre node near x0 and its weight, by Newton's method on the
    three-term recurrence at ``dps`` significant digits."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(float(x0))

        def p_and_dp(x):
            p0, p1 = mpmath.mpf(1), x
            for m in range(2, n + 1):
                p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
            return p1, n * (x * p1 - p0) / (x * x - 1)

        for _ in range(50):
            p, dp = p_and_dp(x)
            step = p / dp
            x -= step
            if abs(step) < mpmath.mpf(10) ** (5 - dps):
                break
        p, dp = p_and_dp(x)
        return x, 2 / ((1 - x * x) * dp * dp)


class TestLegendreNodes:
    @pytest.mark.parametrize("n", [5, 64, 2048, 4096])
    def test_against_high_precision_reference(self, n):
        x, w = _quad._leggauss(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0)
        assert w.sum() == pytest.approx(2.0, abs=1e-13)
        for i in sorted({0, 1, n // 4, n // 2, n - 2, n - 1}):
            xr, wr = legendre_reference(n, x[i])
            assert abs(float(x[i] - xr)) <= 2e-16, i
            assert abs(float((w[i] - wr) / wr)) <= 5e-7, i

    @pytest.mark.parametrize("n", [5, 64, 2048, 4096])
    def test_matches_numpy_leggauss(self, n):
        x, w = _quad._leggauss(n)
        xn, wn = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - xn)) <= 1e-15
        assert np.max(np.abs(w - wn)) <= 1e-12

    def test_cached_arrays_are_read_only(self):
        x, w = _quad._leggauss(7)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w *= 2.0
        x2, w2 = _quad._leggauss(7)
        assert x2 is x and w2 is w
        assert w.sum() == pytest.approx(2.0, abs=1e-15)


class TestLegendreTable:
    """The shipped rules are roots_legendre's, bit for bit, and cover every
    default size, so no default grid builds one."""

    def test_stored_rules_are_roots_legendre_bitwise(self):
        for n, (x, w) in stored_table().items():
            xr, wr = special.roots_legendre(n)
            assert x.dtype == w.dtype == np.float64
            assert np.array_equal(x, xr) and np.array_equal(w, wr), (
                f"stored n={n} differs from this SciPy's roots_legendre; "
                "rewrite the table with tools/leggauss_table.py")

    def test_every_default_size_is_stored(self):
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        defaults = {ripr._SEARCH_NZ, gr._GAP_NODES,
                    default(ripr._SumGrid.__init__, "n_z"),
                    default(_quad.sum_nodes, "n"),
                    default(ev.null_expectation_profile, "n")}
        assert defaults <= set(stored_table())

    @pytest.fixture
    def no_build(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"roots_legendre({n}) built a rule")

        _quad._leggauss.cache_clear()
        monkeypatch.setattr(special, "roots_legendre", refuse)
        yield
        _quad._leggauss.cache_clear()

    def test_default_grids_build_no_rule(self, no_build):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        ripr._SumGrid(spec, alt, count=5)
        assert gr.growth_rate(spec, alt, "cond").rate > 0.0
        beta = make_family("beta_fixed_alpha", alpha=2.5)
        assert gr.coeff_cond_gap(beta, beta.mean_from_beta_mean(0.3)).value > 0.0
        assert _quad._leggauss.cache_info().misses >= 2

    def test_other_sizes_are_built(self, no_build):
        with pytest.raises(AssertionError, match=r"roots_legendre\(5\)"):
            _quad._leggauss(5)

    def test_table_is_package_data(self):
        with open(ROOT / "pyproject.toml", "rb") as f:
            package_data = tomllib.load(f)["tool"]["setuptools"]["package-data"]
        assert _quad._TABLE in package_data["ksample_evalues"]
        assert (files("ksample_evalues") / _quad._TABLE).is_file()

    def test_check_names_stale_sizes_and_writes_nothing(self, tmp_path, monkeypatch,
                                                        capsys):
        spec = importlib.util.spec_from_file_location(
            "leggauss_table", ROOT / "tools" / "leggauss_table.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        arrays = {f"{key}{n}": a for n, rule in stored_table().items()
                  for key, a in zip("xw", rule)}
        arrays["w400"] = np.nextafter(arrays["w400"], 0.0)
        del arrays["x3000"]
        stale = tmp_path / "stale.npz"
        np.savez(stale, **arrays)
        before = stale.read_bytes()
        monkeypatch.setattr(tool, "TABLE", stale)
        assert tool.main(["--check"]) == 1
        assert "n = 400, 3000;" in capsys.readouterr().err
        assert stale.read_bytes() == before


def test_cli_import_leaves_out_scipy_linalg():
    # only _quad._jacobi01 needs it, and imports it when first called
    code = "import sys, ksample_evalues.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.strip() == "False"


class TestJacobiNodes:
    @pytest.mark.parametrize("z", [0.3, 7.0, -2.5])
    def test_absorbs_inverse_square_root_endpoint(self, z):
        # the integral of |x|^(-1/2) between 0 and z is 2 sqrt(|z|)
        x, w = _quad.jacobi_nodes([z], 160, 0.5, 1.0)
        assert x.shape == w.shape == (1, 160)
        assert np.all(np.abs(x) < abs(z)) and np.all(x * z > 0)
        got = np.sum(w / np.sqrt(np.abs(x)), axis=1)[0]
        assert got == pytest.approx(2.0 * math.sqrt(abs(z)), rel=1e-14)

    @pytest.mark.parametrize("a,b", [(0.3, 0.3), (0.3, 0.6), (0.5, 1.5), (2.0, 5.0)])
    def test_absorbs_both_endpoints(self, a, b):
        # the integral of x^(a-1) (z-x)^(b-1) e^-x between 0 and z, against
        # adaptive quadrature with the algebraic weight.  scipy's roots_jacobi
        # weights miss it by up to 5e-12 at 160 nodes; Golub-Welsch's do not
        z = 3.0
        x, w = _quad.jacobi_nodes([z], 160, a, b)
        got = np.sum(w * x ** (a - 1) * (z - x) ** (b - 1) * np.exp(-x))
        want, _ = integrate.quad(lambda t: np.exp(-t), 0.0, z, weight="alg",
                                 wvar=(a - 1, b - 1), epsabs=0, epsrel=1e-13)
        assert got == pytest.approx(want, rel=1e-13)

    def test_callers_use_cached_nodes(self, monkeypatch):
        # the convolution of beta with non-integer alpha and the conditional
        # second moment take nodes from the cache, never from numpy's build
        def refuse(n):
            raise AssertionError("numpy leggauss called")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        beta = make_family("beta_fixed_alpha", alpha=2.5)
        assert np.all(np.isfinite(beta.sum_log_pdf([-0.8, -0.3], np.array([-1.1, -0.4]))))
        assert gr.coeff_cond_gap(beta, -0.5).value > 0
