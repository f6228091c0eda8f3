import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from ksample_evalues import _quad, make_family
from ksample_evalues import growth as gr


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
