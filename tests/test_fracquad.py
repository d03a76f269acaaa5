"""Memory weights and history sums against independent quadrature oracles."""

import math

import numpy as np
import pytest

from conftest import kernel_integral_pwl
from fracstefan import errors, fracquad


class TestTrapWeights:
    def test_k0_closed_forms(self):
        alpha, dtau = 0.6, 0.2
        w = fracquad.trap_weights(0, alpha, dtau)
        assert w.c[0] == pytest.approx(dtau ** alpha / (alpha + 1.0), rel=1e-14)
        assert w.c[1] == pytest.approx(dtau ** alpha / (alpha * (alpha + 1.0)), rel=1e-14)
        assert w.c.sum() == pytest.approx(dtau ** alpha / alpha, rel=1e-14)

    @pytest.mark.parametrize("k", [0, 1, 4, 25])
    def test_alpha_one_is_classical_trapezoid(self, k):
        dtau = 0.37
        c = fracquad.trap_weights(k, 1.0, dtau).c
        expected = np.full(k + 2, dtau)
        expected[0] = expected[-1] = dtau / 2.0
        np.testing.assert_allclose(c, expected, rtol=1e-14)

    def test_hat_basis_oracle_small(self):
        # each weight is the kernel integral of one nodal hat function
        k, alpha, dtau = 3, 0.5, 0.1
        c = fracquad.trap_weights(k, alpha, dtau).c
        for j in range(k + 2):
            hat = np.zeros(k + 2)
            hat[j] = 1.0
            assert c[j] == pytest.approx(kernel_integral_pwl(hat, alpha, dtau), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("k", [0, 1, 5, 50, 399])
    def test_piecewise_linear_exactness(self, alpha, k, rng):
        dtau = 0.01
        c = fracquad.trap_weights(k, alpha, dtau).c
        nodes = rng.standard_normal(k + 2)
        got = float(np.dot(c, nodes))
        expected = kernel_integral_pwl(nodes, alpha, dtau)
        assert got == pytest.approx(expected, rel=1e-11)

    def test_weight_sum_identity(self):
        for alpha in (0.25, 0.5, 0.75, 1.0):
            for k in (0, 3, 100):
                w = fracquad.trap_weights(k, alpha, 0.05)
                tau_target = (k + 1) * 0.05
                assert float(w.c.sum()) == pytest.approx(tau_target ** alpha / alpha, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 37, 400, 2000, 10000])
    def test_positivity(self, alpha, k):
        c = fracquad.trap_weights(k, alpha, 0.01).c
        assert (c > 0.0).all()

    def test_stabilized_branch_matches_exact_integration(self):
        # lags beyond SERIES_LAG take the binomial-series path
        k, alpha, dtau = 2000, 0.5, 1e-3
        c = fracquad.trap_weights(k, alpha, dtau).c
        for j in (0, 1, 2, k // 2):
            hat = np.zeros(k + 2)
            hat[j] = 1.0
            assert c[j] == pytest.approx(kernel_integral_pwl(hat, alpha, dtau), rel=1e-10)

    def test_fractional_integral_of_power(self):
        # quadrature / Gamma(alpha) applied to t**beta approximates
        # Gamma(beta+1)/Gamma(beta+1+alpha) * t**(beta+alpha)
        alpha, beta, n, dtau = 0.5, 2.0, 2000, 1e-3
        c = fracquad.trap_weights(n - 1, alpha, dtau).c
        t = np.arange(n + 1) * dtau
        got = float(np.dot(c, t ** beta)) / math.gamma(alpha)
        t_final = n * dtau
        expected = math.gamma(beta + 1.0) / math.gamma(beta + 1.0 + alpha) \
            * t_final ** (beta + alpha)
        assert got == pytest.approx(expected, rel=1e-4)

    @pytest.mark.parametrize("alpha", [0.0, 1.5, -0.3])
    def test_rejects_alpha_outside_range(self, alpha):
        with pytest.raises(errors.InvalidInputError):
            fracquad.trap_weights(3, alpha, 0.1)

    def test_rejects_bad_dtau_and_k(self):
        with pytest.raises(errors.InvalidInputError):
            fracquad.trap_weights(3, 0.5, 0.0)
        with pytest.raises(errors.InvalidInputError):
            fracquad.trap_weights(-1, 0.5, 0.1)


class TestSplitStartWeights:
    """Two right-endpoint half-steps over [0, dtau], product trapezoid after."""

    @staticmethod
    def oracle(f_half, nodes, alpha, dtau):
        # nodes[0] is unused: level 0 carries no weight.  Constant nodes[1]
        # over [0, dtau] is piecewise linear, so the trapezoid oracle covers
        # it; the first half-interval is then corrected to f_half exactly.
        import mpmath as mp

        flat = np.array(nodes, dtype=float)
        flat[0] = flat[1]
        with mp.workdps(40):
            t = (len(nodes) - 1) * mp.mpf(dtau)
            a = mp.mpf(alpha)
            first_half = (t ** a - (t - mp.mpf(dtau) / 2) ** a) / a
            correction = (mp.mpf(float(f_half)) - mp.mpf(float(flat[1]))) * first_half
            return kernel_integral_pwl(flat, alpha, dtau) + float(correction)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("k", [0, 1, 5, 399, 2000])
    def test_exact_on_split_start_samples(self, alpha, k, rng):
        dtau = 0.01
        c, w_half = fracquad.split_start_weights(k, alpha, dtau)
        nodes = rng.standard_normal(k + 2)
        f_half = rng.standard_normal()
        got = float(np.dot(c, nodes)) + w_half * f_half
        assert c[0] == 0.0
        assert got == pytest.approx(self.oracle(f_half, nodes, alpha, dtau), rel=1e-10)

    def test_first_half_step_weight(self):
        # the half-step's own weight: integral_0^{dtau/2} (dtau/2 - xi)**(alpha-1)
        alpha, dtau = 0.6, 0.2
        assert fracquad.half_weight(0.5, alpha, dtau) == pytest.approx(
            (dtau / 2.0) ** alpha / alpha, rel=1e-14)

    def test_alpha_one_is_backward_euler_pair(self):
        dtau = 0.3
        c, w_half = fracquad.split_start_weights(0, 1.0, dtau)
        np.testing.assert_allclose(c, [0.0, dtau / 2.0], rtol=1e-14)
        assert w_half == pytest.approx(dtau / 2.0, rel=1e-14)

    def test_matches_trapezoid_beyond_first_interval(self):
        c, _ = fracquad.split_start_weights(9, 0.5, 0.05)
        np.testing.assert_array_equal(c[2:], fracquad.trap_weights(9, 0.5, 0.05).c[2:])
