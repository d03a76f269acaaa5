"""Memory weights and history sums against independent quadrature oracles."""

import math

import numpy as np
import pytest

from conftest import kernel_integral_pwl, params_for
from fracstefan import errors, fracquad, scheme

# _step_weights reads only a grid's phase; the weights come from the table passed
LIQUID, SOLID = (scheme.make_phase_grid(phase, 0.7, scheme.MeshConfig(m1=2, m2=2, n=1),
                                        params_for(0, 0.5)) for phase in (1, 2))


def split_row(k, alpha, dtau):
    """The solid's split-start weights of the step to level k+1, from a table of step dtau."""
    return scheme._step_weights(SOLID, fracquad.lag_table(k, alpha, dtau), k)


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

    @pytest.mark.parametrize("k", [1.5, 2.0, np.float64(2.0), "2"])
    def test_rejects_non_integral_step_count(self, k):
        # a fractional count gave NaN weights (a negative base in the interior
        # factor), an integral float a TypeError from np.empty
        for weights in (lambda: fracquad.trap_weights(k, 0.5, 0.1),
                        lambda: fracquad.lag_table(k, 0.5, 0.1)):
            with pytest.raises(errors.InvalidInputError, match="must be an integer"):
                weights()

    def test_accepts_numpy_integer_step_count(self):
        c = fracquad.trap_weights(3, 0.5, 0.1).c
        assert np.array_equal(fracquad.trap_weights(np.int64(3), 0.5, 0.1).c, c)
        table = fracquad.lag_table(np.int32(5), 0.5, 0.1)
        assert np.array_equal(scheme._step_weights(LIQUID, table, np.int64(3)), c)

    def test_tables_are_cached_and_read_only(self):
        # the stepper reads every advance's weights from one table per
        # (n, alpha, dtau), so no caller may write into it
        table = fracquad.lag_table(40, 0.5, 0.025)
        assert fracquad.lag_table(40, 0.5, 0.025) is table
        assert fracquad.lag_table(np.int64(40), 0.5, 0.025) is table
        for array in (table.interior, table.first, table.half):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert table.first[7] == fracquad.trap_weights(7, 0.5, 0.025).c[0]
        assert table.half[7] == fracquad.half_weight(8.0, 0.5, 0.025)

    def test_rejects_infinite_dtau(self):
        # an infinite step would give all-inf trapezoid rows and NaN split rows
        with pytest.raises(errors.InvalidInputError, match="dtau"):
            fracquad.trap_weights(3, 0.5, math.inf)
        with pytest.raises(errors.InvalidInputError, match="dtau"):
            fracquad.lag_table(3, 0.5, math.inf)


class TestSplitStartWeights:
    """Two right-endpoint half-steps over [0, dtau], product trapezoid after."""

    @staticmethod
    def oracle(f_half, nodes, alpha, dtau):
        # nodes[0] stands in for the half-level sample, which the oracle
        # takes as f_half: level 0 carries no weight.  Constant nodes[1] over
        # [0, dtau] is piecewise linear, so the trapezoid oracle covers it;
        # the first half-interval is then corrected to f_half exactly.
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
        c = split_row(k, alpha, dtau)
        nodes = rng.standard_normal(k + 2)
        f_half = rng.standard_normal()
        nodes[0] = f_half
        got = float(np.dot(c, nodes))
        assert c[0] == fracquad.half_weight(k + 1.0, alpha, dtau)
        assert got == pytest.approx(self.oracle(f_half, nodes, alpha, dtau), rel=1e-10)

    def test_first_half_step_weight(self):
        # the half-step's own weight: integral_0^{dtau/2} (dtau/2 - xi)**(alpha-1)
        alpha, dtau = 0.6, 0.2
        assert fracquad.half_weight(0.5, alpha, dtau) == pytest.approx(
            (dtau / 2.0) ** alpha / alpha, rel=1e-14)

    @pytest.mark.parametrize("alpha, dtau", [(1.0, math.nan), (0.5, -1.0), (0.5, 0.0),
                                             (0.5, math.inf), (1.5, 0.1), (0.0, 0.1),
                                             (math.nan, 0.1)])
    def test_half_weight_rejects_alpha_and_dtau_as_lag_table(self, alpha, dtau):
        # nan, complex, out-of-range values and ZeroDivisionError without the check
        with pytest.raises(errors.InvalidInputError):
            fracquad.half_weight(0.5, alpha, dtau)
        with pytest.raises(errors.InvalidInputError):
            fracquad.lag_table(0, alpha, dtau)

    @pytest.mark.parametrize("target", [math.inf, math.nan, 0.25, -1.0])
    def test_half_weight_rejects_target(self, target):
        # an infinite target returned nan (inf * 0)
        with pytest.raises(errors.InvalidInputError, match="target"):
            fracquad.half_weight(target, 0.5, 1.0)

    def test_alpha_one_is_backward_euler_pair(self):
        dtau = 0.3
        c = split_row(0, 1.0, dtau)
        np.testing.assert_allclose(c, [dtau / 2.0, dtau / 2.0], rtol=1e-14)

    def test_matches_trapezoid_beyond_first_interval(self):
        c = split_row(9, 0.5, 0.05)
        np.testing.assert_array_equal(c[2:], fracquad.trap_weights(9, 0.5, 0.05).c[2:])

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_new_level_weight_is_pref_but_in_split_first_step(self, alpha):
        # the stepper forms every step's implicit weight c[k+1] from this
        table = fracquad.lag_table(40, alpha, 0.05)
        assert fracquad.trap_weights(0, alpha, 0.05).c[-1] == table.pref
        for k in range(1, 41):
            assert (fracquad.trap_weights(k, alpha, 0.05).c[-1]
                    == scheme._step_weights(SOLID, table, k)[-1] == table.pref)
