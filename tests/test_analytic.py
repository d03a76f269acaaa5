"""Similarity solution and the front-coefficient equation."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALPHAS, P_EXACT_REF, ROWS, params_for
from fracstefan import analytic, errors, specfun


class TestPhysicalParams:
    def test_rejects_bad_alpha_and_positive_theta(self):
        with pytest.raises(errors.InvalidInputError) as excinfo:
            analytic.PhysicalParams(alpha=1.5, theta_inf=0.2)
        message = str(excinfo.value)
        assert "alpha" in message and "theta_inf" in message

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(errors.InvalidInputError, match="kappa1"):
            analytic.PhysicalParams(alpha=0.5, kappa1=0.0)

    @pytest.mark.parametrize("key", ["kappa1", "kappa2", "lambda1", "lambda2", "theta_inf"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, key, value):
        with pytest.raises(errors.InvalidInputError, match=key):
            analytic.PhysicalParams(alpha=0.5, **{key: value})


class TestTranscendentalResidual:
    @pytest.mark.parametrize("row,p", [(0, 0.9397), (1, 0.7555)])
    def test_reference_roots_nearly_annihilate(self, row, p):
        params = params_for(row, 1.0)
        assert abs(analytic.transcendental_residual(p, params)) < 1e-3

    @pytest.mark.parametrize("row", range(len(ROWS)))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_sign_change_on_default_bracket(self, row, alpha):
        params = params_for(row, alpha)
        lo = analytic.transcendental_residual(0.1, params)
        hi = analytic.transcendental_residual(2.0, params)
        assert lo * hi < 0.0

    def test_rejects_nonpositive_p(self):
        with pytest.raises(errors.InvalidInputError):
            analytic.transcendental_residual(0.0, params_for(0, 0.5))

    def test_alpha_one_matches_wright_route_near_one(self):
        # the erfc dispatch and the series route agree at the root
        for row in range(len(ROWS)):
            params_series = params_for(row, 1.0 - 1e-6)
            params_classic = params_for(row, 1.0)
            p = P_EXACT_REF[(row, 1.0)]
            r_series = analytic.transcendental_residual(p, params_series)
            r_classic = analytic.transcendental_residual(p, params_classic)
            assert abs(r_series - r_classic) <= 1e-3


class TestSolvePExact:
    @pytest.mark.parametrize("row,alpha,expected,tol", [
        (0, 1.0, 0.9397, 5e-5),
        (0, 0.5, 0.7472, 5e-4),
        (2, 0.25, 0.7218, 5e-4),
    ])
    def test_published_reference_values(self, row, alpha, expected, tol):
        p = analytic.solve_p_exact(params_for(row, alpha), tol=1e-10)
        assert p == pytest.approx(expected, abs=tol)

    @pytest.mark.parametrize("row", range(len(ROWS)))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_high_precision_reference(self, row, alpha):
        p = analytic.solve_p_exact(params_for(row, alpha), tol=1e-10)
        assert p == pytest.approx(P_EXACT_REF[(row, alpha)], abs=5e-9)

    def test_no_sign_change(self):
        with pytest.raises(errors.NoSignChangeError):
            analytic.solve_p_exact(params_for(0, 1.0), bracket=(1.5, 2.0))

    def test_monotone_in_alpha(self):
        for row in range(len(ROWS)):
            roots = [analytic.solve_p_exact(params_for(row, a)) for a in ALPHAS]
            assert roots == sorted(roots)

    def test_one_phase_reduction_continuous(self):
        # the solid-side term vanishes with theta_inf; the root moves
        # continuously onto the one-phase value
        import dataclasses
        base = params_for(0, 0.5)
        p_zero = analytic.solve_p_exact(dataclasses.replace(base, theta_inf=0.0))
        p_near = analytic.solve_p_exact(dataclasses.replace(base, theta_inf=-1e-9))
        assert p_near == pytest.approx(p_zero, abs=1e-6)


class TestTemperatures:
    @pytest.fixture
    def sol_classic(self):
        return analytic.ExactSolution(0.9397, params_for(0, 1.0))

    @pytest.fixture
    def sol_frac(self):
        params = params_for(0, 0.5)
        return analytic.ExactSolution(analytic.solve_p_exact(params), params)

    def test_hot_boundary(self, sol_classic, sol_frac):
        assert analytic.u1_exact(0.0, 1.0, sol_classic) == 1.0
        assert analytic.u1_exact(0.0, 2.5, sol_frac) == 1.0

    def test_interface_both_sides(self, sol_frac):
        s = analytic.front_exact(1.7, sol_frac)
        assert analytic.u1_exact(s, 1.7, sol_frac) == pytest.approx(0.0, abs=1e-12)
        assert analytic.u2_exact(s, 1.7, sol_frac) == pytest.approx(0.0, abs=1e-12)

    def test_liquid_frozen_value(self, sol_classic):
        got = analytic.u1_exact(0.5, 1.0, sol_classic)
        assert got == pytest.approx(0.4401921267922372, rel=1e-12)

    def test_solid_frozen_value(self):
        sol = analytic.ExactSolution(0.7555, params_for(1, 1.0))
        got = analytic.u2_exact(2.0, 1.0, sol)
        assert got == pytest.approx(-0.3674124377290576, rel=1e-12)

    def test_solid_far_field_limit(self, sol_frac):
        # largest argument where the series still converges comfortably
        got = analytic.u2_exact(8.0, 1.0, sol_frac)
        theta = sol_frac.params.theta_inf
        assert got == pytest.approx(theta, abs=5e-3 * abs(theta))

    def test_domain_errors(self, sol_classic):
        s = analytic.front_exact(1.0, sol_classic)
        with pytest.raises(errors.DomainError):
            analytic.u1_exact(s + 0.1, 1.0, sol_classic)
        with pytest.raises(errors.DomainError):
            analytic.u2_exact(s - 0.1, 1.0, sol_classic)
        with pytest.raises(errors.DomainError):
            analytic.u1_exact(0.1, 0.0, sol_classic)

    @pytest.mark.parametrize("row", range(len(ROWS)))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_liquid_profile_monotone_in_x(self, row, alpha):
        params = params_for(row, alpha)
        sol = analytic.ExactSolution(P_EXACT_REF[(row, alpha)], params)
        tau = 1.3
        s = analytic.front_exact(tau, sol)
        values = [analytic.u1_exact(s * i / 60.0, tau, sol) for i in range(61)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_classical_vectorized_forms_match_scalar(self, sol_classic):
        import numpy as np

        x = np.linspace(0.0, analytic.front_exact(1.0, sol_classic), 7)
        vec = analytic.u1_classical(x, 1.0, sol_classic.p, 1.0)
        for xi, vi in zip(x, vec):
            assert analytic.u1_exact(float(xi), 1.0, sol_classic) == pytest.approx(vi, rel=1e-13)

        x = np.linspace(analytic.front_exact(1.0, sol_classic), 6.0, 7)
        theta = sol_classic.params.theta_inf
        vec = analytic.u2_classical(x, 1.0, sol_classic.p, 1.0, theta)
        for xi, vi in zip(x, vec):
            assert analytic.u2_exact(float(xi), 1.0, sol_classic) == pytest.approx(vi, rel=1e-13)

    def test_front_values_evaluated_once(self, monkeypatch):
        calls = []
        wright = specfun.wright

        def counted(*args, **kwargs):
            calls.append(args)
            return wright(*args, **kwargs)

        monkeypatch.setattr(specfun, "wright", counted)
        sol = analytic.ExactSolution(P_EXACT_REF[(0, 0.5)], params_for(0, 0.5))
        s = analytic.front_exact(1.0, sol)
        n = 6
        for i in range(n):
            analytic.u1_exact(s * i / n, 1.0, sol)
            analytic.u2_exact(s * (1.0 + i / n), 1.0, sol)
        # one Wright value per point, plus the two front values once
        assert len(calls) == 2 * n + 2

    def test_failed_front_value_raises_on_every_call(self):
        # W(-40; -1/4, 1) does not converge; nothing is kept, so each call raises
        sol = analytic.ExactSolution(40.0, params_for(0, 0.5))
        for _ in range(2):
            with pytest.raises(errors.NonConvergenceError):
                analytic.u1_exact(0.0, 1.0, sol)


def _inline_front_values(sol):
    # the front values as ExactSolution wrote them out before _similarity
    a = sol.params.alpha
    sq = (math.sqrt(sol.params.kappa1), math.sqrt(sol.params.kappa2))
    if a == 1.0:
        return tuple(specfun.erfc(sol.p / (2.0 * s)) for s in sq)
    return tuple(specfun.wright(-sol.p / s, -a / 2.0, 1.0) for s in sq)


def _inline_point(x, tau, kappa, a):
    # the point value as u1_exact and u2_exact wrote it out before _similarity
    if a == 1.0:
        return specfun.erfc(x / (2.0 * math.sqrt(kappa * tau)))
    sq = math.sqrt(kappa)
    return specfun.wright(-x / (sq * tau ** (a / 2.0)), -a / 2.0, 1.0)


def _inline_u1(x, tau, sol):
    den = _inline_front_values(sol)[0] - 1.0
    num = _inline_point(x, tau, sol.params.kappa1, sol.params.alpha) - 1.0
    return 1.0 - num / den


def _inline_u2(x, tau, sol):
    w_front = _inline_front_values(sol)[1]
    w_here = _inline_point(x, tau, sol.params.kappa2, sol.params.alpha)
    return sol.params.theta_inf * (w_front - w_here) / w_front


def _bits_or_error(fn, *args):
    try:
        return struct.pack("<d", fn(*args))
    except errors.FracStefanError as exc:
        return type(exc)


class TestSimilarityProfileBitForBit:
    @pytest.mark.parametrize("row", [0, 2])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_matches_inline_forms(self, row, alpha):
        sol = analytic.ExactSolution(P_EXACT_REF[(row, alpha)], params_for(row, alpha))
        assert sol.front_values == _inline_front_values(sol)
        failures = 0
        for tau in (0.01, 0.3, 1.0, 1.7, 4.0):
            s = analytic.front_exact(tau, sol)
            for i in range(21):
                x = s * i / 20.0
                assert (_bits_or_error(analytic.u1_exact, x, tau, sol)
                        == _bits_or_error(_inline_u1, x, tau, sol)), (x, tau)
            # from the front out to the far field, where the series gives up
            for x in [s * (1.0 + i / 10.0) for i in range(11)] + [8.0, 15.0, 30.0, 60.0]:
                if x < s:
                    continue
                got = _bits_or_error(analytic.u2_exact, x, tau, sol)
                assert got == _bits_or_error(_inline_u2, x, tau, sol), (x, tau)
                failures += got is errors.NonConvergenceError
        assert (failures > 0) == (alpha < 1.0)


class TestFrontExact:
    def test_start_and_unit_time(self):
        sol = analytic.ExactSolution(0.77, params_for(0, 0.5))
        assert analytic.front_exact(0.0, sol) == 0.0
        assert analytic.front_exact(1.0, sol) == pytest.approx(0.77)

    def test_reference_crossing_time(self):
        sol = analytic.ExactSolution(0.7053, params_for(0, 0.25))
        assert analytic.front_exact(16.329, sol) == pytest.approx(1.0, abs=2e-3)

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=0.01, max_value=10.0),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_power_law_scaling(self, c, tau, alpha):
        sol = analytic.ExactSolution(0.9, params_for(0, alpha))
        lhs = analytic.front_exact(c * tau, sol)
        rhs = c ** (alpha / 2.0) * analytic.front_exact(tau, sol)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_negative_time(self):
        sol = analytic.ExactSolution(0.9, params_for(0, 0.5))
        with pytest.raises(errors.DomainError):
            analytic.front_exact(-1.0, sol)


class TestThetaInfReconstruction:
    def test_independent_rows_agree(self):
        # fitting the far-field temperature from the classical-limit roots of
        # two parameter rows must give the same value; this is the guard on
        # the -0.5 default
        from scipy.optimize import brentq

        fits = []
        for row, p in ((0, 0.9397), (1, 0.7555)):
            l1, l2, k1, k2 = ROWS[row]

            def residual(theta):
                params = analytic.PhysicalParams(
                    alpha=1.0, lambda1=l1, lambda2=l2, kappa1=k1, kappa2=k2,
                    theta_inf=theta)
                return analytic.transcendental_residual(p, params)

            fits.append(brentq(residual, -0.9, -0.1, xtol=1e-12))
        assert abs(fits[0] - fits[1]) < 0.01
        assert fits[0] == pytest.approx(-0.5, abs=0.01)
