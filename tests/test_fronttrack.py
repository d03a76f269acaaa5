"""Discrete interface energy balance and the front-coefficient bisection."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_row, params_for, split_rule
from fracstefan import analytic, errors, fracquad, fronttrack, scheme

MESH = scheme.MeshConfig(m1=20, m2=60, n=40, ratio=10.0)
PROD_MESH = scheme.MeshConfig()


def replace_candidate_solve(monkeypatch, residual):
    """Let every bisection candidate p cost residual(p) instead of a grid solve."""
    monkeypatch.setattr(fronttrack, "_solve_candidate",
                        lambda p, params, mesh, *_: (residual(p), None))


def advanced_pair(p, mesh, params):
    g1 = scheme.advance_phase(scheme.make_phase_grid(1, p, mesh, params))
    g2 = scheme.advance_phase(scheme.make_phase_grid(2, p, mesh, params))
    return g1, g2


def reference_flux(grid):
    """One phase's front flux per level; the solid's sample 0 is at its half level."""
    f = scheme.recover_physical(grid)
    if grid.phase == 1:
        m1 = grid.m
        flux = np.empty(grid.mesh.n + 1)
        flux[0] = 0.0
        flux[1:] = (f.u[1:, m1] - f.u[1:, m1 - 1]) / (f.x[1:, m1] - f.x[1:, m1 - 1])
        return flux
    flux = (f.u[:, 1] - f.u[:, 0]) / (f.x[:, 1] - f.x[:, 0])
    width = scheme._half_width(grid)
    flux[0] = (grid.half[1] - grid.half[0]) * width / grid.v[1]
    return flux


def reference_term(k, grid, flux):
    """The flux integrated up to level k: product trapezoid, or split start from the half level."""
    alpha, ds = grid.params.alpha, 1.0 / grid.mesh.n
    w = (fracquad.trap_weights(k - 1, alpha, ds).c if grid.phase == 1
         else split_rule(k - 1, alpha, ds))
    return np.dot(w, flux[:k + 1])


def reference_series(g1, g2):
    """The balance S[1..n], composed term by term with the operands in their original order.

    The terms are integrated over front time s, steps 1/n; p enters as lambda_i/p**2.
    """
    flux1, flux2 = reference_flux(g1), reference_flux(g2)
    scale = g1.p * g1.p * math.gamma(g1.params.alpha)
    return [float((g1.params.lambda2 / scale) * reference_term(k, g2, flux2)
                  - (g1.params.lambda1 / scale) * reference_term(k, g1, flux1))
            for k in range(1, g1.mesh.n + 1)]


class TestStefanFrontValue:
    def test_all_zero_fields_give_zero(self):
        params = analytic.PhysicalParams(alpha=0.5, theta_inf=0.0)
        g1 = scheme.make_phase_grid(1, 0.8, MESH, params)
        g2 = scheme.make_phase_grid(2, 0.8, MESH, params)
        g1.ubar[:] = 0.0
        g2.ubar[:] = 0.0
        g2.half = np.zeros(MESH.m2 + 1)
        g1.filled_through = g2.filled_through = MESH.n
        assert fronttrack.stefan_front_value(g1, g2) == 0.0

    def test_solid_without_half_level_rejected(self):
        # rows filled by hand, not by advance_phase: no half level to integrate
        params = params_for(0, 0.5)
        g1, _ = advanced_pair(0.8, MESH, params)
        g2 = scheme.make_phase_grid(2, 0.8, MESH, params)
        g2.filled_through = MESH.n
        with pytest.raises(errors.InvalidStateError, match="half level"):
            fronttrack.stefan_front_value(g1, g2)

    def test_converged_candidate_lands_within_eps(self):
        params = params_for(0, 0.5)
        result = fronttrack.bisection_solve(params, MESH, eps=1e-3)
        g1, g2 = advanced_pair(result.p, MESH, params)
        s = fronttrack.stefan_front_value(g1, g2)
        assert abs(1.0 - s) < 1e-3
        assert s == pytest.approx(result.s_final, rel=1e-12)

    def test_grid_mismatch_detection(self):
        params = params_for(0, 0.5)
        g1, _ = advanced_pair(0.8, MESH, params)
        _, g2 = advanced_pair(0.9, MESH, params)
        with pytest.raises(errors.GridMismatchError):
            fronttrack.stefan_front_value(g1, g2)

    @pytest.mark.parametrize("p, solid_params, solid_mesh", [
        (1.0, {"alpha": 1.0}, {}),  # at p = 1, dtau = 1/n for every alpha
        (1.0, {"lambda2": 2.0}, {}),
        (1.0, {"kappa1": 3.0}, {}),
        (0.8, {}, {"ratio": 12.0}),
    ], ids=["alpha", "lambda2", "kappa1", "ratio"])
    @pytest.mark.parametrize("balance", [fronttrack.stefan_front_value,
                                         fronttrack.front_series], ids=["value", "series"])
    def test_pair_from_other_params_or_mesh_rejected(self, p, solid_params, solid_mesh,
                                                     balance):
        params = analytic.PhysicalParams(alpha=0.5)
        mesh = scheme.MeshConfig(m1=8, m2=40, n=24)
        g1 = scheme.advance_phase(scheme.make_phase_grid(1, p, mesh, params))
        g2 = scheme.advance_phase(scheme.make_phase_grid(
            2, p, replace(mesh, **solid_mesh), replace(params, **solid_params)))
        with pytest.raises(errors.GridMismatchError, match="disagree"):
            balance(g1, g2)

    def test_requires_fully_advanced_grids(self):
        params = params_for(0, 0.5)
        g1 = scheme.make_phase_grid(1, 0.8, MESH, params)
        g2 = scheme.make_phase_grid(2, 0.8, MESH, params)
        with pytest.raises(errors.GridMismatchError):
            fronttrack.stefan_front_value(g1, g2)

    def test_phase_order_enforced(self):
        params = params_for(0, 0.5)
        g1, g2 = advanced_pair(0.8, MESH, params)
        with pytest.raises(errors.GridMismatchError):
            fronttrack.stefan_front_value(g2, g1)

    def test_oracle_injection_alpha_one(self):
        # exact temperatures on the grid: the heat-balance front lands near
        # 1; the gap is first-order flux-quotient error plus the start (the
        # solid's level-0 corner quotient carries no weight, and its
        # half level is the one the scheme solves from level 0)
        params = params_for(0, 1.0)
        p = analytic.solve_p_exact(params)
        sol = analytic.ExactSolution(p, params)
        g1 = scheme.make_phase_grid(1, p, PROD_MESH, params)
        # the advance stores the half level, which depends on level 0 alone;
        # the injection below overwrites the rows it filled
        g2 = scheme.advance_phase(scheme.make_phase_grid(2, p, PROD_MESH, params))
        f1 = scheme.recover_physical(g1)
        f2 = scheme.recover_physical(g2)
        for j in range(1, PROD_MESH.n + 1):
            tau = float(g1.tau[j])
            # the liquid's ubar is u / s**alpha, s = j/n
            g1.ubar[j] = exact_row(analytic.u1_exact, f1.x[j], tau, sol) / (j / PROD_MESH.n)
            g2.ubar[j] = exact_row(
                analytic.u2_exact, f2.x[j], tau, sol
            ) / (PROD_MESH.ratio - p * math.sqrt(tau)) ** 2
        g1.filled_through = g2.filled_through = PROD_MESH.n
        s = fronttrack.stefan_front_value(g1, g2)
        assert abs(1.0 - s) < 0.1


class TestFrontSeries:
    def test_final_entry_matches_single_target(self):
        params = params_for(0, 0.5)
        g1, g2 = advanced_pair(0.75, MESH, params)
        series = fronttrack.front_series(g1, g2)
        assert series[0] == 0.0
        assert series[-1] == fronttrack.stefan_front_value(g1, g2)
        assert len(series) == MESH.n + 1


class TestBalanceBitForBit:
    """Every caller of the balance against the reference composition above, with ==."""

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_front_value(self, alpha):
        g1, g2 = advanced_pair(0.75, MESH, params_for(0, alpha))
        assert fronttrack.stefan_front_value(g1, g2) == reference_series(g1, g2)[-1]

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_front_series(self, alpha):
        g1, g2 = advanced_pair(0.75, MESH, params_for(0, alpha))
        assert fronttrack.front_series(g1, g2).tolist() == [0.0] + reference_series(g1, g2)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_candidate_residual(self, alpha):
        params = params_for(0, alpha)
        residual = fronttrack._solve_candidate(0.75, params, MESH, {})[0]
        assert residual == 1.0 - reference_series(*advanced_pair(0.75, MESH, params))[-1]


class TestFrontResidual:
    def test_sign_structure_on_default_bracket(self):
        params = params_for(0, 1.0)
        assert fronttrack.front_residual(0.1, params, MESH) < 0.0
        assert fronttrack.front_residual(2.0, params, MESH) > 0.0

    def test_reference_candidate_nearly_converged(self):
        # production mesh, classical order: the externally reported
        # coefficient sits within the default tolerance band
        params = params_for(0, 1.0)
        assert abs(fronttrack.front_residual(0.9311, params, PROD_MESH)) < 1e-3

    def test_candidate_tagging_on_error(self):
        params = params_for(0, 0.5)
        with pytest.raises(errors.InvalidInputError):
            fronttrack.front_residual(-1.0, params, MESH)

    def test_failed_phase_stores_no_term(self, monkeypatch):
        # a zero pivot in the solid: a pair that fails stores neither term,
        # since its liquid rows were not finished either; a solid advanced
        # alone, after the liquid's term was stored, stores nothing more
        phase_coeffs = scheme._phase_coeffs

        def defective(grid):
            time, implicit, *rest = phase_coeffs(grid)
            if grid.phase == 2:
                time[3] = -2.0 * implicit[3]
            return (time, implicit, *rest)

        monkeypatch.setattr(scheme, "_phase_coeffs", defective)
        params = params_for(0, 0.5)
        terms = {}
        match = r"^candidate p=0\.8: phase 2, p=0\.8: zero pivot at row 0$"
        with pytest.raises(errors.ZeroPivotError, match=match):
            fronttrack._solve_candidate(0.8, params, MESH, terms)
        assert terms == {}
        liquid = scheme.phase_key(1, 0.8, MESH, params)
        terms[liquid] = 0.0
        with pytest.raises(errors.ZeroPivotError, match=match):
            fronttrack._solve_candidate(0.8, params, MESH, terms)
        assert list(terms) == [liquid]


def scaled_params(params, factor):
    """params with kappa1, kappa2, lambda1 and lambda2 multiplied by factor."""
    return replace(params, kappa1=factor * params.kappa1, kappa2=factor * params.kappa2,
                   lambda1=factor * params.lambda1, lambda2=factor * params.lambda2)


class TestScalingLaw:
    """p is only a diffusivity scale.

    With t = s * p**(-2/alpha) the Caputo derivative scales by p**2, so the
    problem with front p * t**(alpha/2) and constants kappa_i, lambda_i is
    the one with front s**(alpha/2) and constants kappa_i/p**2,
    lambda_i/p**2.  Both routes obey the law without a reference value, at
    every alpha; a hidden p in a time or memory rule breaks it.
    """

    constants = st.builds(
        lambda alpha, k1, k2, l1, l2: analytic.PhysicalParams(
            alpha=alpha, kappa1=k1, kappa2=k2, lambda1=l1, lambda2=l2),
        st.floats(min_value=0.2, max_value=1.0), *[st.floats(min_value=0.5, max_value=2.0)] * 4)

    @given(params=constants, p=st.floats(min_value=0.3, max_value=1.7))
    @settings(max_examples=25, deadline=None)
    def test_grid_residual_in_front_time(self, params, p):
        mesh = scheme.MeshConfig(m1=12, m2=30, n=20)
        scaled = fronttrack.front_residual(1.0, scaled_params(params, p ** -2), mesh)
        assert fronttrack.front_residual(p, params, mesh) == pytest.approx(scaled, abs=1e-12)

    @given(params=constants, p=st.floats(min_value=0.3, max_value=1.7))
    @settings(max_examples=50, deadline=None)
    def test_closed_form_residual_in_front_time(self, params, p):
        scaled = analytic.transcendental_residual(1.0, scaled_params(params, p ** -2))
        assert analytic.transcendental_residual(p, params) == pytest.approx(
            p * scaled, rel=1e-12, abs=1e-12)

    @given(params=constants, c=st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=20, deadline=None)
    def test_exact_root_scales_by_c(self, params, c):
        # each root lies within tol/2 = 5e-11 of the bisection's midpoint
        root = analytic.solve_p_exact(params, bracket=(0.05, 5.0))
        scaled = analytic.solve_p_exact(scaled_params(params, c * c), bracket=(0.05 * c, 5.0 * c))
        assert scaled == pytest.approx(c * root, abs=(1.0 + c) * 1e-10)


class TestBisectionSolve:
    def test_synthetic_linear_residual(self, monkeypatch):
        target = 0.6180339887
        eps = 1e-6
        replace_candidate_solve(monkeypatch, lambda p: 1.0 - p / target)
        result = fronttrack.bisection_solve(
            params_for(0, 0.5), MESH, bracket=(0.1, 2.0), eps=eps)
        assert result.converged
        assert abs(result.p - target) <= eps * target
        assert result.iterations <= math.ceil(math.log2((2.0 - 0.1) / (eps * target)))
        assert len(result.history) == result.iterations + 2

    def test_bracket_halves_every_iteration(self, monkeypatch):
        captured = []
        replace_candidate_solve(monkeypatch, lambda p: (captured.append(p), 0.9 - p)[1])
        fronttrack.bisection_solve(
            params_for(0, 0.5), MESH, bracket=(0.5, 1.5), eps=1e-9)
        mids = captured[2:]
        steps = np.abs(np.diff(mids))
        np.testing.assert_allclose(steps[1:] / steps[:-1], 0.5, rtol=1e-12)

    def test_endpoint_early_exit(self, monkeypatch):
        replace_candidate_solve(monkeypatch, lambda p: 1.0 - p)
        result = fronttrack.bisection_solve(
            params_for(0, 0.5), MESH, bracket=(1.0, 2.0), eps=1e-3)
        assert result.converged and result.p == 1.0 and result.iterations == 0

    def test_no_sign_change_reports_both_residuals(self, monkeypatch):
        replace_candidate_solve(monkeypatch, lambda p: 1.0 + p)
        with pytest.raises(errors.NoSignChangeError) as excinfo:
            fronttrack.bisection_solve(
                params_for(0, 0.5), MESH, bracket=(0.2, 0.4), eps=1e-9)
        message = str(excinfo.value)
        assert "1.2" in message and "1.4" in message

    def test_max_iter_returns_unconverged(self, monkeypatch):
        replace_candidate_solve(monkeypatch, lambda p: 1.0 - p)
        result = fronttrack.bisection_solve(
            params_for(0, 0.5), MESH, bracket=(0.1, 2.0), eps=1e-18, max_iter=7)
        assert not result.converged
        assert result.iterations == 7

    def test_residuals_whose_product_underflows_keep_their_signs(self, monkeypatch):
        # r_a * r_b underflows to -0.0 for residuals near 1e-200
        replace_candidate_solve(monkeypatch, lambda p: 1e-200 * (0.9 - p))
        result = fronttrack.bisection_solve(
            params_for(0, 0.5), MESH, bracket=(0.1, 2.0), eps=1e-300)
        assert result.converged and result.p == 0.9 and result.iterations == 54

    def test_exhausted_bracket_ends_the_search(self, monkeypatch):
        # the root lies between two doubles: the bracket collapses before max_iter,
        # and no candidate is solved twice
        captured = []
        replace_candidate_solve(monkeypatch,
                                lambda p: (captured.append(p), 0.7 - p + 1e-17)[1])
        result = fronttrack.bisection_solve(
            params_for(0, 0.5), MESH, bracket=(0.1, 2.0), eps=1e-300, max_iter=60)
        assert not result.converged
        assert result.iterations == 54 and len(captured) == 56
        assert len(set(captured)) == len(captured)
        assert [p for p, _ in result.history] == captured
        assert result.p == captured[-1] and abs(result.p - 0.7) <= math.ulp(0.7)

    def test_validation(self):
        with pytest.raises(errors.InvalidInputError):
            fronttrack.bisection_solve(params_for(0, 0.5), MESH, bracket=(2.0, 0.1))
        with pytest.raises(errors.InvalidInputError):
            fronttrack.bisection_solve(params_for(0, 0.5), MESH, eps=0.0)

    @pytest.mark.parametrize("max_iter", [2.5, 7.0, np.float64(7.0), 0, -3])
    def test_rejects_max_iter_other_than_positive_integer(self, monkeypatch, max_iter):
        solved = []
        replace_candidate_solve(monkeypatch, lambda p: (solved.append(p), 1.0 - p)[1])
        with pytest.raises(errors.InvalidInputError, match="max_iter"):
            fronttrack.bisection_solve(params_for(0, 0.5), MESH, max_iter=max_iter)
        assert solved == []

    def test_accepts_numpy_integer_max_iter(self, monkeypatch):
        replace_candidate_solve(monkeypatch, lambda p: 1.0 - p)
        result = fronttrack.bisection_solve(
            params_for(0, 0.5), MESH, bracket=(0.1, 2.0), eps=1e-18, max_iter=np.int64(7))
        assert result.iterations == 7

    def test_rejects_infinite_eps(self, monkeypatch):
        # any residual is below an infinite eps: the search would stop at p_a
        replace_candidate_solve(monkeypatch, lambda p: 1.0 - p)
        with pytest.raises(errors.InvalidInputError, match="eps"):
            fronttrack.bisection_solve(params_for(0, 0.5), MESH, eps=math.inf)

    def test_rejects_infinite_bracket_end_before_any_solve(self, monkeypatch):
        solved = []
        replace_candidate_solve(monkeypatch, lambda p: (solved.append(p), 1.0 - p)[1])
        with pytest.raises(errors.InvalidInputError, match="bracket"):
            fronttrack.bisection_solve(params_for(0, 0.5), MESH, bracket=(0.1, math.inf))
        assert solved == []

    def test_returns_grids_of_returned_candidate(self):
        params = params_for(0, 0.5)
        result = fronttrack.bisection_solve(params, MESH)
        g1, g2 = result.grids
        fresh1, fresh2 = advanced_pair(result.p, MESH, params)
        for got, fresh in ((g1, fresh1), (g2, fresh2)):
            assert got.p == result.p
            assert got.filled_through == MESH.n
            np.testing.assert_array_equal(got.ubar, fresh.ubar)
        assert g1.half is None
        np.testing.assert_array_equal(g2.half, fresh2.half)
        assert 1.0 - fronttrack.stefan_front_value(g1, g2) == result.residual

    def test_grid_backed_solve_small_mesh(self):
        params = params_for(0, 1.0)
        result = fronttrack.bisection_solve(params, MESH)
        assert result.converged
        assert abs(1.0 - result.s_final) < 1e-3
        assert 0.8 < result.p < 1.1


class TestFinalTime:
    def test_unit_coefficient(self):
        for alpha in (0.25, 0.5, 1.0):
            assert analytic.final_time(1.0, alpha) == 1.0

    def test_reference_values(self):
        assert analytic.final_time(0.9311, 1.0) == pytest.approx(1.1534, abs=1e-4)
        assert analytic.final_time(0.7053, 0.25) == pytest.approx(16.3309, abs=1e-3)

    def test_matches_grid_final_time(self):
        p, alpha, n = 0.7361, 0.5, 37
        dtau = 1.0 / (n * p ** (2.0 / alpha))
        assert n * dtau == pytest.approx(analytic.final_time(p, alpha), rel=1e-12)

    def test_validation(self):
        with pytest.raises(errors.InvalidInputError):
            analytic.final_time(0.0, 0.5)
        with pytest.raises(errors.InvalidInputError):
            analytic.final_time(1.0, 1.5)

    def test_rejects_infinite_coefficient(self):
        # p**(-2/alpha) would be 0.0
        with pytest.raises(errors.InvalidInputError, match="front coefficient"):
            analytic.final_time(math.inf, 0.5)
