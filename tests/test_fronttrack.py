"""Discrete interface energy balance and the front-coefficient bisection."""

import math

import numpy as np
import pytest

from conftest import params_for
from fracstefan import analytic, errors, fronttrack, scheme

MESH = scheme.MeshConfig(m1=20, m2=60, n=40, ratio=10.0)
PROD_MESH = scheme.MeshConfig()


def replace_candidate_solve(monkeypatch, residual):
    """Let every bisection candidate p cost residual(p) instead of a grid solve."""
    monkeypatch.setattr(fronttrack, "_solve_candidate",
                        lambda p, params, mesh: (residual(p), None))


def advanced_pair(p, mesh, params):
    g1 = scheme.advance_phase(scheme.make_phase_grid(1, p, mesh, params))
    g2 = scheme.advance_phase(scheme.make_phase_grid(2, p, mesh, params))
    return g1, g2


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
        g1 = scheme.make_phase_grid(1, p, PROD_MESH, params)
        # the advance stores the half level, which depends on level 0 alone;
        # the injection below overwrites the rows it filled
        g2 = scheme.advance_phase(scheme.make_phase_grid(2, p, PROD_MESH, params))
        f1 = scheme.recover_physical(g1)
        f2 = scheme.recover_physical(g2)
        for j in range(1, PROD_MESH.n + 1):
            tau = float(g1.tau[j])
            g1.ubar[j] = analytic.u1_classical(f1.x[j], tau, p, params.kappa1) / tau
            g2.ubar[j] = analytic.u2_classical(
                f2.x[j], tau, p, params.kappa2, params.theta_inf
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
        assert series[-1] == pytest.approx(fronttrack.stefan_front_value(g1, g2), rel=1e-12)
        assert len(series) == MESH.n + 1


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

    def test_validation(self):
        with pytest.raises(errors.InvalidInputError):
            fronttrack.bisection_solve(params_for(0, 0.5), MESH, bracket=(2.0, 0.1))
        with pytest.raises(errors.InvalidInputError):
            fronttrack.bisection_solve(params_for(0, 0.5), MESH, eps=0.0)

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
            assert fronttrack.final_time(1.0, alpha) == 1.0

    def test_reference_values(self):
        assert fronttrack.final_time(0.9311, 1.0) == pytest.approx(1.1534, abs=1e-4)
        assert fronttrack.final_time(0.7053, 0.25) == pytest.approx(16.3309, abs=1e-3)

    def test_matches_grid_final_time(self):
        p, alpha, n = 0.7361, 0.5, 37
        dtau = 1.0 / (n * p ** (2.0 / alpha))
        assert n * dtau == pytest.approx(fronttrack.final_time(p, alpha), rel=1e-12)

    def test_validation(self):
        with pytest.raises(errors.InvalidInputError):
            fronttrack.final_time(0.0, 0.5)
        with pytest.raises(errors.InvalidInputError):
            fronttrack.final_time(1.0, 1.5)
