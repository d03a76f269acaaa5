"""Front-fixing steppers: assembly, Thomas solve, advance, recovery."""

import numpy as np
import pytest

from conftest import params_for
from fracstefan import analytic, errors, fracquad, scheme

SMALL_MESH = scheme.MeshConfig(m1=12, m2=30, n=20, ratio=10.0)


class TestMeshConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(errors.InvalidInputError) as excinfo:
            scheme.MeshConfig(m1=0, ratio=0.5, tau0_factor=2.0)
        message = str(excinfo.value)
        assert "m1" in message and "ratio" in message and "tau0_factor" in message

    @pytest.mark.parametrize("key", ["ratio", "tau0_factor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, key, value):
        with pytest.raises(errors.InvalidInputError, match=key):
            scheme.MeshConfig(**{key: value})


class TestGridConstruction:
    def test_phase1_rows(self):
        params = params_for(0, 0.5)
        g = scheme.make_phase_grid(1, 0.8, SMALL_MESH, params)
        assert g.dtau == pytest.approx(1.0 / (SMALL_MESH.n * 0.8 ** 4.0))
        np.testing.assert_array_equal(g.ubar[0], 0.0)  # corner takes initial data
        np.testing.assert_allclose(g.ubar[1:, 0], g.tau[1:] ** -0.5, rtol=1e-15)
        np.testing.assert_array_equal(g.ubar[:, -1], 0.0)

    def test_phase2_rows(self):
        params = params_for(1, 0.5)
        g = scheme.make_phase_grid(2, 0.6, SMALL_MESH, params)
        width = SMALL_MESH.ratio - 0.6 * g.tau ** 0.25
        assert g.ubar[0, 0] == 0.0  # interface value wins at the corner
        np.testing.assert_allclose(g.ubar[0, 1:], params.theta_inf / width[0] ** 2, rtol=1e-15)
        np.testing.assert_allclose(g.ubar[1:, -1], params.theta_inf / width[1:] ** 2, rtol=1e-15)
        np.testing.assert_array_equal(g.ubar[1:, 0], 0.0)

    def test_tau_grid_offset_start(self):
        g = scheme.make_phase_grid(1, 1.0, SMALL_MESH, params_for(0, 1.0))
        assert g.tau[0] == pytest.approx(SMALL_MESH.tau0_factor * g.dtau)
        np.testing.assert_allclose(g.tau[1:], g.dtau * np.arange(1, SMALL_MESH.n + 1))

    def test_rejects_bad_phase_and_p(self):
        with pytest.raises(errors.InvalidInputError):
            scheme.make_phase_grid(3, 0.8, SMALL_MESH, params_for(0, 0.5))
        with pytest.raises(errors.InvalidInputError):
            scheme.make_phase_grid(1, -0.1, SMALL_MESH, params_for(0, 0.5))

    @pytest.mark.parametrize("p, alpha", [
        (1e100, 0.25),  # p**(2/alpha) overflows
        (1e-50, 0.25),  # p**(2/alpha) underflows to 0
        (1e77, 0.5),    # n * p**(2/alpha) overflows, so dtau would be 0
    ])
    def test_rejects_unrepresentable_time_step(self, p, alpha):
        for phase in (1, 2):
            with pytest.raises(errors.DegenerateInputError, match="time step"):
                scheme.make_phase_grid(phase, p, SMALL_MESH, params_for(0, alpha))

    def test_rejects_interval_count_without_interior(self):
        with pytest.raises(errors.InvalidInputError, match="interior"):
            scheme.MeshConfig(m1=1, m2=30, n=10)

    def test_single_interior_node_runs(self):
        # the degenerate-but-legal case: both boundary folds land on one row
        mesh = scheme.MeshConfig(m1=2, m2=2, n=6)
        params = params_for(0, 0.5)
        for phase in (1, 2):
            g = scheme.advance_phase(scheme.make_phase_grid(phase, 0.8, mesh, params))
            assert np.isfinite(g.ubar).all()


class TestAssembly:
    def test_first_step_rhs_is_boundary_coupling_only(self):
        # zero initial data: the only nonzero right-hand entry comes from
        # folding the hot-boundary value into the first interior row
        params = params_for(0, 0.5)
        g = scheme.make_phase_grid(1, 0.8, SMALL_MESH, params)
        system = scheme.assemble_phase1_step(g, 0)
        r_imp = -0.5 * (system.sub[0] + system.sup[0])
        q_1 = 0.5 * (system.sub[0] - system.sup[0])
        expected_first = (r_imp - q_1) * g.tau[1] ** -0.5
        assert system.rhs[0] == pytest.approx(expected_first, rel=1e-13)
        np.testing.assert_allclose(system.rhs[1:], 0.0, atol=1e-300)

    def test_alpha_one_memory_endpoint_weight(self):
        # at alpha = 1 the implicit-side memory coefficient reduces to
        # dtau*kappa1 / (2 p^2 dv^2)
        params = params_for(0, 1.0)
        g = scheme.make_phase_grid(1, 0.9, SMALL_MESH, params)
        system = scheme.assemble_phase1_step(g, 0)
        r_imp = 0.5 * (system.diag[0] - g.tau[1] ** 1.0)
        expected = g.dtau * params.kappa1 / (2.0 * 0.9 ** 2 * g.dv ** 2)
        assert r_imp == pytest.approx(expected, rel=1e-13)

    def test_phase2_advective_factor_vanishes_at_outer_coordinate(self):
        # the (v - 1) factor kills the advective term at the far boundary;
        # interior factors are strictly negative
        params = params_for(0, 0.5)
        g = scheme.make_phase_grid(2, 0.8, SMALL_MESH, params)
        _, _, qfac_in, _, _ = scheme._phase_coeffs(g)
        assert (qfac_in < 0.0).all()
        assert qfac_in[-1] == pytest.approx(
            0.5 * 0.8 * (g.v[-2] - 1.0) * g.dtau / (4.0 * g.dv), rel=1e-13)

    def test_requires_history_rows(self):
        g = scheme.make_phase_grid(1, 0.8, SMALL_MESH, params_for(0, 0.5))
        with pytest.raises(errors.InvalidStateError):
            scheme.assemble_phase1_step(g, 3)

    def test_phase_guards(self):
        g1 = scheme.make_phase_grid(1, 0.8, SMALL_MESH, params_for(0, 0.5))
        with pytest.raises(errors.InvalidInputError):
            scheme.assemble_phase2_step(g1, 0)

    def test_manufactured_constant_state_phase2(self):
        # u2 identically theta_inf solves the governing equation; in scaled
        # variables the state is width**-2 per level and the step must
        # reproduce it to roundoff when fed manufactured history
        params = params_for(0, 1.0)
        g = scheme.make_phase_grid(2, 0.8, SMALL_MESH, params)
        width = SMALL_MESH.ratio - 0.8 * g.tau ** 0.5
        manufactured = params.theta_inf / width ** 2
        g.ubar[:] = manufactured[:, None]
        k = 4
        g.filled_through = k
        system = scheme.assemble_phase2_step(g, k)
        row = manufactured[k + 1]
        lhs = (system.sub * np.full(system.size, row)
               + system.diag * np.full(system.size, row)
               + system.sup * np.full(system.size, row))
        # boundary folding moved the known end values into the rhs
        lhs[0] -= system.sub[0] * row
        lhs[-1] -= system.sup[-1] * row
        np.testing.assert_allclose(lhs, system.rhs, atol=1e-10 * abs(params.theta_inf))


class TestThomasSolve:
    def _system(self, sub, diag, sup, rhs):
        return scheme.TridiagonalSystem(
            sub=np.asarray(sub, float), diag=np.asarray(diag, float),
            sup=np.asarray(sup, float), rhs=np.asarray(rhs, float),
            size=len(diag))

    def test_identity(self):
        system = self._system([0, 0, 0], [1, 1, 1], [0, 0, 0], [4.0, -2.0, 7.0])
        np.testing.assert_allclose(scheme.thomas_solve(system), [4.0, -2.0, 7.0])

    def test_hand_elimination(self):
        system = self._system([-1, -1, -1], [2, 2, 2], [-1, -1, -1], [1, 1, 1])
        np.testing.assert_allclose(scheme.thomas_solve(system), [1.5, 2.0, 1.5], rtol=1e-14)

    def test_against_dense_solver(self, rng):
        for size in (5, 17, 64):
            sub = rng.uniform(-1.0, 1.0, size)
            sup = rng.uniform(-1.0, 1.0, size)
            diag = 2.5 + np.abs(sub) + np.abs(sup)
            rhs = rng.standard_normal(size)
            dense = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
            expected = np.linalg.solve(dense, rhs)
            got = scheme.thomas_solve(self._system(sub, diag, sup, rhs))
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_bit_identical_to_numpy_scalar_elimination(self, rng):
        # reference: the same elimination indexing numpy arrays element by
        # element; the float loop performs the same IEEE operations
        size = 40
        sub = rng.uniform(-1.0, 1.0, size)
        sup = rng.uniform(-1.0, 1.0, size)
        diag = 2.5 + np.abs(sub) + np.abs(sup)
        rhs = rng.standard_normal(size)
        cp = np.empty(size)
        xp = np.empty(size)
        cp[0] = sup[0] / diag[0]
        xp[0] = rhs[0] / diag[0]
        for i in range(1, size):
            pivot = diag[i] - sub[i] * cp[i - 1]
            cp[i] = sup[i] / pivot
            xp[i] = (rhs[i] - sub[i] * xp[i - 1]) / pivot
        x = np.empty(size)
        x[-1] = xp[-1]
        for i in range(size - 2, -1, -1):
            x[i] = xp[i] - cp[i] * x[i + 1]
        got = scheme.thomas_solve(self._system(sub, diag, sup, rhs))
        assert np.array_equal(got, x)

    def test_zero_pivot(self):
        system = self._system([0, -1], [0.0, 2.0], [-1, 0], [1.0, 1.0])
        with pytest.raises(errors.ZeroPivotError):
            scheme.thomas_solve(system)

    def test_zero_pivot_at_interior_row_named(self):
        # pivots 1, 2 - 1*1 = 1, then 1 - 1*1 = 0: elimination breaks at row 2
        system = self._system([0, 1, 1], [1.0, 2.0, 1.0], [1, 1, 0], [1.0, 1.0, 1.0])
        with pytest.raises(errors.ZeroPivotError, match="zero pivot at row 2$"):
            scheme.thomas_solve(system)


class TestAdvance:
    def test_zero_solution_preserved(self):
        params = analytic.PhysicalParams(alpha=0.5, theta_inf=0.0)
        g = scheme.advance_phase(scheme.make_phase_grid(2, 0.8, SMALL_MESH, params))
        np.testing.assert_array_equal(g.ubar, 0.0)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_matches_stepwise_reference(self, alpha):
        # the stepper must agree with literal assemble + solve
        params = params_for(1, alpha)
        for phase in (1, 2):
            fast = scheme.advance_phase(scheme.make_phase_grid(phase, 0.7, SMALL_MESH, params))
            ref = scheme.make_phase_grid(phase, 0.7, SMALL_MESH, params)
            assemble = scheme.assemble_phase1_step if phase == 1 else scheme.assemble_phase2_step
            for k in range(SMALL_MESH.n):
                system = assemble(ref, k)
                ref.ubar[k + 1, 1:-1] = scheme.thomas_solve(system)
                ref.filled_through = k + 1
            # bit for bit: the stepper's stored differences and sliced weight
            # rows must reproduce the oracle's rebuilt ones exactly
            assert np.array_equal(fast.ubar, ref.ubar)
            ref_half = scheme._half_row(ref, scheme._phase_coeffs(ref))[0]
            if phase == 1:
                assert fast.half is None and ref_half is None
            else:
                assert np.array_equal(fast.half, ref_half)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_weight_rows_match_per_step_weights(self, alpha, monkeypatch):
        # the rows the stepper slices from its lag table equal the public
        # per-k weights bit for bit, across SERIES_LAG (1415), where the
        # interior factor switches to its series
        ks = (0, 1, 2, 1413, 1414, 1415, 1416, 2000)
        mesh = scheme.MeshConfig(m1=2, m2=2, n=2001)
        params = params_for(0, alpha)
        seen = {}
        step_system = scheme._step_system

        def recording(grid, k, coeffs, d2, dc, weights, half_terms):
            if k in ks:
                seen[(grid.phase, k)] = weights
            return step_system(grid, k, coeffs, d2, dc, weights, half_terms)

        monkeypatch.setattr(scheme, "_step_system", recording)
        for phase in (1, 2):
            g = scheme.advance_phase(scheme.make_phase_grid(phase, 0.7, mesh, params))
            for k in ks:
                c, w_half = seen[(phase, k)]
                if phase == 1:
                    assert w_half is None
                    assert np.array_equal(c, fracquad.trap_weights(k, alpha, g.dtau).c)
                else:
                    c_ref, w_ref = fracquad.split_start_weights(k, alpha, g.dtau)
                    assert np.array_equal(c, c_ref) and w_half == w_ref

    def test_deterministic_rerun_bit_identical(self):
        params = params_for(0, 0.5)
        a = scheme.advance_phase(scheme.make_phase_grid(2, 0.7, SMALL_MESH, params))
        b = scheme.advance_phase(scheme.make_phase_grid(2, 0.7, SMALL_MESH, params))
        assert np.array_equal(a.ubar, b.ubar)

    def test_refinement_reduces_error_against_similarity_solution(self):
        # alpha = 0.5 scan: joint space-time refinement must not increase
        # the late-time deviation from the closed-form profile
        params = params_for(0, 0.5)
        p = analytic.solve_p_exact(params)
        sol = analytic.ExactSolution(p, params)
        errs = []
        for m1, n in ((8, 8), (16, 32)):
            mesh = scheme.MeshConfig(m1=m1, m2=5 * m1, n=n)
            g = scheme.advance_phase(scheme.make_phase_grid(1, p, mesh, params))
            f = scheme.recover_physical(g)
            worst = 0.0
            for j in range(n // 2, n + 1):
                for i in range(0, m1 + 1, 2):
                    exact = analytic.u1_exact(float(f.x[j, i]), float(g.tau[j]), sol)
                    worst = max(worst, abs(exact - f.u[j, i]))
            errs.append(worst)
        assert errs[1] <= errs[0]


class TestRecovery:
    def test_interface_and_boundary_values(self):
        params = params_for(0, 0.5)
        g1 = scheme.advance_phase(scheme.make_phase_grid(1, 0.8, SMALL_MESH, params))
        g2 = scheme.advance_phase(scheme.make_phase_grid(2, 0.8, SMALL_MESH, params))
        f1 = scheme.recover_physical(g1)
        f2 = scheme.recover_physical(g2)
        front = 0.8 * g1.tau ** 0.25
        # liquid end node sits on the front with u = 0
        np.testing.assert_allclose(f1.x[:, -1], front, rtol=1e-14)
        np.testing.assert_array_equal(f1.u[:, -1], 0.0)
        # solid start node: same point, u = 0, bitwise-equal coordinates
        np.testing.assert_array_equal(f2.x[:, 0], f1.x[:, -1])
        np.testing.assert_array_equal(f2.u[:, 0], 0.0)
        # hot boundary recovers u = 1 exactly up to two power roundings
        assert np.abs(f1.u[1:, 0] - 1.0).max() <= 1e-14

    def test_classical_late_time_regression(self):
        # alpha = 1 at the production mesh: the recovered temperatures match
        # the closed forms to 1e-2 on the emitted profile levels (the early
        # transient of the single uniform first step decays by ~level 23)
        params = params_for(1, 1.0)
        p = analytic.solve_p_exact(params)
        mesh = scheme.MeshConfig()
        g1 = scheme.advance_phase(scheme.make_phase_grid(1, p, mesh, params))
        g2 = scheme.advance_phase(scheme.make_phase_grid(2, p, mesh, params))
        f1 = scheme.recover_physical(g1)
        f2 = scheme.recover_physical(g2)
        for j in (mesh.n // 4, mesh.n // 2, 3 * mesh.n // 4, mesh.n):
            tau = g1.tau[j]
            exact1 = analytic.u1_classical(f1.x[j], tau, p, params.kappa1)
            exact2 = analytic.u2_classical(f2.x[j], tau, p, params.kappa2, params.theta_inf)
            assert np.abs(f1.u[j] - exact1).max() <= 1e-2
            assert np.abs(f2.u[j] - exact2).max() <= 1e-2

    def test_maximum_principle_small_mesh(self):
        for alpha in (0.25, 1.0):
            params = params_for(1, alpha)
            g1 = scheme.advance_phase(scheme.make_phase_grid(1, 0.7, SMALL_MESH, params))
            g2 = scheme.advance_phase(scheme.make_phase_grid(2, 0.7, SMALL_MESH, params))
            u1 = scheme.recover_physical(g1).u
            u2 = scheme.recover_physical(g2).u
            assert u1.min() >= -1e-8 and u1.max() <= 1.0 + 1e-8
            assert u2.max() <= 1e-8 and u2.min() >= params.theta_inf - 1e-8

    def test_solid_bounds_when_first_step_leaves_crank_nicolson_range(self):
        # the solid's level-0 row jumps from 0 to theta_inf within one space
        # step; here kappa2*dtau/(2*dx**2) is 7.7 at alpha = 1 (dx the
        # physical spacing), far outside the range <= 1 where a trapezoidal
        # (Crank-Nicolson) first step stays monotone
        mesh = scheme.MeshConfig(m1=12, m2=120, n=20, ratio=10.0)
        for alpha in (0.25, 1.0):
            params = params_for(1, alpha)
            g2 = scheme.advance_phase(scheme.make_phase_grid(2, 0.7, mesh, params))
            u2 = scheme.recover_physical(g2).u
            assert u2.max() <= 1e-8 and u2.min() >= params.theta_inf - 1e-8
