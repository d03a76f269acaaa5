"""Front-fixing steppers: assembly, Thomas solve, advance, recovery."""

import logging
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import exact_row, params_for, split_rule
from fracstefan import analytic, errors, fracquad, scheme

SMALL_MESH = scheme.MeshConfig(m1=12, m2=30, n=20, ratio=10.0)


def first_row(grid):
    """History row 0 of grid, solved from level 0 as the stepwise oracle solves it."""
    coeffs = scheme._phase_coeffs(grid)
    solved = scheme.thomas_solve(scheme._step_system(0, coeffs, 0.0, 0.0))
    edges = coeffs[3][0]
    return np.concatenate((edges[:1], solved, edges[1:]))


class TestMeshConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(errors.InvalidInputError) as excinfo:
            scheme.MeshConfig(m1=0, n=0, ratio=0.5)
        message = str(excinfo.value)
        assert "m1" in message and "n must" in message and "ratio" in message

    @pytest.mark.parametrize("key", ["ratio"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, key, value):
        with pytest.raises(errors.InvalidInputError, match=key):
            scheme.MeshConfig(**{key: value})

    @pytest.mark.parametrize("key", ["m1", "m2", "n"])
    @pytest.mark.parametrize("value", [40.0, 8.5, np.float64(40.0), "40"])
    def test_rejects_non_integral_size(self, key, value):
        # a float size would pass the range checks and fail later inside numpy
        with pytest.raises(errors.InvalidInputError, match=f"^{key} must be an integer"):
            scheme.MeshConfig(**{key: value})

    def test_accepts_numpy_integer_sizes(self):
        mesh = scheme.MeshConfig(m1=np.int64(8), m2=np.int32(20), n=np.int64(6))
        assert scheme.make_phase_grid(2, 0.8, mesh, params_for(0, 0.5)).ubar.shape == (7, 21)


class TestGridConstruction:
    def test_phase1_rows(self):
        params = params_for(0, 0.5)
        g = scheme.make_phase_grid(1, 0.8, SMALL_MESH, params)
        assert g.dtau == pytest.approx(1.0 / (SMALL_MESH.n * 0.8 ** 4.0))
        np.testing.assert_array_equal(g.ubar[0], 0.0)  # corner takes initial data
        # u = ubar * s**alpha is 1 on the hot boundary, s = k/n
        s = np.arange(1, SMALL_MESH.n + 1) / SMALL_MESH.n
        np.testing.assert_allclose(g.ubar[1:, 0], s ** -0.5, rtol=1e-15)
        np.testing.assert_array_equal(g.ubar[:, -1], 0.0)

    def test_phase2_rows(self):
        params = params_for(1, 0.5)
        g = scheme.make_phase_grid(2, 0.6, SMALL_MESH, params)
        width = SMALL_MESH.ratio - 0.6 * g.tau ** 0.25
        assert g.ubar[0, 0] == 0.0  # interface value wins at the corner
        np.testing.assert_allclose(g.ubar[0, 1:], params.theta_inf / width[0] ** 2, rtol=1e-15)
        np.testing.assert_allclose(g.ubar[1:, -1], params.theta_inf / width[1:] ** 2, rtol=1e-15)
        np.testing.assert_array_equal(g.ubar[1:, 0], 0.0)

    def test_tau_grid_starts_at_zero(self):
        # level 0 sits where the front starts: s = 0 and tau = 0
        g = scheme.make_phase_grid(1, 1.0, SMALL_MESH, params_for(0, 1.0))
        assert g.tau[0] == 0.0 and g.s[0] == 0.0
        np.testing.assert_allclose(g.tau[1:], g.dtau * np.arange(1, SMALL_MESH.n + 1))

    @pytest.mark.parametrize("p", [1e-3, 1e3])
    def test_solid_width_positive_at_smallest_ratio(self, p):
        # in front time the width ratio - s**(alpha/2) is at least ratio - 1,
        # which MeshConfig keeps > 0, whatever p: no width check is needed
        mesh = scheme.MeshConfig(m1=4, m2=4, n=20, ratio=np.nextafter(1.0, 2.0))
        g = scheme.make_phase_grid(2, p, mesh, params_for(0, 0.5))
        width = mesh.ratio - g.s ** 0.25
        assert (width > 0.0).all() and width.min() == mesh.ratio - 1.0
        assert np.isfinite(g.ubar).all()

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

    @pytest.mark.parametrize("phase", [1, 2])
    def test_rejects_overflowing_memory_prefactor(self, phase):
        # at alpha = 1 and p = 1e-154 the time step is representable, but
        # kappa_i/p**2 times m**2 is not: a typed error naming p, raised
        # before any numpy warning; two decades of p higher still advances
        params = analytic.PhysicalParams(alpha=1.0, kappa1=2.0)
        with pytest.raises(errors.DegenerateInputError, match=r"memory prefactor.*p=1e-154"):
            scheme.make_phase_grid(phase, 1e-154, SMALL_MESH, params)
        g = scheme.advance_phase(scheme.make_phase_grid(phase, 1e-150, SMALL_MESH, params))
        assert np.isfinite(g.ubar).all()

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


class TestPhaseKey:
    #: One other valid value per PhysicalParams and MeshConfig field, and for p.
    PERTURBED = {"alpha": 0.75, "kappa1": 2.0, "kappa2": 2.0, "lambda1": 2.0,
                 "lambda2": 2.0, "theta_inf": -0.25, "m1": 9, "m2": 21, "n": 13,
                 "ratio": 12.0, "p": 0.9}

    @staticmethod
    def advanced(phase, p, mesh, params):
        grid = scheme.advance_phase(scheme.make_phase_grid(phase, p, mesh, params))
        return scheme.phase_key(phase, p, mesh, params), grid

    def test_covers_every_field(self):
        names = {f.name for f in fields(analytic.PhysicalParams)} | \
            {f.name for f in fields(scheme.MeshConfig)} | {"p"}
        assert set(self.PERTURBED) == names

    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("name", sorted(PERTURBED))
    def test_key_changes_exactly_when_the_grid_does(self, phase, name):
        # a field the key missed would let a table reuse another grid's solve
        p, mesh, params = 0.8, scheme.MeshConfig(m1=8, m2=20, n=12), params_for(0, 0.5)
        key, grid = self.advanced(phase, p, mesh, params)
        value = self.PERTURBED[name]
        if name == "p":
            p = value
        elif name in {f.name for f in fields(scheme.MeshConfig)}:
            mesh = replace(mesh, **{name: value})
        else:
            params = replace(params, **{name: value})
        other_key, other = self.advanced(phase, p, mesh, params)
        same_grid = np.array_equal(grid.ubar, other.ubar) and \
            (phase == 1 or np.array_equal(grid.half, other.half))
        assert (other_key == key) == same_grid

    @pytest.mark.parametrize("phase", [1, 2])
    def test_p_and_kappa_with_equal_kappa_over_p_squared(self, phase):
        # p enters a grid only as kappa_i/p**2: doubling p and quadrupling
        # both kappas keeps that quotient bit for bit, so key and grid agree
        mesh, params = scheme.MeshConfig(m1=8, m2=20, n=12), params_for(0, 0.5)
        key, grid = self.advanced(phase, 0.8, mesh, params)
        scaled = replace(params, kappa1=4.0 * params.kappa1, kappa2=4.0 * params.kappa2)
        other_key, other = self.advanced(phase, 1.6, mesh, scaled)
        assert other_key == key
        assert np.array_equal(grid.ubar, other.ubar)
        assert phase == 1 or np.array_equal(grid.half, other.half)


class TestAssembly:
    def test_first_step_rhs_is_boundary_coupling_only(self):
        # zero initial data: the only nonzero right-hand entry comes from
        # folding the hot-boundary value into the first interior row
        params = params_for(0, 0.5)
        g = scheme.make_phase_grid(1, 0.8, SMALL_MESH, params)
        system = scheme.assemble_phase1_step(g, 0)
        r_imp = -0.5 * (system.sub[0] + system.sup[0])
        q_1 = 0.5 * (system.sub[0] - system.sup[0])
        expected_first = (r_imp - q_1) * (1.0 / SMALL_MESH.n) ** -0.5
        assert system.rhs[0] == pytest.approx(expected_first, rel=1e-13)
        np.testing.assert_allclose(system.rhs[1:], 0.0, atol=1e-300)

    def test_alpha_one_memory_endpoint_weight(self):
        # at alpha = 1 the implicit-side memory coefficient reduces to
        # ds*kappa1 / (2 p^2 dv^2), with the step ds = 1/n in front time
        params = params_for(0, 1.0)
        g = scheme.make_phase_grid(1, 0.9, SMALL_MESH, params)
        system = scheme.assemble_phase1_step(g, 0)
        ds = 1.0 / SMALL_MESH.n
        r_imp = 0.5 * (system.diag[0] - ds ** 1.0)
        expected = ds * params.kappa1 / (2.0 * 0.9 ** 2 * g.dv ** 2)
        assert r_imp == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_phase_coeffs_rows_match_their_definitions(self, alpha):
        # each history row's step coefficients, row 0 among them, are set in
        # one place; pin them to their definitions bit for bit
        mesh = scheme.MeshConfig(m1=8, m2=20, n=12)
        ds = 1.0 / mesh.n
        table = fracquad.lag_table(0, alpha, ds)
        solid = scheme.make_phase_grid(2, 0.7, mesh, params_for(1, alpha))
        time, implicit, _, edges, rfac, _, initial = scheme._phase_coeffs(solid)
        scale = scheme._frame(solid)[1]
        assert time[0] == scheme._half_width(solid) ** 2
        assert np.array_equal(time[1:], scale[1:])
        assert implicit[0] == rfac * fracquad.half_weight(0.5, alpha, ds)
        assert implicit[1] == rfac * split_rule(0, alpha, ds)[1]
        assert np.array_equal(implicit[2:], np.full(mesh.n - 1, rfac * table.pref))
        assert np.array_equal(edges[0], solid.ubar[0, [0, -1]] * (mesh.ratio ** 2 / time[0]))
        assert np.array_equal(edges[1:], solid.ubar[1:, [0, -1]])
        assert np.array_equal(initial, solid.ubar[0, 1:-1] * scale[0])
        # the liquid's row 0 is the identity step that holds level 0
        liquid = scheme.make_phase_grid(1, 0.7, mesh, params_for(1, alpha))
        time, implicit, gq, edges, rfac = scheme._phase_coeffs(liquid)[:5]
        assert (time[0], implicit[0], gq[0]) == (1.0, 0.0, 0.0)
        assert np.array_equal(edges[0], [0.0, 0.0]) and not np.signbit(edges[0]).any()
        assert np.array_equal(implicit[1:], np.full(mesh.n, rfac * table.pref))

    def test_phase2_advective_factor_vanishes_at_outer_coordinate(self):
        # the (v - 1) factor kills the advective term at the far boundary;
        # interior factors are strictly negative
        params = params_for(0, 0.5)
        g = scheme.make_phase_grid(2, 0.8, SMALL_MESH, params)
        qfac_in = scheme._phase_coeffs(g)[5]
        assert (qfac_in < 0.0).all()
        assert qfac_in[-1] == pytest.approx(
            0.5 * (g.v[-2] - 1.0) / SMALL_MESH.n / (4.0 * g.dv), rel=1e-13)

    def test_requires_history_rows(self):
        g = scheme.make_phase_grid(1, 0.8, SMALL_MESH, params_for(0, 0.5))
        with pytest.raises(errors.InvalidStateError):
            scheme.assemble_phase1_step(g, 3)

    def test_phase_guards(self):
        g1 = scheme.make_phase_grid(1, 0.8, SMALL_MESH, params_for(0, 0.5))
        with pytest.raises(errors.InvalidInputError):
            scheme.assemble_phase2_step(g1, 0)
        g2 = scheme.make_phase_grid(2, 0.8, SMALL_MESH, params_for(0, 0.5))
        with pytest.raises(errors.InvalidInputError, match="expected a phase-1 grid"):
            scheme.assemble_phase1_step(g2, 0)
        # a float index is refused as trap_weights refuses one, in either phase
        for phase, assemble in ((1, scheme.assemble_phase1_step),
                                (2, scheme.assemble_phase2_step)):
            grid = scheme.advance_phase(scheme.make_phase_grid(phase, 0.8, SMALL_MESH,
                                                               params_for(0, 0.5)))
            with pytest.raises(errors.InvalidInputError,
                               match=r"^time index must be an integer in \[0, \d+\], got 2\.0$"):
                assemble(grid, 2.0)

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

    @pytest.mark.parametrize("dominant", [True, False])
    @pytest.mark.parametrize("size", [1, 2, 3, 63, 64, 65, 255, 256, 257, 511, 512, 513])
    def test_against_dense_solver_around_scan_offsets(self, rng, size, dominant):
        # the scan's offsets are the powers of two below size: cover the
        # sizes where one more offset starts; rows that are not diagonally
        # dominant may lose accuracy only with the condition number
        sub = rng.uniform(-1.0, 1.0, size)
        sup = rng.uniform(-1.0, 1.0, size)
        if dominant:
            diag = 2.5 + np.abs(sub) + np.abs(sup)
        else:
            diag = rng.uniform(0.5, 1.5, size) * (np.abs(sub) + np.abs(sup)) + 0.1
        rhs = rng.standard_normal(size)
        dense = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        expected = np.linalg.solve(dense, rhs)
        got = scheme.thomas_solve(self._system(sub, diag, sup, rhs))
        bound = 1e-12 * (1.0 if dominant else np.linalg.cond(dense))
        assert np.abs(got - expected).max() <= bound * np.abs(expected).max()

    def test_bit_identical_to_numpy_scalar_elimination(self, rng):
        # reference: the same pivots and doubling scan indexing numpy arrays
        # element by element, in the stepper's order: F_1 = -(sub/pivot),
        # G_1 = -mult, F_2s[i] = F_s[i]*F_s[i-s], G_2s[i] = G_s[i]*G_s[i+s],
        # and each offset's step reads the previous step's values
        size = 40
        sub = rng.uniform(-1.0, 1.0, size)
        sup = rng.uniform(-1.0, 1.0, size)
        diag = 2.5 + np.abs(sub) + np.abs(sup)
        rhs = rng.standard_normal(size)
        pivot = np.empty(size)
        mult = np.empty(size)
        pivot[0] = diag[0]
        mult[0] = sup[0] / pivot[0]
        for i in range(1, size):
            pivot[i] = diag[i] - sub[i] * mult[i - 1]
            mult[i] = sup[i] / pivot[i]
        forward = {1: {i: -(sub[i] / pivot[i]) for i in range(1, size)}}
        back = {1: {i: -mult[i] for i in range(size - 1)}}
        s = 1
        while 2 * s < size:
            forward[2 * s] = {i: forward[s][i] * forward[s][i - s] for i in range(2 * s, size)}
            back[2 * s] = {i: back[s][i] * back[s][i + s] for i in range(size - 2 * s)}
            s *= 2
        x = np.empty(size)
        for i in range(size):
            x[i] = rhs[i] / pivot[i]
        for s in sorted(forward):
            before = x.copy()
            for i in range(s, size):
                x[i] = before[i] + forward[s][i] * before[i - s]
        for s in sorted(back):
            before = x.copy()
            for i in range(size - s):
                x[i] = before[i] + back[s][i] * before[i + s]
        got = scheme.thomas_solve(self._system(sub, diag, sup, rhs))
        assert np.array_equal(got, x)

    @pytest.mark.parametrize("size", [1, 2, 3, 63, 64, 65, 255, 256, 257])
    @pytest.mark.parametrize("short", [False, True])
    def test_chunk_coefficients_match_each_system_alone(self, rng, size, short):
        # a chunk's coefficients are formed over its flattened rows, so a
        # product may cross from one system into the next: every entry the
        # scan reads must still be that system's own, bit for bit.  reach is
        # the size, or (short) below it, as in a pair whose larger phase
        # has fewer unknowns than the joint row
        reach = max(1, size - size // 3) if short else size
        count = 5
        sub = rng.uniform(-1.0, 1.0, (count, size))
        sup = rng.uniform(-1.0, 1.0, (count, size))
        pivot, mult = scheme._factor(sub, sup, 2.5 + np.abs(sub) + np.abs(sup))
        width = 2 * len(scheme._offsets(reach)) * size
        # unwritten buffer entries hold nan, which no two arrays equal
        chunk = scheme._coefficients(sub, pivot, mult, np.full(count * width, np.nan), reach)
        assert len(chunk[0]) == len(chunk[1]) == len(scheme._offsets(reach))
        for b in range(count):
            alone = scheme._coefficients(sub[b:b + 1], pivot[b:b + 1], mult[b:b + 1],
                                         np.full(width, np.nan), reach)
            for chunked, single in zip(chunk, alone):
                for mine, own in zip(chunked, single):
                    assert np.array_equal(mine[b], own[0])

    def test_zero_pivot(self):
        system = self._system([0, -1], [0.0, 2.0], [-1, 0], [1.0, 1.0])
        with pytest.raises(errors.ZeroPivotError):
            scheme.thomas_solve(system)

    @pytest.mark.parametrize(("lengths", "size"), [
        ((3, 3, 2, 3), 3),  # a short sup: elimination read pivots never written
        ((3, 3, 3, 3), 7),  # a size the diagonals do not have
        ((4, 3, 3, 3), 3),  # a long sub
        ((3, 3, 3, 4), 3),  # a long rhs
    ])
    def test_rejects_malformed_system(self, lengths, size):
        sub, diag, sup, rhs = (np.full(length, value)
                               for length, value in zip(lengths, (1.0, 4.0, 1.0, 1.0)))
        system = scheme.TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs, size=size)
        got = ", ".join(f"{name} {length}"
                        for name, length in zip(("sub", "diag", "sup", "rhs"), lengths))
        with pytest.raises(errors.InvalidInputError,
                           match=rf"of length size = {size}, got {got}$"):
            scheme.thomas_solve(system)

    @pytest.mark.parametrize("size", [0, 2.0])
    def test_rejects_size_other_than_positive_integer(self, size):
        system = scheme.TridiagonalSystem(sub=np.ones(2), diag=np.full(2, 4.0), sup=np.ones(2),
                                          rhs=np.ones(2), size=size)
        with pytest.raises(errors.InvalidInputError,
                           match=rf"^system size must be an integer >= 1, got {size!r}$"):
            scheme.thomas_solve(system)

    def test_rejects_non_vector_diagonal(self):
        system = self._system(np.ones(3), np.full(3, 4.0), np.ones(3), np.ones(3))
        with pytest.raises(errors.InvalidInputError, match=r"diag of shape \(1, 3\)"):
            scheme.thomas_solve(replace(system, diag=system.diag[None]))

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
            ref_first = first_row(ref)
            if phase == 1:
                assert fast.half is None and np.array_equal(ref_first, ref.ubar[0])
            else:
                assert np.array_equal(fast.half, ref_first)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_matches_stepwise_reference_across_blocks(self, alpha):
        # advance_phase factors the systems of a block of levels at once; n
        # spans two full blocks and a partial third, so the pivots of every
        # block, not only the first, must carry the oracle's bits
        m = 250
        n = 2 * (scheme._BLOCK_VALUES // (m - 1)) + 3
        mesh = scheme.MeshConfig(m1=m, m2=m, n=n)
        params = params_for(1, alpha)
        for phase in (1, 2):
            fast = scheme.advance_phase(scheme.make_phase_grid(phase, 0.7, mesh, params))
            ref = scheme.make_phase_grid(phase, 0.7, mesh, params)
            assemble = scheme.assemble_phase1_step if phase == 1 else scheme.assemble_phase2_step
            for k in range(n):
                ref.ubar[k + 1, 1:-1] = scheme.thomas_solve(assemble(ref, k))
                ref.filled_through = k + 1
            assert np.array_equal(fast.ubar, ref.ubar)
        # the second block's memory products run over two runs of its levels
        starts = [start for start, run in scheme._plan(fast)]
        assert [starts.count(start) for start in sorted(set(starts))] == [1, 2, 1]

    @pytest.mark.parametrize(("m", "n", "phase"), [(3, 2000, 1), (50, 1600, 2)])
    def test_memory_bounded_by_block_values(self, m, n, phase):
        # besides the stored differences, advance_phase holds a few arrays of
        # at most _BLOCK_VALUES values, however long the time axis: at m = 3
        # one block spans all 2000 levels, whose whole weight rows would be
        # 16 MB.  A block's set-up keeps at most five block-sized arrays
        # alive at once (_rows, _factor): the peak is 8.28 _BLOCK_VALUES
        # arrays above the stored differences at m = 50
        g = scheme.make_phase_grid(phase, 0.7, scheme.MeshConfig(m1=m, m2=m, n=n),
                                   params_for(1, 0.5))
        tracemalloc.start()
        try:
            scheme.advance_phase(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = (n + 1) * (m - 1) * 8
        assert peak <= stored + 10 * scheme._BLOCK_VALUES * 8

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_block_split_memory_sum_is_plain_sum(self, alpha):
        # the oracle takes the stepper's split, so tie the split to the
        # definition: at every level of three blocks, the stepper's memory
        # sum (rows before the block in one product per run, the block's
        # own rows per level), run over the advanced grid's rows with
        # rfac = 1, equals c[:k+1] @ d2[:k+1] over rebuilt rows, to 1e-13
        # of |c| @ |d2|, the scale of a reordered sum's rounding
        m = 250
        mesh = scheme.MeshConfig(m1=m, m2=m, n=2 * (scheme._BLOCK_VALUES // (m - 1)) + 3)
        params = params_for(1, alpha)
        for phase in (1, 2):
            g = scheme.advance_phase(scheme.make_phase_grid(phase, 0.7, mesh, params))
            first = first_row(g)
            d2 = scheme._differences(np.vstack((first, g.ubar[1:])))[0]
            table = fracquad.lag_table(mesh.n - 1, alpha, 1.0 / mesh.n)
            out = np.zeros(m - 1)
            terms = scheme._memory_terms(g, 1.0, table, d2, out)
            next(terms)  # the step that solves row 0, which has no history
            sums = dict(enumerate(out.copy() for _ in terms))
            assert len({start for start, run in scheme._plan(g)}) == 3
            assert sorted(sums) == list(range(mesh.n))
            for k in range(mesh.n):
                c = scheme._step_weights(g, table, k)[:k + 1]
                bound = 1e-13 * (np.abs(c) @ np.abs(d2[:k + 1]))
                assert (np.abs(sums[k] - c @ d2[:k + 1]) <= bound).all()

    def test_dominance_count_matches_stepwise_reference(self, caplog):
        # the advance's warning counts the violations of every level, the
        # solid's half-step included, as the oracle's systems do one by one
        mesh = scheme.MeshConfig(m1=20, m2=100, n=4)
        params = params_for(0, 0.75)
        for phase, expected in ((1, 4), (2, 19)):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="fracstefan.scheme"):
                grid = scheme.advance_phase(scheme.make_phase_grid(phase, 10.0, mesh, params))
            logged = [record.args[0] for record in caplog.records
                      if record.msg.startswith("diagonal dominance violated %d times")]
            ref = scheme.make_phase_grid(phase, 10.0, mesh, params)
            assemble = scheme.assemble_phase1_step if phase == 1 else scheme.assemble_phase2_step
            oracle = 0
            for k in range(mesh.n):
                system = assemble(ref, k)  # at k = 0 the solid's half-step is counted in
                oracle += system.dominance_violations
                ref.ubar[k + 1] = grid.ubar[k + 1]
                ref.filled_through = k + 1
            assert logged == [oracle] == [expected]

    @pytest.mark.parametrize("phase", [1, 2])
    def test_scan_chunks_do_not_change_bits(self, phase, monkeypatch):
        # the scan coefficients are products within each level, so how the
        # levels are chunked must not change a bit.  One block of 32 levels
        # at m = 17 under both settings keeps the memory sums' split, which
        # does move bits; at 2**9 the 33 history rows' coefficients, of four
        # offsets over 16 unknowns each, span five chunks
        mesh = scheme.MeshConfig(m1=17, m2=17, n=32)
        params = params_for(1, 0.5)
        whole = scheme.advance_phase(scheme.make_phase_grid(phase, 0.7, mesh, params))
        monkeypatch.setattr(scheme, "_BLOCK_VALUES", 2 ** 9)
        chunked = scheme.advance_phase(scheme.make_phase_grid(phase, 0.7, mesh, params))
        assert {start for start, run in scheme._plan(chunked)} == {0}
        unknowns = mesh.m1 - 1
        assert 2 ** 9 // (len(scheme._offsets(unknowns)) * unknowns) == 8  # levels per chunk
        assert np.array_equal(chunked.ubar, whole.ubar)

    def test_overflowing_far_field_is_invalid_state(self):
        # theta_inf times the solid's squared width overflows: the advance
        # ends in its typed error, with no numpy warning on the way
        params = analytic.PhysicalParams(alpha=0.5, theta_inf=-1.7e308)
        grid = scheme.make_phase_grid(2, 0.7, scheme.MeshConfig(m1=10, m2=40, n=20), params)
        with pytest.raises(errors.InvalidStateError, match="non-finite values"):
            scheme.advance_phase(grid)

    def test_overflowing_far_field_is_invalid_state_in_the_oracle(self):
        # the stepwise oracle fails as the stepper does: its half level
        # overflows, and it raises its typed error, with no numpy warning
        params = analytic.PhysicalParams(alpha=0.5, theta_inf=-1.7e308)
        grid = scheme.make_phase_grid(2, 0.74, scheme.MeshConfig(m1=10, m2=40, n=20), params)
        with pytest.raises(errors.InvalidStateError,
                           match=r"^non-finite values while assembling phase 2's step to "
                                 r"level 1/2 \(p=0\.74\)$"):
            scheme.assemble_phase2_step(grid, 0)

    @pytest.mark.parametrize("phase", [1, 2])
    def test_oracle_names_the_level_of_a_non_finite_system(self, phase):
        # a history row that holds a nan makes every later system non-finite
        grid = scheme.advance_phase(scheme.make_phase_grid(phase, 0.7, SMALL_MESH,
                                                           params_for(1, 0.5)))
        grid.ubar[3, 2] = math.nan
        assemble = scheme.assemble_phase1_step if phase == 1 else scheme.assemble_phase2_step
        assemble(grid, 2)
        with pytest.raises(errors.InvalidStateError,
                           match=rf"^non-finite values while assembling phase {phase}'s step to "
                                 r"level 4 \(p=0\.7\)$"):
            assemble(grid, 3)

    @pytest.mark.parametrize("phase", [1, 2])
    def test_zero_pivot_raises_at_its_level(self, phase, monkeypatch):
        # a diagonal of exactly -2r at one level in the second block zeroes
        # that level's first pivot: the levels before it are solved as
        # without the defect, the level itself and those after are not
        mesh = scheme.MeshConfig(m1=250, m2=250, n=150)
        level = scheme._BLOCK_VALUES // (mesh.m1 - 1) + 10
        params = params_for(0, 0.5)
        clean = scheme.advance_phase(scheme.make_phase_grid(phase, 0.7, mesh, params))
        phase_coeffs = scheme._phase_coeffs

        def defective(grid):
            time, implicit, *rest = phase_coeffs(grid)
            time[level] = -2.0 * implicit[level]
            return (time, implicit, *rest)

        monkeypatch.setattr(scheme, "_phase_coeffs", defective)
        grid = scheme.make_phase_grid(phase, 0.7, mesh, params)
        with pytest.raises(errors.ZeroPivotError,
                           match=rf"^phase {phase}, p=0\.7: zero pivot at row 0$"):
            scheme.advance_phase(grid)
        assert np.array_equal(grid.ubar[:level], clean.ubar[:level])
        assert not grid.ubar[level:, 1:-1].any()

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_running_advective_sum_is_rectangle_rule(self, alpha):
        # independent of the oracle's cumulative sum: each level k+1 of the
        # advanced grid solves its step with the advective history written
        # as the rectangle rule gq[:k+1] @ dc[:k+1] over the grid's own
        # history rows, row 0 solved as the oracle solves it (first_row)
        mesh = scheme.MeshConfig(m1=8, m2=40, n=400)
        params = params_for(1, alpha)
        for phase in (1, 2):
            g = scheme.advance_phase(scheme.make_phase_grid(phase, 0.7, mesh, params))
            coeffs = scheme._phase_coeffs(g)
            gq = coeffs[2]
            first = first_row(g)
            for k in (0, 1, 2, mesh.n // 2, mesh.n - 1):
                d2, dc = scheme._differences(np.vstack((first, g.ubar[1:k + 1])))
                adv = gq[:k + 1] @ dc
                c = scheme._step_weights(g, fracquad.lag_table(k, alpha, 1.0 / mesh.n), k)
                row = scheme.thomas_solve(scheme._step_system(k + 1, coeffs, c[:k + 1] @ d2, adv))
                scale = np.abs(g.ubar[k + 1]).max()
                assert np.abs(row - g.ubar[k + 1, 1:-1]).max() <= 1e-12 * scale

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    def test_weight_rows_match_per_step_weights(self, alpha):
        # every reader of a phase's weight row gives the rule's bits, across
        # SERIES_LAG (1415), where the interior factor switches to its
        # series: trap_weights (a table of the step alone; the liquid's
        # rule), _step_weights (the oracle's and the balance's full rows,
        # from the grid's table) and the stepper's windows (_run_weights for
        # c[:start+1] of its run, _level_weights for its block's own rows,
        # the new level's weight c[k+1] in the implicit coefficient).  The
        # solid's rule is split_rule, from trap_weights and half_weight alone
        ks = (0, 1, 2, 1413, 1414, 1415, 1416, 2000)
        mesh = scheme.MeshConfig(m1=2, m2=2, n=2001)
        ds = 1.0 / mesh.n
        params = params_for(0, alpha)
        table = fracquad.lag_table(mesh.n - 1, alpha, ds)
        for phase in (1, 2):
            g = scheme.make_phase_grid(phase, 0.7, mesh, params)
            implicit, rfac = (scheme._phase_coeffs(g)[i] for i in (1, 4))
            for k in ks:
                ref = (fracquad.trap_weights(k, alpha, ds).c if phase == 1
                       else split_rule(k, alpha, ds))
                start, run = next((start, run) for start, run in scheme._plan(g) if k in run)
                window = np.concatenate((
                    scheme._run_weights(g, table, run, start)[k - run.start],
                    scheme._level_weights(g, table, start, k, np.empty(mesh.n))))
                assert np.array_equal(scheme._step_weights(g, table, k), ref)
                assert np.array_equal(window, ref[:k + 1])
                assert implicit[k + 1] == rfac * ref[-1]

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_stepper_is_p_free(self, alpha):
        # p enters a step only as kappa_i/p**2; at p = 2 both p**2 and
        # kappa/4 are exact, so (p, kappa) and (1, kappa/4) advance alike
        params = params_for(1, alpha)
        quarter = replace(params, kappa1=params.kappa1 / 4.0, kappa2=params.kappa2 / 4.0)
        for phase in (1, 2):
            g = scheme.advance_phase(scheme.make_phase_grid(phase, 2.0, SMALL_MESH, params))
            ref = scheme.advance_phase(scheme.make_phase_grid(phase, 1.0, SMALL_MESH, quarter))
            assert np.array_equal(g.ubar, ref.ubar)
            assert phase == 1 or np.array_equal(g.half, ref.half)

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

    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("alpha", [
        *(pytest.param(alpha, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 3: the memory along fixed v is not the model's, "
                   "so the grid does not converge at alpha < 1"))
          for alpha in (0.25, 0.5, 0.75)),
        1.0,
    ])
    def test_each_phase_converges_at_the_exact_p(self, alpha, phase):
        # row 0 at its exact p, m1/m2 = 50/250, each phase advanced alone: the
        # final level's error against the closed form (solid nodes x <= 4p)
        # must at least halve from n = 100 to 400.  Measured: alpha = 1 by
        # 12.2x (liquid) and 6.15x (solid); alpha < 1 by 1.11-1.78x (liquid)
        # and 0.88-0.98x (solid)
        params = params_for(0, alpha)
        p = analytic.solve_p_exact(params)
        sol = analytic.ExactSolution(p, params)
        field = analytic.u1_exact if phase == 1 else analytic.u2_exact
        errs = []
        for n in (100, 400):
            mesh = scheme.MeshConfig(m1=50, m2=250, n=n)
            g = scheme.advance_phase(scheme.make_phase_grid(phase, p, mesh, params))
            f = scheme.recover_physical(g)
            keep = f.x[-1] <= 4.0 * p if phase == 2 else slice(None)
            x, u = f.x[-1, keep], f.u[-1, keep]
            errs.append(np.abs(exact_row(field, x, g.tau[-1], sol) - u).max())
        assert errs[1] <= 0.5 * errs[0]


def phase_grids(p, mesh, params):
    """A fresh liquid and solid grid of one candidate."""
    return [scheme.make_phase_grid(phase, p, mesh, params) for phase in (1, 2)]


class TestAdvancePair:
    @pytest.mark.parametrize("m1, m2, n", [(50, 250, 200), (300, 40, 120), (250, 250, 200)])
    @pytest.mark.parametrize("alpha", [0.25, 1.0])
    @pytest.mark.parametrize("p", [0.1, 2.0])
    def test_rows_and_half_match_separate_advances(self, m1, m2, n, alpha, p):
        # one scan solves both phases, each with its own memory split: the
        # products across the front rows are +-0, so each phase keeps the
        # bits of its own advance.  The factor blocks hold
        # 2 * _BLOCK_VALUES // (m1 + m2) levels: one block at 50/250 and
        # 300/40, two at 250/250.  The larger grid's memory split is two
        # blocks; at 50/250 the liquid's is one
        mesh = scheme.MeshConfig(m1=m1, m2=m2, n=n)
        params = params_for(1, alpha)
        alone = [scheme.advance_phase(grid) for grid in phase_grids(p, mesh, params)]
        liquid, solid = scheme.advance_pair(*phase_grids(p, mesh, params))
        larger = max(alone, key=lambda grid: grid.m)
        assert len({start for start, run in scheme._plan(larger)}) == 2
        assert np.array_equal(liquid.ubar, alone[0].ubar)
        assert np.array_equal(solid.ubar, alone[1].ubar)
        assert liquid.half is None and np.array_equal(solid.half, alone[1].half)
        assert liquid.filled_through == solid.filled_through == n

    def test_dominance_warnings_match_separate_advances(self, caplog):
        mesh = scheme.MeshConfig(m1=20, m2=100, n=4)
        params = params_for(0, 0.75)
        logged = []
        for advance in (lambda grids: [scheme.advance_phase(grid) for grid in grids],
                        lambda grids: scheme.advance_pair(*grids)):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="fracstefan.scheme"):
                advance(phase_grids(10.0, mesh, params))
            logged.append([record.getMessage() for record in caplog.records])
        assert logged[0] == logged[1]
        assert [line.split()[3] for line in logged[1]] == ["4", "19"]

    @pytest.mark.parametrize("phase", [1, 2])
    def test_zero_pivot_names_its_phase(self, phase, monkeypatch):
        # as test_zero_pivot_raises_at_its_level, in one phase of a pair:
        # both grids are solved through the level before, neither further
        mesh = scheme.MeshConfig(m1=250, m2=250, n=150)
        level = scheme._BLOCK_VALUES // (mesh.m1 - 1) + 10
        params = params_for(0, 0.5)
        clean = scheme.advance_pair(*phase_grids(0.7, mesh, params))
        phase_coeffs = scheme._phase_coeffs

        def defective(grid):
            time, implicit, *rest = phase_coeffs(grid)
            if grid.phase == phase:
                time[level] = -2.0 * implicit[level]
            return (time, implicit, *rest)

        monkeypatch.setattr(scheme, "_phase_coeffs", defective)
        grids = phase_grids(0.7, mesh, params)
        with pytest.raises(errors.ZeroPivotError,
                           match=rf"^phase {phase}, p=0\.7: zero pivot at row 0$"):
            scheme.advance_pair(*grids)
        for grid, ref in zip(grids, clean):
            assert np.array_equal(grid.ubar[:level], ref.ubar[:level])
            assert not grid.ubar[level:, 1:-1].any()

    @pytest.mark.parametrize(("m1", "m2", "n"), [(3, 3, 2000), (50, 50, 1600), (50, 250, 1600),
                                                 (3, 250, 2000)])
    def test_memory_bounded_by_block_values(self, m1, m2, n):
        # the factor blocks hold 2 * _BLOCK_VALUES // (m1 + m2) levels of
        # the joint row, so their arrays span about twice _BLOCK_VALUES
        # values at any m1 and m2; each phase keeps its own memory
        # products.  With at most five block-sized arrays per set-up,
        # 50/50/1600 peaks at 13.61 _BLOCK_VALUES arrays above the stored
        # differences, 50/250/1600 at 14.38 and 3/250/2000 at 14.01
        grids = phase_grids(0.7, scheme.MeshConfig(m1=m1, m2=m2, n=n), params_for(1, 0.5))
        tracemalloc.start()
        try:
            scheme.advance_pair(*grids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = (n + 1) * (m1 - 1 + m2 - 1) * 8
        assert peak <= stored + 17 * scheme._BLOCK_VALUES * 8

    def test_overflowing_far_field_names_the_solid(self):
        # the solid's half level overflows first (level 1/2); the nan that
        # crosses into the liquid shows only from level 1
        params = analytic.PhysicalParams(alpha=0.5, theta_inf=-1.7e308)
        grids = phase_grids(0.7, scheme.MeshConfig(m1=10, m2=40, n=20), params)
        with pytest.raises(errors.InvalidStateError,
                           match=r"^non-finite values while advancing phase 2 \(p=0\.7\)$"):
            scheme.advance_pair(*grids)
        assert not np.isfinite(grids[0].ubar[1]).all()

    @pytest.mark.parametrize(("phase", "column", "value"),
                             [(2, -1, 1.7e308), (1, 0, math.nan), (2, -1, math.nan)])
    def test_tie_names_the_phase_holding_an_infinity_else_the_liquid(self, phase, column,
                                                                      value):
        # a boundary value at level 5 turns that phase's rows non-finite
        # there, and the other's too, through the front rows: an overflow
        # (an infinity) is named, a nan in either phase names the liquid
        grids = phase_grids(0.7, scheme.MeshConfig(m1=10, m2=40, n=20), params_for(0, 0.5))
        grids[phase - 1].ubar[5, column] = value
        named = 2 if value == 1.7e308 else 1
        with pytest.raises(errors.InvalidStateError,
                           match=rf"^non-finite values while advancing phase {named} "):
            scheme.advance_pair(*grids)
        for grid in grids:
            assert np.isfinite(grid.ubar[:5]).all() and not np.isfinite(grid.ubar[5]).all()

    def test_rejects_grids_of_other_phases_or_time_axes(self):
        params = params_for(0, 0.5)
        liquid, solid = phase_grids(0.7, SMALL_MESH, params)
        with pytest.raises(errors.GridMismatchError, match="expected phases"):
            scheme.advance_pair(solid, liquid)
        longer = scheme.make_phase_grid(2, 0.7, replace(SMALL_MESH, n=SMALL_MESH.n + 1), params)
        with pytest.raises(errors.GridMismatchError, match="n 20 vs 21"):
            scheme.advance_pair(liquid, longer)


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

    @pytest.mark.parametrize("phase", [1, 2])
    def test_memory_is_the_returned_arrays(self, phase):
        # recover_physical holds no field-sized temporary: its traced peak is
        # its two returned arrays and about 0.1 field of numpy's buffers
        # (2.09 fields in either phase)
        g = scheme.make_phase_grid(phase, 0.7, scheme.MeshConfig(m1=250, m2=250, n=800),
                                   params_for(1, 0.5))
        tracemalloc.start()
        try:
            f = scheme.recover_physical(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.x.nbytes == f.u.nbytes == g.ubar.nbytes
        assert peak <= 2.25 * g.ubar.nbytes

    def test_classical_late_time_regression(self):
        # alpha = 1 at the production mesh: the recovered temperatures match
        # the closed forms to 1e-2 on the emitted profile levels (the early
        # transient of the single uniform first step decays by ~level 23)
        params = params_for(1, 1.0)
        p = analytic.solve_p_exact(params)
        sol = analytic.ExactSolution(p, params)
        mesh = scheme.MeshConfig()
        g1 = scheme.advance_phase(scheme.make_phase_grid(1, p, mesh, params))
        g2 = scheme.advance_phase(scheme.make_phase_grid(2, p, mesh, params))
        f1 = scheme.recover_physical(g1)
        f2 = scheme.recover_physical(g2)
        for j in (mesh.n // 4, mesh.n // 2, 3 * mesh.n // 4, mesh.n):
            tau = g1.tau[j]
            exact1 = exact_row(analytic.u1_exact, f1.x[j], tau, sol)
            exact2 = exact_row(analytic.u2_exact, f2.x[j], tau, sol)
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
