"""Acceptance gate: one pass/fail line per exit criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Two criteria are asserted exactly as stated and fail with the measured
numbers in the failure message, because of faults in the scheme that are
not mended yet; their bounds stay as they are:

* criterion 3: the frame-motion history is summed with unit weights, which
  at alpha < 1 makes the grid coefficient drift with log n; the reference
  clause also asks for agreement with the external run to about alpha
  percent in p, which only that run's exact discretization could give;
* criterion 4: the liquid's first time step is one uniform step across
  about 6.9 units of log-time (tau_0 to tau_1), too coarse for the profile
  that forms there, so the first levels are far from the similarity
  solution.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import (
    ALPHAS,
    P_EXACT_PRINTED,
    P_NUMERIC_REF,
    ROWS,
    TAU_FINAL_REF,
    kernel_integral_pwl,
    params_for,
)
from fracstefan import (
    PhysicalParams,
    analytic,
    bisection_solve,
    final_time,
    fronttrack,
    scheme,
    solve_p_exact,
    specfun,
)

PROD_MESH = scheme.MeshConfig()  # ratio=10, m1=100, m2=500, n=400
CELLS = [(row, alpha) for row in range(len(ROWS)) for alpha in ALPHAS]


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" -- {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} [{status}] {name}{tail}")


@pytest.fixture(scope="module")
def table2_results():
    results = {}
    for row, alpha in CELLS:
        results[(row, alpha)] = bisection_solve(params_for(row, alpha), PROD_MESH)
    return results


@pytest.fixture(scope="module")
def numeric_grids(table2_results):
    return {cell: result.grids for cell, result in table2_results.items()}


def test_criterion_1_exact_front_coefficients():
    """Transcendental-equation roots vs the 4-decimal reference, +-5e-4.

    Guarded by the far-field reconstruction oracle: the theta_inf value
    fitted from the two classical-limit reference roots must agree between
    rows to +-0.01; if it did not, the fallback check would be internal
    consistency of the classical column instead of reference reproduction.
    """
    fits = []
    for row, p_ref in ((0, 0.9397), (1, 0.7555)):
        l1, l2, k1, k2 = ROWS[row]

        def residual(theta, l1=l1, l2=l2, k1=k1, k2=k2, p=p_ref):
            params = PhysicalParams(alpha=1.0, lambda1=l1, lambda2=l2,
                                    kappa1=k1, kappa2=k2, theta_inf=theta)
            return analytic.transcendental_residual(p, params)

        fits.append(brentq(residual, -0.9, -0.1, xtol=1e-12))
    reconstruction_ok = abs(fits[0] - fits[1]) < 0.01

    if not reconstruction_ok:
        worst = 0.0
        for row in range(len(ROWS)):
            p = solve_p_exact(params_for(row, 1.0))
            worst = max(worst, abs(analytic.transcendental_residual(p, params_for(row, 1.0))))
        ok = worst < 1e-8
        report(1, "exact front coefficients (fallback: classical-column consistency)",
               ok, f"worst residual {worst:.2e}")
        assert ok
        return

    worst = 0.0
    for row, alpha in CELLS:
        p = solve_p_exact(params_for(row, alpha), tol=1e-10)
        worst = max(worst, abs(p - P_EXACT_PRINTED[(row, alpha)]))
    ok = worst <= 5e-4
    report(1, "exact front coefficients reproduce the 4-decimal reference", ok,
           f"theta_inf fits {fits[0]:.4f}/{fits[1]:.4f}, worst |dp| {worst:.2e}")
    assert ok


def test_criterion_2_numeric_front_coefficients(table2_results):
    """Grid-solver coefficients vs the external reference, +-2% relative."""
    worst = 0.0
    failures = []
    for (row, alpha), result in table2_results.items():
        ref = P_NUMERIC_REF[(row, alpha)]
        rel = abs(result.p - ref) / ref
        worst = max(worst, rel)
        if rel > 0.02 or not result.converged:
            failures.append((row, alpha, rel))
    ok = not failures
    report(2, "numeric front coefficients within 2% of reference", ok,
           f"worst relative deviation {worst:.3%}")
    assert ok, failures


def test_criterion_3_final_time_identity_and_reference(table2_results):
    """Final times: exact p**(-2/alpha) identity, then +-2% vs reference,
    plus the 4% numeric-vs-exact coefficient consistency bound.

    The identity holds to roundoff.  The other two clauses fail:

    * consistency: the frame-motion (advective) history in the steppers is
      a sum with unit weights.  For the similarity solution that sum is
      (alpha/2) * v * F'(v) * sum_{j<=k} 1/j, which grows like log k; at
      alpha < 1 the memory term stays bounded and does not cancel it, so
      the grid root drifts with log n instead of converging (measured at
      row 0, alpha = 0.5: -0.16%, -2.2%, -4.2% at n = 100, 400, 1600).
    * reference: tau = p**(-2/alpha) amplifies relative coefficient
      differences by 2/alpha (8x at alpha = 0.25), so the 2% band on tau
      asks for agreement with the external run to about alpha percent in
      p.  Only that run's exact discretization could give this, and
      P_NUMERIC_REF itself sits 0.85-3.55% from the exact roots at
      alpha < 1.
    """
    worst_identity = 0.0
    worst_ref = 0.0
    worst_consistency = 0.0
    failures = []
    for (row, alpha), result in table2_results.items():
        tau_emitted = final_time(result.p, alpha)
        dtau = 1.0 / (PROD_MESH.n * result.p ** (2.0 / alpha))
        tau_grid = PROD_MESH.n * dtau
        worst_identity = max(worst_identity,
                             abs(tau_emitted - tau_grid) / tau_grid)
        ref = TAU_FINAL_REF[(row, alpha)]
        rel = abs(tau_emitted - ref) / ref
        worst_ref = max(worst_ref, rel)
        if rel > 0.02:
            failures.append((row, alpha, round(rel, 4)))
        p_exact = solve_p_exact(params_for(row, alpha))
        worst_consistency = max(worst_consistency,
                                abs(result.p - p_exact) / p_exact)
    identity_ok = worst_identity <= 1e-12
    ref_ok = not failures
    consistency_ok = worst_consistency <= 0.04
    report(3, "final-time identity, reference reproduction, p consistency",
           identity_ok and ref_ok and consistency_ok,
           f"identity dev {worst_identity:.2e}; worst reference dev {worst_ref:.3%} "
           f"(2/alpha-amplified), offending cells {failures}; worst "
           f"numeric-vs-exact coefficient gap {worst_consistency:.3%} (bound 4%)")
    assert identity_ok
    assert ref_ok and consistency_ok, (
        "cross-checks fail as stated: p**(-2/alpha) amplifies the sub-2% "
        f"coefficient deviations by 2/alpha (cells {failures}); grid-vs-exact "
        f"coefficient gap peaks at {worst_consistency:.3%}"
    )


def test_criterion_4_classical_regression():
    """alpha = 1 recovered temperatures vs the erfc closed forms, 1e-2.

    Asserted over every computed space-time node (levels 1..n) as stated.
    It fails on the first levels: the liquid's first step is one uniform
    step from tau_0 to tau_1, about 6.9 units of log-time, far too coarse
    for the profile that forms over that span (measured: liquid 0.07-0.15
    off at levels 1-2, below 1e-2 from level 23 of 400, about 2e-3 over
    the last three quarters).  The empty initial liquid is not the cause:
    from the same all-zero level-0 row, 10 backward-Euler substeps spread
    evenly in ln(tau) over [tau_0, tau_1] land within 1.2e-7 of the
    similarity profile at level 1.  The failure message reports the split.
    """
    worst_all = 0.0
    worst_late = 0.0
    settle_levels = []
    for row in range(len(ROWS)):
        params = params_for(row, 1.0)
        p = solve_p_exact(params)
        g1 = scheme.advance_phase(scheme.make_phase_grid(1, p, PROD_MESH, params))
        g2 = scheme.advance_phase(scheme.make_phase_grid(2, p, PROD_MESH, params))
        f1 = scheme.recover_physical(g1)
        f2 = scheme.recover_physical(g2)
        level_err = np.zeros(PROD_MESH.n + 1)
        for j in range(1, PROD_MESH.n + 1):
            tau = float(g1.tau[j])
            e1 = np.abs(f1.u[j] - analytic.u1_classical(f1.x[j], tau, p, params.kappa1)).max()
            e2 = np.abs(f2.u[j] - analytic.u2_classical(
                f2.x[j], tau, p, params.kappa2, params.theta_inf)).max()
            level_err[j] = max(e1, e2)
        worst_all = max(worst_all, float(level_err.max()))
        worst_late = max(worst_late, float(level_err[PROD_MESH.n // 4:].max()))
        above = np.nonzero(level_err > 1e-2)[0]
        settle_levels.append(int(above.max()) + 1 if above.size else 1)
    ok = worst_all <= 1e-2
    report(4, "classical-order regression over all computed nodes", ok,
           f"max over all levels {worst_all:.3f}; settles below 1e-2 from "
           f"level {max(settle_levels)} of {PROD_MESH.n}; max over the last "
           f"three quarters {worst_late:.2e}")
    assert ok, (
        "as stated the bound includes the start-up transient levels: "
        f"max {worst_all:.3f} over all nodes vs {worst_late:.2e} once settled"
    )


def test_criterion_5_special_function_identities():
    """erfc and Gaussian closed forms of the series, plus the k=0 value."""
    zs = np.linspace(0.0, 5.0, 51)
    worst_erfc = max(abs(specfun.wright(-z, -0.5, 1.0) - specfun.erfc(z / 2.0))
                     for z in zs)
    worst_gauss = max(abs(specfun.wright(-z, -0.5, 0.5)
                          - math.exp(-z * z / 4.0) / math.sqrt(math.pi))
                      for z in zs)
    exact_at_zero = all(
        specfun.wright(0.0, g, d) == specfun.reciprocal_gamma(d)
        for g in (-0.5, -0.375, -0.125)
        for d in (0.5, 0.625, 0.8125, 1.0)
    )
    ok = worst_erfc <= 1e-10 and worst_gauss <= 1e-10 and exact_at_zero
    report(5, "special-function identity suite", ok,
           f"erfc identity {worst_erfc:.2e}, gaussian identity {worst_gauss:.2e}, "
           f"k=0 values exact: {exact_at_zero}")
    assert ok


def test_criterion_6_quadrature_oracle(rng):
    """Memory weights integrate piecewise-linear samples exactly, 1e-11."""
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.0):
        for k in (0, 1, 5, 50, 399):
            from fracstefan import trap_weights

            dtau = 0.01
            c = trap_weights(k, alpha, dtau).c
            nodes = rng.standard_normal(k + 2)
            expected = kernel_integral_pwl(nodes, alpha, dtau)
            worst = max(worst, abs(float(np.dot(c, nodes)) - expected) / abs(expected))
    ok = worst <= 1e-11
    report(6, "quadrature exactness on piecewise-linear samples", ok,
           f"worst relative deviation {worst:.2e}")
    assert ok


def test_criterion_7_tridiagonal_oracle(rng):
    """Thomas solve vs dense elimination on 100 dominant systems, 1e-12."""
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(3, 501))
        sub = rng.uniform(-1.0, 1.0, size)
        sup = rng.uniform(-1.0, 1.0, size)
        diag = (1.0 + rng.uniform(0.0, 1.0, size)) * (np.abs(sub) + np.abs(sup) + 1.0)
        rhs = rng.standard_normal(size)
        system = scheme.TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs, size=size)
        dense = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        expected = np.linalg.solve(dense, rhs)
        got = scheme.thomas_solve(system)
        worst = max(worst, float(np.abs(got - expected).max() / np.abs(expected).max()))
    ok = worst <= 1e-12
    report(7, "tridiagonal solve matches dense elimination", ok,
           f"worst normalized deviation {worst:.2e}")
    assert ok


def test_criterion_8_property_suite(table2_results, numeric_grids):
    """Bounds, pinning, sign structure, halving, determinism, endpoint signs."""
    problems = []

    # temperature bounds at every node of every converged production run.
    # the solid's level-0 row jumps from the interface value 0 to theta_inf
    # within one space step; its first step is two implicit half-steps, so
    # that jump cannot throw level 1 out of bounds as a trapezoidal
    # (Crank-Nicolson-type) first step does at this mesh.
    for (row, alpha), (g1, g2) in numeric_grids.items():
        params = g1.params
        u1 = scheme.recover_physical(g1).u
        u2 = scheme.recover_physical(g2).u
        if u1.min() < -1e-8 or u1.max() > 1.0 + 1e-8:
            problems.append(f"liquid bounds violated at {(row, alpha)}")
        if u2.max() > 1e-8 or u2.min() < params.theta_inf - 1e-8:
            level, node = np.unravel_index(np.argmax(u2), u2.shape)
            per_level = u2.max(axis=1)
            settled = int(np.nonzero(per_level > 1e-8)[0].max()) + 1
            problems.append(
                f"solid overshoot {u2.max():.2e} at level {level} node {node}, "
                f"within bounds from level {settled}, at {(row, alpha)}"
            )

    # interface pinning: both phases place the front at identical coordinates
    for (row, alpha), (g1, g2) in numeric_grids.items():
        x1 = scheme.recover_physical(g1).x
        x2 = scheme.recover_physical(g2).x
        if not np.array_equal(x1[:, -1], x2[:, 0]):
            problems.append(f"interface pinning broken at {(row, alpha)}")

    # exactly one sign change across the bracket (coarse mesh scan)
    scan_mesh = scheme.MeshConfig(m1=25, m2=125, n=50)
    for row, alpha in CELLS:
        params = params_for(row, alpha)
        signs = [fronttrack.front_residual(p, params, scan_mesh) > 0
                 for p in np.linspace(0.1, 2.0, 20)]
        changes = sum(a != b for a, b in zip(signs, signs[1:]))
        if changes != 1:
            problems.append(f"{changes} sign changes at {(row, alpha)}")

    # endpoint signs at the production mesh, straight from the solve history
    for (row, alpha), result in table2_results.items():
        (p_lo, s_lo), (p_hi, s_hi) = result.history[0], result.history[1]
        if not (p_lo == 0.1 and p_hi == 2.0):
            problems.append(f"unexpected endpoint order at {(row, alpha)}")
        elif not (1.0 - s_lo < 0.0 and 1.0 - s_hi > 0.0):
            problems.append(f"endpoint residual signs wrong at {(row, alpha)}")

    # bracket halving after the endpoint evaluations
    for (row, alpha), result in table2_results.items():
        mids = [p for p, _ in result.history[2:]]
        steps = np.abs(np.diff(mids))
        if steps.size >= 2 and not np.allclose(steps[1:] / steps[:-1], 0.5, rtol=1e-9):
            problems.append(f"bracket halving broken at {(row, alpha)}")

    # bit-identical rerun
    params = params_for(0, 0.5)
    a = scheme.advance_phase(scheme.make_phase_grid(2, 0.74, PROD_MESH, params))
    b = scheme.advance_phase(scheme.make_phase_grid(2, 0.74, PROD_MESH, params))
    if not np.array_equal(a.ubar, b.ubar):
        problems.append("rerun not bit-identical")

    ok = not problems
    report(8, "property suite (bounds, pinning, signs, halving, determinism)",
           ok, "; ".join(problems) if problems else "all properties hold")
    assert ok, problems


def test_figure_substitute_profile_emission(tmp_path):
    """CSV emission: numeric-vs-exact gap stays below 1e-2 (classical order).

    Stands in for the qualitative result displays; uses the second
    parameter set at the production mesh.
    """
    import csv

    from fracstefan import cli

    config = cli.parse_config(
        None, {"alpha": 1.0, "lambda2": 2.0}, mode="profiles", output_dir=tmp_path)
    paths = cli.run_profiles(config)
    with open(paths["profiles"], newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    numeric = {(r[0], r[1], r[3]): float(r[2]) for r in rows if r[4] == "numeric"}
    exact = {(r[0], r[1], r[3]): float(r[2]) for r in rows
             if r[4] == "exact" and r[2] != ""}
    shared = sorted(set(numeric) & set(exact))
    worst = max(abs(numeric[key] - exact[key]) for key in shared)
    coverage = len(shared) / len(numeric)
    ok = worst <= 1e-2 and coverage > 0.9
    report("9*", "profile emission numeric-vs-exact bound (figure substitute)",
           ok, f"worst gap {worst:.2e} on {coverage:.0%} of emitted nodes")
    assert ok
