"""Front-fixing implicit steppers for the two phases.

Each phase is mapped onto a fixed unit interval in space: the liquid by
v1 = x / (p * tau**(alpha/2)), which pins the moving front at v1 = 1, the
solid by v2 = (x - S) / (L - S), which pins it at v2 = 0 and the truncated
far boundary at v2 = 1.  On the resulting uniform (v, tau) grid an
auxiliary scaling of the temperature turns each governing equation into an
implicit scheme whose right-hand side carries the full memory of earlier
levels through the product-trapezoidal weights.

The front coefficient p enters the grid itself: the time step is
dtau = 1 / (n * p**(2/alpha)), so the prescribed front reaches x = 1
exactly at the final level.

The solid's first step is two implicit half-steps (Rannacher 1984,
Numer. Math. 43).  Its level-0 row jumps from the interface value 0 to the
far-field value within one space step.  A product-trapezoidal first step
weights that jump's second difference explicitly; at alpha = 1 it is a
Crank-Nicolson step, monotone only for kappa*dtau/(2*dx**2) <= 1 (dx the
physical node spacing), and the production mesh has about 3.6, which
throws the first interior node above the melting temperature.  The
half-steps use right-endpoint rules, so level 0 enters only as the initial
datum, and every later step and the interface balance integrate the first
interval the same way.  The liquid's level-0 row is zero, the initial
datum itself, and its first step stays a single product-trapezoidal step.

advance_phase is the one stepper.  It stores the second and centred
differences of each level once, after the level is solved, and builds the
interior memory weights of all lags once per advance (fracquad.lag_table).
Each step slices its weight row from that table, sums the memory history
as two BLAS mat-vecs over the stored differences, and solves the new level
by Thomas elimination on Python floats.  One advance costs O(n**2 * m), in
those mat-vecs.  The assemble_phase{1,2}_step / thomas_solve pair performs
the same arithmetic one step at a time, with the differences rebuilt from
the grid rows and the weights from trap_weights / split_start_weights, and
serves as its stepwise oracle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analytic import PhysicalParams
from .errors import (
    DegenerateInputError,
    InvalidInputError,
    InvalidStateError,
    ZeroPivotError,
)
from .fracquad import half_weight, lag_table, split_start_weights, trap_weights

__all__ = [
    "MeshConfig",
    "PhaseGrid",
    "RecoveredField",
    "TridiagonalSystem",
    "advance_phase",
    "assemble_phase1_step",
    "assemble_phase2_step",
    "make_phase_grid",
    "recover_physical",
    "thomas_solve",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MeshConfig:
    """Grid resolution and domain-truncation settings.

    ratio is the truncated solid extent L relative to the reference length;
    tau0_factor places the artificial start time tau_0 = tau0_factor * dtau
    strictly inside the first step, small enough not to distort the memory
    sums yet far enough from zero that the tau**(-alpha) boundary data stays
    finite.
    """

    m1: int = 100
    m2: int = 500
    n: int = 400
    ratio: float = 10.0
    tau0_factor: float = 1e-3

    def __post_init__(self):
        problems = []
        for name in ("m1", "m2"):
            if getattr(self, name) < 2:
                problems.append(f"{name} must be >= 2 (at least one interior node), "
                                f"got {getattr(self, name)}")
        if self.n < 1:
            problems.append(f"n must be >= 1, got {self.n}")
        if not (self.ratio > 1.0 and math.isfinite(self.ratio)):
            problems.append(f"ratio must be finite and > 1, got {self.ratio}")
        if not 0.0 < self.tau0_factor < 1.0:
            problems.append(f"tau0_factor must be in (0, 1), got {self.tau0_factor}")
        if problems:
            raise InvalidInputError("; ".join(problems))


@dataclass
class PhaseGrid:
    """Auxiliary-function values of one phase on the fixed (v, tau) rectangle."""

    phase: int
    p: float
    mesh: MeshConfig
    params: PhysicalParams
    dtau: float
    tau: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    ubar: np.ndarray = field(repr=False)
    filled_through: int = 0
    # the solid's row at tau = dtau/2, kept by advance_phase; None for the liquid
    half: np.ndarray | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.mesh.m1 if self.phase == 1 else self.mesh.m2

    @property
    def dv(self) -> float:
        return 1.0 / self.m


class RecoveredField(NamedTuple):
    """Physical-space samples aligned with the grid: tau[j], x[j, i], u[j, i]."""

    tau: np.ndarray
    x: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class TridiagonalSystem:
    """One implicit step: sub/diag/super diagonals and right-hand side."""

    sub: np.ndarray = field(repr=False)
    diag: np.ndarray = field(repr=False)
    sup: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    size: int
    dominance_violations: int = 0


def _tau_grid(mesh: MeshConfig, dtau: float) -> np.ndarray:
    tau = np.empty(mesh.n + 1)
    tau[0] = mesh.tau0_factor * dtau
    tau[1:] = dtau * np.arange(1, mesh.n + 1, dtype=np.float64)
    return tau


def make_phase_grid(phase: int, p: float, mesh: MeshConfig,
                    params: PhysicalParams) -> PhaseGrid:
    """Allocate one phase grid with initial and boundary rows populated.

    Level 0 sits at tau_0 = tau0_factor * dtau > 0.  The liquid grid starts
    all-zero (no liquid yet); its hot-boundary column starts at level 1,
    so its level-0 corner holds the initial value.  The solid grid holds the
    far-field value, constant in x, except at the interface node, which
    holds the interface value 0: at tau_0 that is boundary data.  The
    solid's start never samples that corner (see the module docstring).
    Raises DegenerateInputError when the time step is not a finite positive
    double (p so large or so small that p**(2/alpha) leaves double range).
    """
    if phase not in (1, 2):
        raise InvalidInputError(f"phase must be 1 or 2, got {phase}")
    if not p > 0.0:
        raise InvalidInputError(f"front coefficient must be > 0, got {p}")
    m = mesh.m1 if phase == 1 else mesh.m2
    a = params.alpha
    try:
        dtau = 1.0 / (mesh.n * p ** (2.0 / a))
    except (OverflowError, ZeroDivisionError):  # p**(2/alpha) over- or underflows
        dtau = math.nan
    if not 0.0 < dtau < math.inf:
        raise DegenerateInputError(
            f"time step 1/(n*p**(2/alpha)) is not a finite positive double "
            f"(p={p}, alpha={a}, n={mesh.n})"
        )
    tau = _tau_grid(mesh, dtau)
    v = np.linspace(0.0, 1.0, m + 1)
    ubar = np.zeros((mesh.n + 1, m + 1))
    if phase == 1:
        ubar[1:, 0] = tau[1:] ** (-a)
    else:
        L = mesh.ratio
        width = L - p * tau ** (a / 2.0)
        if width.min() <= 0.0:
            raise DegenerateInputError(
                f"front reaches the truncated boundary L={L} within the grid "
                f"(p={p}, alpha={a})"
            )
        ubar[0, 1:] = params.theta_inf / width[0] ** 2
        ubar[1:, m] = params.theta_inf / width[1:] ** 2
    return PhaseGrid(phase=phase, p=p, mesh=mesh, params=params,
                     dtau=dtau, tau=tau, v=v, ubar=ubar)


def _half_width(p: float, dtau: float, L: float, alpha: float) -> float:
    """Solid width L - S at tau = dtau/2."""
    return L - p * (dtau / 2.0) ** (alpha / 2.0)


def _phase_coeffs(grid: PhaseGrid):
    """Per-grid constants feeding the generic implicit step.

    Returns (tcoef, rfac, qfac_in, gq, init_mult): the time coefficient on
    the diagonal, the memory prefactor, the per-interior-node advective
    factor, the per-level advective time factor, and the multiplier on the
    initial row.  The advective history is a right-endpoint rectangle sum:
    gq[j] carries the width of the rectangle ending at level j, in units of
    dtau.  So gq[0] is zero, and on the solid gq[1] is halved, since its
    first interval is two half-steps (_half_row has the other half).
    """
    a = grid.params.alpha
    p = grid.p
    tau = grid.tau
    dv = grid.dv
    if grid.phase == 1:
        tcoef = tau ** a
        rfac = grid.params.kappa1 / (p * p * math.gamma(a) * dv * dv)
        qfac_in = a * np.arange(1, grid.m, dtype=np.float64) * grid.dtau / 4.0
        gq = np.empty_like(tau)
        gq[0] = 0.0
        gq[1:] = tau[1:] ** (a - 1.0)
        init_mult = tau[0] ** a
    else:
        L = grid.mesh.ratio
        width = L - p * tau ** (a / 2.0)
        tcoef = width ** 2
        rfac = grid.params.kappa2 / (math.gamma(a) * dv * dv)
        vi = grid.v[1:-1]
        qfac_in = a * p * (vi - 1.0) * grid.dtau / (4.0 * dv)
        gq = np.empty_like(tau)
        gq[0] = 0.0
        gq[1:] = _solid_gq(tau[1:], p, L, a)
        gq[1] *= 0.5
        init_mult = width[0] ** 2
    return tcoef, rfac, qfac_in, gq, init_mult


def _solid_gq(tau, p, L, alpha):
    return p * tau ** (alpha - 1.0) - L * tau ** (alpha / 2.0 - 1.0)


def _system(rhs, r_imp, q_imp, diag_value, left, right):
    """Implicit tridiagonal rows for one target level, boundary values folded in.

    Returns (sub, diag, sup, rhs, dominance_violations).
    """
    sub = -r_imp + q_imp
    sup = -r_imp - q_imp
    diag = np.full(rhs.shape[0], diag_value + 2.0 * r_imp)
    rhs[0] -= sub[0] * left
    rhs[-1] -= sup[-1] * right
    violations = int(np.count_nonzero(np.abs(diag) < np.abs(sub) + np.abs(sup)))
    return sub, diag, sup, rhs, violations


def _differences(rows):
    """(second, centred) differences of rows over the interior nodes, per row."""
    return (rows[..., :-2] - 2.0 * rows[..., 1:-1] + rows[..., 2:],
            rows[..., 2:] - rows[..., :-2])


def _half_row(grid: PhaseGrid, coeffs):
    """The solid's row at tau = dtau/2, solved from level 0: (half, terms, violations).

    The half-step is fully implicit: level 0 enters only as the initial
    datum, never as a sample of the memory or advective integrand.  The
    boundary values are level 0's at the same physical temperature (the
    boundary data do not change in time), so the half level is a function
    of level 0 alone.  terms is (d2, dc, gq_half), the half level's second
    and centred differences and its advective weight, which is weighted
    like gq: its rectangle is half a step wide.  coeffs is
    _phase_coeffs(grid).  The liquid has no half level: (None, None, 0).
    """
    if grid.phase == 1:
        return None, None, 0
    _, rfac, qfac_in, _, init_mult = coeffs
    a = grid.params.alpha
    L = grid.mesh.ratio
    width = _half_width(grid.p, grid.dtau, L, a)
    gq_half = 0.5 * _solid_gq(grid.dtau / 2.0, grid.p, L, a)
    half = grid.ubar[0] * (init_mult / width ** 2)
    sub, diag, sup, rhs, violations = _system(
        grid.ubar[0, 1:-1] * init_mult, rfac * half_weight(0.5, a, grid.dtau),
        qfac_in * gq_half, width ** 2, half[0], half[-1])
    half[1:-1] = _thomas(sub, diag, sup, rhs)
    return half, (*_differences(half), gq_half), violations


def _step_system(grid: PhaseGrid, k: int, coeffs, d2, dc, weights, half_terms):
    """Tridiagonal system advancing the grid from levels 0..k to level k+1.

    coeffs is _phase_coeffs(grid).  Row j of d2 and dc holds the second and
    centred differences of level j, for j = 0..k at least (dc's row 0 is
    not read).  weights is (c, w_half), the memory weights of the step:
    the split-start weights when there is a half level (the solid), the
    product-trapezoidal weights and w_half None otherwise.  half_terms
    comes from _half_row.  The boundary columns of the grid must already
    be filled at level k+1.  Returns (sub, diag, sup, rhs,
    dominance_violations).
    """
    tcoef, rfac, qfac_in, gq, init_mult = coeffs
    ubar = grid.ubar
    m = ubar.shape[1] - 1
    c, w_half = weights
    rhs = ubar[0, 1:-1] * init_mult + rfac * (c[:k + 1] @ d2[:k + 1])
    if k >= 1:
        rhs = rhs + qfac_in * (gq[1:k + 1] @ dc[1:k + 1])
    if half_terms is not None:
        d2_half, dc_half, gq_half = half_terms
        rhs = rhs + rfac * w_half * d2_half + qfac_in * gq_half * dc_half
    return _system(rhs, rfac * c[k + 1], qfac_in * gq[k + 1], tcoef[k + 1],
                   ubar[k + 1, 0], ubar[k + 1, m])


def _thomas(sub, diag, sup, rhs):
    """Thomas elimination for a tridiagonal system; O(size).

    sub[0] and sup[-1] are ignored.  Raises ZeroPivotError on a vanishing
    pivot, which signals a non-dominant assembly upstream.  The loops run
    on Python floats, which perform the same IEEE double operations as
    numpy scalars at a fraction of the indexing cost.
    """
    sub, diag, sup, rhs = sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist()
    n = len(diag)
    pivot = diag[0]
    if pivot == 0.0:
        raise ZeroPivotError("zero pivot at row 0")
    c_prev = sup[0] / pivot
    x_prev = rhs[0] / pivot
    cp = [c_prev]
    xp = [x_prev]
    for i in range(1, n):
        s = sub[i]
        pivot = diag[i] - s * c_prev
        if pivot == 0.0:
            raise ZeroPivotError(f"zero pivot at row {i}")
        c_prev = sup[i] / pivot
        x_prev = (rhs[i] - s * x_prev) / pivot
        cp.append(c_prev)
        xp.append(x_prev)
    for i in range(n - 2, -1, -1):
        xp[i] -= cp[i] * xp[i + 1]
    return np.array(xp)


def _assemble_step(grid: PhaseGrid, k: int) -> TridiagonalSystem:
    if k < 0 or k >= grid.mesh.n:
        raise InvalidInputError(f"time index must lie in [0, {grid.mesh.n - 1}], got {k}")
    if grid.filled_through < k:
        raise InvalidStateError(
            f"phase {grid.phase} grid holds rows through {grid.filled_through}, "
            f"cannot assemble step targeting level {k + 1}"
        )
    coeffs = _phase_coeffs(grid)
    _, half_terms, half_violations = _half_row(grid, coeffs)
    a = grid.params.alpha
    if half_terms is None:
        weights = trap_weights(k, a, grid.dtau).c, None
    else:
        weights = split_start_weights(k, a, grid.dtau)
    d2, dc = _differences(grid.ubar[:k + 1])
    sub, diag, sup, rhs, violations = _step_system(grid, k, coeffs, d2, dc, weights,
                                                   half_terms)
    if k == 0:  # the half-step is part of the step to level 1
        violations += half_violations
    if violations:
        logger.warning(
            "diagonal dominance violated on %d of %d rows (phase %d, level %d)",
            violations, grid.m - 1, grid.phase, k + 1,
        )
    return TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs,
                             size=grid.m - 1, dominance_violations=violations)


def assemble_phase1_step(grid: PhaseGrid, k: int) -> TridiagonalSystem:
    """Implicit system advancing the liquid grid to time level k+1."""
    if grid.phase != 1:
        raise InvalidInputError(f"expected a phase-1 grid, got phase {grid.phase}")
    return _assemble_step(grid, k)


def assemble_phase2_step(grid: PhaseGrid, k: int) -> TridiagonalSystem:
    """Implicit system advancing the solid grid to time level k+1.

    The half level tau = dtau/2 is solved from level 0 on the way; at k = 0
    the returned system is the second half-step.
    """
    if grid.phase != 2:
        raise InvalidInputError(f"expected a phase-2 grid, got phase {grid.phase}")
    return _assemble_step(grid, k)


def thomas_solve(system: TridiagonalSystem):
    """Solve one assembled tridiagonal system in O(size)."""
    if system.size < 1:
        raise InvalidInputError(f"system size must be >= 1, got {system.size}")
    return _thomas(system.sub, system.diag, system.sup, system.rhs)


def advance_phase(grid: PhaseGrid) -> PhaseGrid:
    """Populate grid rows 1..n in place.

    Repeats assemble + Thomas solve level by level, the solid's half-step
    first, with the arithmetic of assemble_phase{1,2}_step and
    thomas_solve, and keeps the solid's half level as grid.half for the
    interface balance.  The differences of each level are stored once, in
    arrays local to this call, and the weight rows are sliced from one
    lag table.  Recomputes from level 0, so the result does not depend on
    rows filled before the call.
    """
    n = grid.mesh.n
    coeffs = _phase_coeffs(grid)
    table = lag_table(n - 1, grid.params.alpha, grid.dtau)
    ubar = grid.ubar
    d2 = np.empty((n + 1, grid.m - 1))
    dc = np.empty_like(d2)
    d2[0], dc[0] = _differences(ubar[0])
    try:
        half, half_terms, violations = _half_row(grid, coeffs)
        for k in range(n):
            weights = (table.trap(k), None) if half is None else table.split(k)
            sub, diag, sup, rhs, v = _step_system(grid, k, coeffs, d2, dc, weights,
                                                  half_terms)
            violations += v
            ubar[k + 1, 1:-1] = _thomas(sub, diag, sup, rhs)
            d2[k + 1], dc[k + 1] = _differences(ubar[k + 1])
    except ZeroPivotError as exc:
        raise ZeroPivotError(f"phase {grid.phase}, p={grid.p:.6g}: {exc}") from exc
    if violations:
        logger.warning(
            "diagonal dominance violated %d times while advancing phase %d (p=%.6g)",
            violations, grid.phase, grid.p,
        )
    if not np.isfinite(grid.ubar).all():
        raise InvalidStateError(
            f"non-finite values while advancing phase {grid.phase} (p={grid.p:.6g})"
        )
    grid.half = half
    grid.filled_through = n
    return grid


def recover_physical(grid: PhaseGrid) -> RecoveredField:
    """Undo the auxiliary scaling and the front-fixing map, all levels at once."""
    a = grid.params.alpha
    front = grid.p * grid.tau ** (a / 2.0)
    if grid.phase == 1:
        u = grid.ubar * (grid.tau ** a)[:, None]
        x = grid.v[None, :] * front[:, None]
    else:
        width = grid.mesh.ratio - front
        u = grid.ubar * (width ** 2)[:, None]
        x = grid.v[None, :] * width[:, None] + front[:, None]
    return RecoveredField(tau=grid.tau, x=x, u=u)
