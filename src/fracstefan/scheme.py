"""Front-fixing implicit steppers for the two phases.

Each phase is mapped onto a fixed unit interval in space: the liquid by
v1 = x / (p * tau**(alpha/2)), which pins the moving front at v1 = 1, the
solid by v2 = (x - S) / (L - S), which pins it at v2 = 0 and the truncated
far boundary at v2 = 1.  On the resulting uniform (v, s) grid an
auxiliary scaling of the temperature turns each governing equation into an
implicit scheme whose right-hand side carries the full memory of earlier
levels through the product-trapezoidal weights.

Every grid is stepped in the front's own time s = tau * p**(2/alpha), on
the fixed levels s_k = k/n: the front x = p * tau**(alpha/2) becomes
s**(alpha/2), which starts at x = 0 at level 0 and reaches x = 1 at the
final level, and the Caputo derivative scales by p**2.  So p is only a
diffusivity scale: it enters a step only as kappa_i/p**2 (_diffusivity),
and the interface balance only as lambda_i/p**2.  PhaseGrid.tau and dtau
keep the physical times, for callers.

The solid's first step is two implicit half-steps (Rannacher 1984,
Numer. Math. 43).  Its level-0 row jumps from the interface value 0 to the
far-field value within one space step.  A product-trapezoidal first step
weights that jump's second difference explicitly; at alpha = 1 it is a
Crank-Nicolson step, monotone only for kappa*dtau/(2*dx**2) <= 1 (dx the
physical node spacing), and the production mesh has about 3.6, which
throws the first interior node above the melting temperature.  The
half-steps use right-endpoint rules, so level 0 enters only as the initial
datum, and every later step and the interface balance integrate the first
interval the same way.  The half level is the solid's history row 0, its
first memory sample; the liquid's is level 0, which is zero, and its first
step stays a single product-trapezoidal step.  Rows j >= 1 are levels j,
so one weight row and one history sum serve both (_phase_coeffs).

One level loop (_advance) is the stepper: advance_phase runs it over one
grid, advance_pair over a candidate's liquid and solid side by side in one
joint row, laid out by one list, counts.  It reads every memory weight from
one lag table (fracquad.lag_table), and one advance costs O(n**2 * m), in
the memory products.  The assemble_phase{1,2}_step / thomas_solve pair
performs the same arithmetic one step at a time, from differences rebuilt
from the history rows and full weight rows (_step_weights), and serves as
its stepwise oracle.  _plan alone writes where each memory sum splits, and
_first_interval each phase's first-interval rule, the solid's split start
among them.
"""

from __future__ import annotations

import logging
import math
from itertools import accumulate
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analytic import MeshConfig, PhysicalParams, _is_integer
from .errors import (
    DegenerateInputError,
    GridMismatchError,
    InvalidInputError,
    InvalidStateError,
    ZeroPivotError,
)
from .fracquad import LagTable, half_weight, lag_table

__all__ = [
    "PhaseGrid",
    "RecoveredField",
    "TridiagonalSystem",
    "advance_pair",
    "advance_phase",
    "assemble_phase1_step",
    "assemble_phase2_step",
    "make_phase_grid",
    "phase_key",
    "recover_physical",
    "thomas_solve",
]

logger = logging.getLogger(__name__)

# Values in each array the stepper holds for many levels at once (256 KiB
# of doubles), which sizes _plan's blocks and runs and _advance's blocks and chunks.
# A block's set-up keeps at most five block-sized arrays alive at once
# (_rows, then _factor's pivots and multipliers), its level loop four (sub,
# pivot, mult and the advective factors), beside the scan coefficients'
# buffer of at most 2 * max(_BLOCK_VALUES, offsets * unknowns) values (a
# chunk holds at least one level).
_BLOCK_VALUES = 1 << 15


@dataclass
class PhaseGrid:
    """Auxiliary-function values of one phase on the fixed (v, s) rectangle."""

    phase: int
    p: float
    mesh: MeshConfig
    params: PhysicalParams
    dtau: float
    tau: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    ubar: np.ndarray = field(repr=False)
    filled_through: int = 0
    # the solid's row at s = 1/(2n), kept by advance_phase and advance_pair; None for the liquid
    half: np.ndarray | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.mesh.m1 if self.phase == 1 else self.mesh.m2

    @property
    def dv(self) -> float:
        return 1.0 / self.m

    @property
    def s(self) -> np.ndarray:
        """The levels' front time s_k = k/n."""
        return np.arange(self.mesh.n + 1) / self.mesh.n


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


def make_phase_grid(phase: int, p: float, mesh: MeshConfig,
                    params: PhysicalParams) -> PhaseGrid:
    """Allocate one phase grid with initial and boundary rows populated.

    Level k sits at front time s_k = k/n and physical time tau_k = k * dtau,
    dtau = 1/(n * p**(2/alpha)); level 0 is s = 0, where the front starts.
    The liquid grid starts all-zero (no liquid yet); its hot-boundary column
    starts at level 1, so its level-0 corner holds the initial value.  The
    solid grid holds the far-field value, constant in x, except at the
    interface node, which holds the interface value 0.  The solid's start
    never samples that corner (see the module docstring).  Raises
    DegenerateInputError when the physical time step is not a finite
    positive double (p so large or so small that p**(2/alpha) leaves double
    range, or the final time n * dtau overflows), when the solid's squared
    width (L - S)**2 overflows (ratio above about 1.3e154) or when the
    memory prefactor is not finite (p so small that kappa_i/p**2 times m**2
    overflows).
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
    if not 0.0 < dtau * mesh.n < math.inf:
        raise DegenerateInputError(
            f"time step 1/(n*p**(2/alpha)) or final time p**(-2/alpha) is not a finite "
            f"positive double (p={p}, alpha={a}, n={mesh.n})"
        )
    if phase == 2 and not math.isfinite(mesh.ratio * mesh.ratio):
        raise DegenerateInputError(
            f"solid's squared width (L - S)**2 is not a finite double (ratio={mesh.ratio})")
    grid = PhaseGrid(phase=phase, p=p, mesh=mesh, params=params, dtau=dtau,
                     tau=dtau * np.arange(mesh.n + 1.0), v=np.linspace(0.0, 1.0, m + 1),
                     ubar=np.zeros((mesh.n + 1, m + 1)))
    if not math.isfinite(_prefactor(grid)):
        raise DegenerateInputError(
            f"memory prefactor kappa{phase}/(p**2*Gamma(alpha)*dv**2) is not a finite "
            f"double (p={p}, alpha={a}, m{phase}={m})"
        )
    scale = _frame(grid)[1]
    if phase == 1:
        grid.ubar[1:, 0] = 1.0 / scale[1:]
    else:
        grid.ubar[0, 1:] = params.theta_inf / scale[0]
        grid.ubar[1:, m] = params.theta_inf / scale[1:]
    return grid


def _diffusivity(phase: int, p: float, params: PhysicalParams) -> float:
    """kappa_i/p**2, the phase's diffusivity in front time: the one way p enters a grid.

    inf where p*p underflows to 0, as the IEEE quotient; make_phase_grid
    rejects such a p.
    """
    kappa = params.kappa1 if phase == 1 else params.kappa2
    square = p * p
    return kappa / square if square > 0.0 else math.inf


def _prefactor(grid: PhaseGrid) -> float:
    """The memory prefactor kappa_i/(p**2 * Gamma(alpha) * dv**2) of every step."""
    return _diffusivity(grid.phase, grid.p, grid.params) / (
        math.gamma(grid.params.alpha) * grid.dv ** 2)


def phase_key(phase: int, p: float, mesh: MeshConfig, params: PhysicalParams) -> tuple:
    """Every value that one phase's advanced grid depends on.

    Two grids of the same phase with equal keys advance to the same rows,
    bit for bit, and grids with different keys do not.  p and the phase's
    kappa enter only as _diffusivity, kappa_i/p**2.  The liquid depends
    neither on kappa2, theta_inf nor ratio, the solid not on kappa1, and
    neither phase on lambda1 or lambda2.
    """
    if phase == 1:
        return (1, _diffusivity(1, p, params), params.alpha, mesh.m1, mesh.n)
    return (2, _diffusivity(2, p, params), params.alpha, params.theta_inf, mesh.m2, mesh.n,
            mesh.ratio)


def _frame(grid: PhaseGrid):
    """The front x = s**(alpha/2) and the factor u/ubar at every level: (front, scale).

    scale is s**alpha in the liquid and the squared width (L - front)**2 in
    the solid; it is also a step's time coefficient.
    """
    front = grid.s ** (grid.params.alpha / 2.0)
    if grid.phase == 1:
        return front, grid.s ** grid.params.alpha
    return front, (grid.mesh.ratio - front) ** 2


def _half_width(grid: PhaseGrid) -> float:
    """Solid width L - S at s = 1/(2n)."""
    return grid.mesh.ratio - (0.5 / grid.mesh.n) ** (grid.params.alpha / 2.0)


def _phase_coeffs(grid: PhaseGrid):
    """The coefficients of the step that solves each history row j, set here alone.

    Returns (time, implicit, gq, edges, rfac, qfac_in, initial): per row j
    the time coefficient, the implicit memory coefficient (rfac times the
    weight of the row being solved: row 1's from the first _step_weights
    row, later rows' pref), the advective time factor and the (left, right)
    boundary values; then the memory prefactor, the per-interior-node
    advective factor and the right-hand side's level-0 term
    ubar[0, 1:-1] * scale[0] (_frame's scale, the time coefficient of rows
    j >= 1).

    The solid's row 0 is its half level: a fully implicit half-step from
    level 0 to s = 1/(2n), with the squared width there as time coefficient
    and level 0's boundary values at the same physical temperature (the
    boundary data do not change in time), so it depends on level 0 alone.
    The liquid's row 0 is level 0, which is zero, held by the identity
    step: time 1 and no memory, advection or boundary values.

    The advective history is a right-endpoint rectangle sum: gq[j] carries
    the width of the rectangle ending at history row j, in units of the
    step 1/n.  So the liquid's gq[0] is zero, and on the solid gq[0] (the
    half level) and gq[1] are halved: its first interval is two half-steps.
    """
    a = grid.params.alpha
    ds = 1.0 / grid.mesh.n
    scale = _frame(grid)[1]
    time = scale.copy()
    rfac = _prefactor(grid)
    table = lag_table(0, a, ds)
    implicit = np.full(grid.mesh.n + 1, table.pref)
    implicit[1] = _step_weights(grid, table, 0)[-1]
    edges = grid.ubar[:, [0, -1]]
    s = grid.s  # the time each history row samples
    if grid.phase == 1:
        qfac_in = a * np.arange(1, grid.m, dtype=np.float64) * ds / 4.0
        gq = np.zeros_like(s)
        gq[1:] = s[1:] ** (a - 1.0)
        time[0], implicit[0] = 1.0, 0.0  # level 0 and its edges are zero
    else:
        qfac_in = a * (grid.v[1:-1] - 1.0) * ds / (4.0 * grid.dv)
        s[0] = ds / 2.0
        gq = s ** (a - 1.0) - grid.mesh.ratio * s ** (a / 2.0 - 1.0)
        gq[:2] *= 0.5
        time[0], implicit[0] = _half_width(grid) ** 2, half_weight(0.5, a, ds)
        edges[0] *= scale[0] / time[0]
    implicit *= rfac
    return time, implicit, gq, edges, rfac, qfac_in, grid.ubar[0, 1:-1] * scale[0]


def _rows(r, q, diag):
    """Off-diagonals and dominance count of the implicit rows of one step or of a block of steps.

    Returns (sub, sup, violations).  q holds the advective factors of the
    interior nodes, r the implicit memory coefficients and diag the
    diagonal t + 2r (t the time coefficient), all of one shape, one row per
    step of a block.  sub and sup hold the off-diagonals q - r and -q - r,
    and violations counts, per node (the last axis), the rows that are not
    diagonally dominant.  q and r are overwritten: sub is formed in q's
    memory, and r, once subtracted, holds |sup| and then |diag|.  So with
    diag, sup and the excess |sub| + |sup|, five arrays of q's size are
    alive at most.  The callers fold the boundary values into their
    right-hand sides.
    """
    sup = np.negative(q)
    sup -= r
    sub = np.subtract(q, r, out=q)
    excess = np.abs(sub)
    excess += np.abs(sup, out=r)
    return sub, sup, np.count_nonzero(np.abs(diag, out=r) < excess, axis=0)


def _differences(rows, second=None, centred=None):
    """(second, centred) differences of rows over the interior nodes, per row.

    Written into second and centred when given (the stepper's preallocated
    vectors), else into new arrays.
    """
    left, middle, right = rows[..., :-2], rows[..., 1:-1], rows[..., 2:]
    second = np.multiply(middle, 2.0, second)
    np.subtract(left, second, second)
    np.add(second, right, second)
    return second, np.subtract(right, left, centred)


def _first_interval(grid: PhaseGrid, table: LagTable, levels):
    """c[0] of the steps from levels (an index or a slice), and what the phase adds to c[1].

    The liquid's first interval is product-trapezoidal (c[0] = table.first),
    the solid's the split start: c[0] weights the half level (table.half),
    and c[1] adds the rest of the interval, table.first - table.half.
    """
    if grid.phase == 1:
        return table.first[levels], 0.0
    half = table.half[levels]
    return half, table.first[levels] - half


def _step_weights(grid: PhaseGrid, table: LagTable, k: int) -> np.ndarray:
    """The memory weights c[j], j = 0..k+1, of the grid's step to level k+1, read from table.

    c[0] and c[1]'s addend are _first_interval's, c[1..k] the last k
    interior weights and c[k+1] pref.
    """
    c = np.empty(k + 2)
    c[0], extra = _first_interval(grid, table, k)
    c[1:k + 1] = table.interior[table.interior.shape[0] - k:]
    c[k + 1] = table.pref
    c[1] += extra
    return c


def _split(levels: range, size: int) -> list:
    """Consecutive ranges of size levels, at least one, covering levels."""
    size = max(1, size)
    return [range(start, min(start + size, levels.stop))
            for start in range(levels.start, levels.stop, size)]


def _plan(grid: PhaseGrid) -> list:
    """Where the memory sums of a grid's steps from levels k to k+1 split: (start, run) pairs.

    The levels 0..n-1 fall into blocks of _BLOCK_VALUES // (m - 1) levels;
    the sums of a block's levels split at its first level, start.  A block
    falls into runs of _BLOCK_VALUES // (block end + 1) levels, whose weight
    rows, of at most block end + 1 values each, are held at once.
    """
    return [(block.start, run)
            for block in _split(range(grid.mesh.n), _BLOCK_VALUES // (grid.m - 1))
            for run in _split(block, _BLOCK_VALUES // (block.stop + 1))]


def _run_weights(grid: PhaseGrid, table: LagTable, run: range, start: int):
    """The weights c[:start+1] of the steps from the levels k of run, one row per k.

    The bits of _step_weights: column 0 and column 1's addend from
    _first_interval, columns 1..start windows of table.interior.
    """
    size = table.interior.shape[0]
    rows = np.empty((len(run), start + 1))
    rows[:, 0], extra = _first_interval(grid, table, slice(run.start, run.stop))
    if start:
        windows = sliding_window_view(table.interior, start)
        rows[:, 1:] = windows[size - run.stop + 1:size - run.start + 1][::-1]
        rows[:, 1] += extra
    return rows


def _level_weights(grid: PhaseGrid, table: LagTable, start: int, k: int, scratch):
    """The weights c[start+1:k+1] of the step from level k, the rows solved within its block.

    A view of table.interior, except in the solid's first block, whose c[1]
    adds the rest of the first interval (_first_interval): that row is
    written into scratch, a vector of at least k values.
    """
    weights = table.interior[table.interior.shape[0] - k + start:]
    if grid.phase == 1 or start or not k:
        return weights
    scratch = scratch[:k]
    scratch[:] = weights
    scratch[0] += _first_interval(grid, table, k)[1]
    return scratch


def _step_system(j: int, coeffs, memory, adv) -> TridiagonalSystem:
    """Tridiagonal system solving history row j from the rows before it.

    coeffs is _phase_coeffs of the grid, whose row j it takes.  memory is
    the memory history of the step to row j >= 1, c[:j] @ d2[:j] with c its
    _step_weights and row i of d2 the second differences of history row i,
    and adv the advective history: gq[i] times row i's centred differences,
    summed over i = 0..j-1 in order of i.  Row 0 has no history: both are
    zero.
    """
    time, implicit, gq, edges, rfac, qfac_in, initial = coeffs
    diag = np.full(len(qfac_in), 2.0 * implicit[j] + time[j])
    sub, sup, violations = _rows(np.full(len(qfac_in), implicit[j]), qfac_in * gq[j], diag)
    rhs = initial + rfac * memory + qfac_in * adv
    rhs[0] -= sub[0] * edges[j, 0]
    rhs[-1] -= sup[-1] * edges[j, 1]
    return TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs, size=len(rhs),
                             dominance_violations=int(violations))


def _non_finite(grid: PhaseGrid, level) -> InvalidStateError:
    """The oracle's error for a non-finite row or system on the way to level."""
    return InvalidStateError(f"non-finite values while assembling phase {grid.phase}'s step "
                             f"to level {level} (p={grid.p:.6g})")


@np.errstate(all="ignore")
def _assemble_step(grid: PhaseGrid, k: int) -> TridiagonalSystem:
    if not (_is_integer(k) and 0 <= k < grid.mesh.n):
        raise InvalidInputError(
            f"time index must be an integer in [0, {grid.mesh.n - 1}], got {k!r}")
    if grid.filled_through < k:
        raise InvalidStateError(
            f"phase {grid.phase} grid holds rows through {grid.filled_through}, "
            f"cannot assemble step targeting level {k + 1}"
        )
    coeffs = _phase_coeffs(grid)
    gq, edges = coeffs[2:4]
    start = _step_system(0, coeffs, 0.0, 0.0)
    first = np.concatenate((edges[0, :1], thomas_solve(start), edges[0, 1:]))
    if not np.isfinite(first).all():
        raise _non_finite(grid, "1/2" if grid.phase == 2 else "0")
    d2, dc = _differences(np.vstack((first, grid.ubar[1:k + 1])))
    # the stepper's split of the memory sum at its block's first level, with
    # its product over the run of k, for the stepper's bits (_memory_terms)
    split, run = next((start + 1, run) for start, run in _plan(grid) if k in run)
    table = lag_table(run.stop - 1, grid.params.alpha, 1.0 / grid.mesh.n)
    rows = [_step_weights(grid, table, j) for j in run]
    known = np.array([c[:split] for c in rows]) @ d2[:split]
    c = rows[k - run.start]
    memory = known[k - run.start] + c[split:k + 1] @ d2[split:k + 1]
    terms = gq[:k + 1, None] * dc
    adv = np.cumsum(terms, axis=0, out=terms)[-1]
    system = _step_system(k + 1, coeffs, memory, adv)
    if not all(np.isfinite(a).all() for a in (system.sub, system.diag, system.sup, system.rhs)):
        raise _non_finite(grid, k + 1)
    if k == 0:  # the solid's half-step is part of the step to level 1
        system = replace(system, dominance_violations=system.dominance_violations
                         + start.dominance_violations)
    if system.dominance_violations:
        logger.warning(
            "diagonal dominance violated on %d of %d rows (phase %d, level %d)",
            system.dominance_violations, grid.m - 1, grid.phase, k + 1,
        )
    return system


def assemble_phase1_step(grid: PhaseGrid, k: int) -> TridiagonalSystem:
    """Implicit system advancing the liquid grid to time level k+1.

    Its memory sum is split as the stepper splits it (_memory_terms), so
    that it carries the stepper's bits.  The cost of a call and the rounding
    of its right-hand side therefore depend on _BLOCK_VALUES.  A system (or,
    on the solid, a half level) that is not finite raises InvalidStateError
    naming the phase and the level, with no numpy warning (np.errstate).
    """
    if grid.phase != 1:
        raise InvalidInputError(f"expected a phase-1 grid, got phase {grid.phase}")
    return _assemble_step(grid, k)


def assemble_phase2_step(grid: PhaseGrid, k: int) -> TridiagonalSystem:
    """Implicit system advancing the solid grid to time level k+1.

    The half level s = 1/(2n) is solved from level 0 on the way; at k = 0
    the returned system is the second half-step.  The memory sum is split
    as in assemble_phase1_step.
    """
    if grid.phase != 2:
        raise InvalidInputError(f"expected a phase-2 grid, got phase {grid.phase}")
    return _assemble_step(grid, k)


@np.errstate(all="ignore")
def thomas_solve(system: TridiagonalSystem):
    """Solve one assembled tridiagonal system by Thomas elimination in O(size log size).

    sub, diag, sup and rhs must be 1-D arrays of length size, or it raises
    InvalidInputError.  sub[0] and sup[-1] are ignored.  Factors the system
    as a block of one (_factor), raises ZeroPivotError on a vanishing pivot,
    which signals a non-dominant assembly upstream, and substitutes with the
    stepper's scan (_coefficients, _scan), so a level's system solves to the
    stepper's bits.
    """
    size = system.size
    if not (_is_integer(size) and size >= 1):
        raise InvalidInputError(f"system size must be an integer >= 1, got {size!r}")
    arrays = {name: np.asarray(getattr(system, name), dtype=np.float64)
              for name in ("sub", "diag", "sup", "rhs")}
    if any(a.shape != (size,) for a in arrays.values()):
        got = ", ".join(f"{name} {len(a) if a.ndim == 1 else 'of shape ' + str(a.shape)}"
                        for name, a in arrays.items())
        raise InvalidInputError(
            f"sub, diag, sup and rhs must be 1-D arrays of length size = {size}, got {got}")
    sub = arrays["sub"][None]
    pivot, mult = _factor(sub, arrays["sup"][None], arrays["diag"][None])
    row = _zero_rows(pivot)[0]
    if row >= 0:
        raise ZeroPivotError(f"zero pivot at row {row}")
    buffer = np.empty(2 * len(_offsets(size)) * size)
    forward, back = _coefficients(sub, pivot, mult, buffer, size)
    return _scan(arrays["rhs"], pivot[0], forward, back, 0, _scan_views(np.empty(size), size))


def _factor(sub, sup, diag):
    """Thomas pivots and multipliers of a block of systems: (pivot, mult).

    Row b of sub, sup and diag holds the diagonals of one system; the
    stepper passes each level's scalar diagonal broadcast along its row.
    Column i is eliminated for every system at once.  Past a zero pivot a
    row holds inf or nan, which no solve reads: the callers raise at that
    system instead (_zero_rows).  They silence numpy's warnings (np.errstate)
    for it and for the scan.
    """
    pivot = np.empty_like(sub)
    mult = np.empty_like(sub)
    pivot[:, 0] = diag[:, 0]
    np.divide(sup[:, 0], pivot[:, 0], out=mult[:, 0])
    # column i of each array, and the multipliers of column i - 1
    for s, u, d, p, m, previous in zip(sub.T[1:], sup.T[1:], diag.T[1:], pivot.T[1:],
                                       mult.T[1:], mult.T):
        np.multiply(s, previous, out=p)
        np.subtract(d, p, out=p)
        np.divide(u, p, out=m)
    return pivot, mult


def _zero_rows(pivot) -> list:
    """Per system (row of pivot), its first row with a zero pivot, or -1."""
    zero = pivot == 0.0
    return np.where(zero.any(axis=1), zero.argmax(axis=1), -1).tolist()


def _offsets(reach: int) -> list:
    """The scan's offsets s = 1, 2, 4, ... below reach, a system's size or a phase's unknowns."""
    return [1 << j for j in range((reach - 1).bit_length())]


def _coefficients(sub, pivot, mult, buffer, reach: int):
    """The scan coefficients of a chunk of systems, held in buffer: (forward, back).

    Row b of sub, pivot and mult holds one system's subdiagonal, pivots and
    multipliers (_factor).  forward[j] and back[j] belong to the offset
    s = 2**j below reach (_offsets): row b of forward[j] holds F_s[s:], of
    back[j] G_s[:-s], where F_1 = -sub/pivot and G_1 = -mult, and the
    doubling F_2s[i] = F_s[i] * F_s[i-s], G_2s[i] = G_s[i] * G_s[i+s]
    (Stone 1973, J. ACM 20).  Each offset's coefficients are formed as one
    contiguous vector over the chunk's full rows, so buffer holds at least
    2 * len(_offsets(reach)) * sub.size values.  A product that crosses a
    row boundary lands only in an entry that no scan reads, and each entry
    that is read depends only on read entries of the offset before it.
    """
    count, size = sub.shape
    offsets = _offsets(reach)
    if not offsets:
        return [], []
    f, g = buffer[:2 * len(offsets) * count * size].reshape(2, len(offsets), count * size)
    np.divide(sub, pivot, f[0].reshape(count, size))
    np.negative(f[0], f[0])
    np.negative(mult.reshape(-1), g[0])
    for j, h in enumerate(offsets[:-1], 1):
        np.multiply(f[j - 1, h:], f[j - 1, :-h], f[j, h:])
        np.multiply(g[j - 1, :-h], g[j - 1, h:], g[j, :-h])
    return ([f[j].reshape(count, size)[:, s:] for j, s in enumerate(offsets)],
            [g[j].reshape(count, size)[:, :-s] for j, s in enumerate(offsets)])


def _scan_views(y, reach: int):
    """The solution vector y and, per offset s (_offsets), (y[:-s], y[s:], product[s:]): (y, views).

    The offsets are those below reach.  product is a scratch vector of y's
    size; _scan works on the views, which are sliced once, not at every
    solve.
    """
    product = np.empty(len(y))
    return y, [(y[:-s], y[s:], product[s:]) for s in _offsets(reach)]


def _scan(rhs, pivot, forward, back, b, scan):
    """The forward and back substitution of every solve: the solution, in y of scan.

    pivot holds the pivots of system b of forward and back (_coefficients),
    scan is _scan_views of a vector of the system's size, with the same
    offsets.  From y = rhs / pivot, the forward sweep
    y[i] = rhs[i]/pivot[i] + F_1[i] * y[i-1] adds F_s[i] * y[i-s] for each
    offset s in turn, and the back sweep y[i] += G_1[i] * y[i+1] adds
    G_s[i] * y[i+s]: each sweep is one vector multiply-add per offset.
    """
    y, views = scan
    np.divide(rhs, pivot, y)
    for f, (lower, upper, product) in zip(forward, views):
        np.multiply(f[b], lower, product)
        np.add(upper, product, upper)
    for g, (lower, upper, product) in zip(back, views):
        np.multiply(g[b], upper, product)
        np.add(lower, product, lower)
    return y


def _memory_terms(grid: PhaseGrid, rfac: float, table: LagTable, d2, out):
    """Write rfac times the memory history of the grid's next step into out, at each next().

    The first step solves history row 0, which has no history, and leaves
    out as it is (zero).  The k-th step after it is the step from level k:
    its memory c[:k+1] @ d2[:k+1] is split at the start of its (start, run)
    in _plan: the rows 0..start are summed for the run's levels at once, one
    matrix product with the run's weights (_run_weights; the splitting of
    Hairer, Lubich & Schlichte 1985, SIAM J. Sci. Stat. Comput. 6, with a
    dense product in place of their FFT), and the rows after start per
    level (_level_weights).  So d2 must hold rows 0..k by then.
    """
    yield
    scratch, level = np.empty(grid.mesh.n), np.empty_like(out)
    for start, run in _plan(grid):
        known = _run_weights(grid, table, run, start) @ d2[:start + 1]
        for k, before in zip(run, known):
            np.matmul(_level_weights(grid, table, start, k, scratch), d2[start + 1:k + 1], level)
            np.add(before, level, level)
            np.multiply(rfac, level, out)
            yield


def _failure(grid: PhaseGrid, half):
    """Where grid first holds a non-finite value: (level, no infinity there), or (inf, True).

    half is the solid's half level, which counts as level 1/2, or None.
    """
    bad = ~np.isfinite(grid.ubar).all(axis=1)
    level, row = (int(bad.argmax()), grid.ubar[bad.argmax()]) if bad.any() else (math.inf, None)
    if half is not None and level >= 1 and not np.isfinite(half).all():
        level, row = 0.5, half
    return level, row is None or not np.isinf(row).any()


@np.errstate(all="ignore")
def _advance(grids) -> None:
    """Populate rows 1..n of one grid, or of a liquid and a solid grid, in place.

    The grids' rows stand side by side in one joint row [liquid 0..m1 |
    solid 0..m2], whose unknowns are every node but its two ends.  In a pair
    the two front nodes hold the melting value 0 and get identity rows
    (diagonal 1, off-diagonals and right-hand side 0), so the joint matrix
    is block diagonal: every product across them is +-0, and while the
    values are finite each grid's rows are the bits it gets alone.

    A step's matrix does not depend on the solution, so per block of
    _BLOCK_VALUES * len(grids) // (unknowns) levels, the first also solving
    history row 0, it forms the rows (_rows), pivots and multipliers
    (_factor) of all its steps, and per chunk their scan coefficients
    (_coefficients).  Per step it forms the right-hand side in place from the
    initial term, each phase's memory term (_memory_terms), the advective
    sum and the boundary values, substitutes (_scan) and stores the solved
    row's differences (_differences), each phase's second differences
    apart.  The advective sum is a running vector, updated once per solved
    row: its weights do not depend on the target level.

    It raises as advance_pair says and logs each phase's dominance count.  An
    overflow in one phase of a pair turns the other's rows to nan at the
    same level (0 * inf across the front rows), so at a tie for the earliest
    non-finite level (_failure) it names the phase that holds an infinity
    there, and else the liquid.
    """
    n = grids[0].mesh.n
    table = lag_table(n - 1, grids[0].params.alpha, 1.0 / n)
    # per entry of the joint row, its unknowns: each grid's interior nodes
    # and, between a pair's two grids, their two front nodes
    counts = [2] * (2 * len(grids) - 1)
    counts[::2] = [grid.m - 1 for grid in grids]
    offsets = list(accumulate(counts, initial=0))
    interiors = [slice(offsets[e], offsets[e + 1]) for e in range(0, len(counts), 2)]
    size = offsets[-1]
    row = np.empty(size + 2)  # the joint history row being solved
    initial, qfac, memory = np.zeros(size), np.zeros(size), np.zeros(size)
    rhs, adv, product, d2, dc = np.zeros((5, size))
    # per history row j and entry: time coefficient, implicit memory
    # coefficient and advective time factor; per grid its (left, right) boundary values
    time = np.ones((n + 1, len(counts)))
    implicit, advective = np.zeros((2, n + 1, len(counts)))
    edges, stores, sums = [None] * len(grids), [], []
    for i, (grid, interior) in enumerate(zip(grids, interiors)):
        (time[:, 2 * i], implicit[:, 2 * i], advective[:, 2 * i], edges[i], rfac,
         qfac[interior], initial[interior]) = _phase_coeffs(grid)
        # the grid's rows, its stored second differences, their newest row and its values
        stores.append((grid.ubar, np.empty((n + 1, grid.m - 1)), d2[interior],
                       row[1:-1][interior]))
        sums.append(_memory_terms(grid, rfac, table, stores[-1][1], memory[interior]))
    diagonal = np.add(time, 2.0 * implicit, out=time)  # per row and entry, t + 2r
    left_edge, right_edge = edges[0][:, 0], edges[-1][:, 1]

    # every scan product at an offset of the larger phase's unknown count or
    # more spans a front row or reads a front node's 0: it adds an exact zero
    reach = max(grid.m for grid in grids) - 1
    width = len(_offsets(reach)) * size  # one level's coefficients of one sweep
    chunk = max(1, _BLOCK_VALUES // max(width, 1))
    buffer = np.empty(2 * chunk * width)
    scan = _scan_views(row[1:-1], reach)
    violations = [0] * len(grids)
    for levels in _split(range(n), _BLOCK_VALUES * len(grids) // size):
        rows = range(levels.start + 1 if levels.start else 0, levels.stop + 1)
        part = slice(rows.start, rows.stop)
        q = np.repeat(advective[part], counts, axis=1)
        q *= qfac
        diag = np.repeat(diagonal[part], counts, axis=1)
        sub, sup, count = _rows(np.repeat(implicit[part], counts, axis=1), q, diag)
        violations = [v + int(count[interior].sum())
                      for v, interior in zip(violations, interiors)]
        left = (sub[:, 0] * left_edge[part]).tolist()
        right = (sup[:, -1] * right_edge[part]).tolist()
        pivot, mult = _factor(sub, sup, diag)
        del sup, diag
        zero_row = _zero_rows(pivot)
        gq = np.repeat(advective[part], counts, axis=1)
        for b, j in enumerate(rows):
            if zero_row[b] >= 0:
                grid, interior = next((grid, interior) for grid, interior in zip(grids, interiors)
                                      if zero_row[b] < interior.stop)
                raise ZeroPivotError(f"phase {grid.phase}, p={grid.p:.6g}: "
                                     f"zero pivot at row {zero_row[b] - interior.start}")
            if b % chunk == 0:
                forward, back = _coefficients(sub[b:b + chunk], pivot[b:b + chunk],
                                              mult[b:b + chunk], buffer, reach)
            for history in sums:
                next(history)
            np.add(initial, memory, rhs)
            np.multiply(qfac, adv, product)
            np.add(rhs, product, rhs)
            rhs[0] -= left[b]
            rhs[-1] -= right[b]
            _scan(rhs, pivot[b], forward, back, b % chunk, scan)
            row[0] = left_edge[j]
            row[-1] = right_edge[j]
            _differences(row, d2, dc)
            for ubar, stored, newest, solved in stores:
                stored[j] = newest
                if j:
                    ubar[j, 1:-1] = solved
            if not j:
                first = row.copy()
            np.multiply(gq[b], dc, product)
            np.add(adv, product, adv)
        del sub, pivot, mult, gq  # before the next block's set-up
    for grid, count in zip(grids, violations):
        if count:
            logger.warning(
                "diagonal dominance violated %d times while advancing phase %d (p=%.6g)",
                count, grid.phase, grid.p,
            )
    halves = [first[interior.start:interior.stop + 2] if grid.phase == 2 else None
              for grid, interior in zip(grids, interiors)]
    failed = [_failure(grid, half) for grid, half in zip(grids, halves)]
    if min(failed)[0] < math.inf:
        grid = grids[failed.index(min(failed))]
        raise InvalidStateError(
            f"non-finite values while advancing phase {grid.phase} (p={grid.p:.6g})"
        )
    for grid, half in zip(grids, halves):
        grid.half = half
        grid.filled_through = n


def advance_phase(grid: PhaseGrid) -> PhaseGrid:
    """Populate grid rows 1..n in place and keep the solid's half level as grid.half.

    Runs the stepper's level loop (_advance) over this one grid, with the
    arithmetic of assemble_phase{1,2}_step and thomas_solve.  Recomputes from
    level 0, so the result does not depend on rows filled before the call.
    A zero pivot raises ZeroPivotError; a row that overflows ends in
    InvalidStateError, with no numpy warning (np.errstate).
    """
    _advance((grid,))
    return grid


def advance_pair(liquid: PhaseGrid, solid: PhaseGrid):
    """Populate rows 1..n of a liquid and a solid grid in place, in one level loop: (liquid, solid).

    The two grids must share n and alpha.  Each grid gets the rows, half
    level and dominance warning that advance_phase gives it alone, bit for
    bit while its values are finite; one factorization and one scan per
    level solve both phases (_advance).  A zero pivot in either phase
    raises ZeroPivotError naming it, and non-finite values raise
    InvalidStateError naming the phase whose rows go non-finite first, so
    when one phase fails neither grid is finished.
    """
    if (liquid.phase, solid.phase) != (1, 2):
        raise GridMismatchError(f"expected phases (1, 2), got ({liquid.phase}, {solid.phase})")
    if liquid.mesh.n != solid.mesh.n or liquid.params.alpha != solid.params.alpha:
        raise GridMismatchError(
            f"grids disagree: n {liquid.mesh.n} vs {solid.mesh.n}, "
            f"alpha {liquid.params.alpha} vs {solid.params.alpha}"
        )
    _advance((liquid, solid))
    return liquid, solid


def _recover(grid: PhaseGrid, cols):
    """Physical temperature and position of the grid's columns cols at every level: (u, x).

    Both are read through s (_frame), so they do not depend on p.  They are
    the only arrays of their size it makes, and it overwrites no input: the
    solid's x is formed as v * width and then has the front added in place.
    """
    front, scale = _frame(grid)
    u = grid.ubar[:, cols] * scale[:, None]
    v = grid.v[cols]
    if grid.phase == 1:
        return u, v * front[:, None]
    x = v * (grid.mesh.ratio - front)[:, None]
    x += front[:, None]
    return u, x


def recover_physical(grid: PhaseGrid) -> RecoveredField:
    """Undo the auxiliary scaling and the front-fixing map, all levels at once."""
    u, x = _recover(grid, slice(None))
    return RecoveredField(tau=grid.tau, x=x, u=u)


def flux_terms(grid: PhaseGrid, levels) -> list:
    """A phase's front flux integrated in time up to each of levels (>= 1), without Gamma(alpha).

    The interface balance's term of one phase, for fronttrack; it lives
    here with the half level's geometry.  The flux is
    the one-sided difference quotient of the recovered temperature at the
    front per history row: flux[j] is level j's for j >= 1, flux[0] the
    solid's at its half level s = 1/(2n), integrated with the phase's rows
    (_step_weights).  The level-0 liquid quotient is defined as zero: at
    s = 0 the liquid has neither temperature nor width (0/0).
    """
    u, x = _recover(grid, [grid.m - 1, grid.m] if grid.phase == 1 else [0, 1])
    flux = np.empty(grid.mesh.n + 1)
    flux[0] = 0.0
    flux[1:] = (u[1:, 1] - u[1:, 0]) / (x[1:, 1] - x[1:, 0])
    if grid.phase == 2:
        # at s = 1/(2n) the node spacing is v[1] * width and u = half * width**2
        flux[0] = (grid.half[1] - grid.half[0]) * _half_width(grid) / grid.v[1]
    table = lag_table(grid.mesh.n - 1, grid.params.alpha, 1.0 / grid.mesh.n)
    return [np.dot(_step_weights(grid, table, k - 1), flux[:k + 1]) for k in levels]
