"""Front-coefficient search on the discrete interface energy balance.

Integrating the interface condition in time and discretizing the one-sided
heat fluxes on the recovered physical grids gives a computable front
position S(tau_n) for any candidate p.  The grid construction makes the
prescribed front hit x = 1 exactly at the final level, so the residual
1 - S(tau_n, p) vanishes at the consistent coefficient; bisection on that
residual is the search.

Each flux is integrated in time with the rule its own stepper uses: the
liquid flux product-trapezoidally from level 0, the solid flux with the
split start (two right-endpoint half-steps over the first interval, via
the half-level row), so the solid's level-0 corner quotient carries no
weight.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import DEFAULT_BRACKET, PhysicalParams
from .errors import (
    FracStefanError,
    GridMismatchError,
    InvalidInputError,
    InvalidStateError,
    NoSignChangeError,
)
from .fracquad import LagTable, lag_table
from .scheme import (
    MeshConfig,
    PhaseGrid,
    _half_width,
    advance_phase,
    make_phase_grid,
    recover_physical,
)

__all__ = [
    "FrontSolveResult",
    "bisection_solve",
    "final_time",
    "front_residual",
    "front_series",
    "stefan_front_value",
]

logger = logging.getLogger(__name__)

DEFAULT_EPS = 1e-3
DEFAULT_MAX_ITER = 60


@dataclass
class FrontSolveResult:
    """Outcome of the bisection search for the front coefficient."""

    p: float
    s_final: float
    residual: float
    iterations: int
    history: list = field(repr=False)  # (candidate p, S(tau_n)) pairs, in order
    converged: bool
    # the advanced (liquid, solid) grids at p; None when residual_fn replaced the grid solve
    grids: tuple | None = field(default=None, repr=False)


def _interface_fluxes(g1: PhaseGrid, g2: PhaseGrid):
    """One-sided difference quotients of the recovered temperatures.

    Returns (flux1, flux2, flux2_half): per time level, plus the solid
    quotient at the half level tau = dtau/2, which advance_phase keeps on
    the solid grid.  The level-0 liquid quotient is defined as zero: its
    numerator vanishes identically with empty initial liquid data, and the
    guard keeps 0 over a near-zero spacing from producing junk.
    """
    if g1.phase != 1 or g2.phase != 2:
        raise GridMismatchError(f"expected phases (1, 2), got ({g1.phase}, {g2.phase})")
    if g1.p != g2.p or g1.dtau != g2.dtau or g1.mesh.n != g2.mesh.n:
        raise GridMismatchError(
            f"grids disagree: p {g1.p} vs {g2.p}, dtau {g1.dtau} vs {g2.dtau}, "
            f"n {g1.mesh.n} vs {g2.mesh.n}"
        )
    n = g1.mesh.n
    if g1.filled_through < n or g2.filled_through < n:
        raise GridMismatchError(
            f"grids must be advanced through level {n}, got "
            f"{g1.filled_through} and {g2.filled_through}"
        )
    if g2.half is None:
        raise InvalidStateError("solid grid holds no half level; advance it with advance_phase")
    f1 = recover_physical(g1)
    f2 = recover_physical(g2)
    m1 = g1.m
    flux1 = np.empty(n + 1)
    flux1[0] = 0.0
    flux1[1:] = (f1.u[1:, m1] - f1.u[1:, m1 - 1]) / (f1.x[1:, m1] - f1.x[1:, m1 - 1])
    flux2 = (f2.u[:, 1] - f2.u[:, 0]) / (f2.x[:, 1] - f2.x[:, 0])
    # at tau = dtau/2 the node spacing is v[1] * width and u = half * width**2
    width = _half_width(g2.p, g2.dtau, g2.mesh.ratio, g2.params.alpha)
    flux2_half = (g2.half[1] - g2.half[0]) * width / g2.v[1]
    return flux1, flux2, flux2_half


def _front_value(g1: PhaseGrid, table: LagTable, k: int, flux1, flux2, flux2_half) -> float:
    """Heat-balance front position at level k >= 1; table is _lag_table(g1)."""
    params = g1.params
    ga = math.gamma(params.alpha)
    w1 = table.trap(k - 1)  # weights targeting level k
    w2, w_half = table.split(k - 1)
    return float(
        (params.lambda2 / ga) * (np.dot(w2, flux2[:k + 1]) + w_half * flux2_half)
        - (params.lambda1 / ga) * np.dot(w1, flux1[:k + 1])
    )


def _lag_table(g1: PhaseGrid) -> LagTable:
    """The weights of the steps to levels 1..n of the grids' time axis."""
    return lag_table(g1.mesh.n - 1, g1.params.alpha, g1.dtau)


def stefan_front_value(g1: PhaseGrid, g2: PhaseGrid) -> float:
    """Discrete front position S(tau_n) from the interface heat balance.

    Both grids must be fully advanced with the same p and time step.
    """
    return _front_value(g1, _lag_table(g1), g1.mesh.n, *_interface_fluxes(g1, g2))


def front_series(g1: PhaseGrid, g2: PhaseGrid) -> np.ndarray:
    """Front position from the heat balance at every level, S[0..n].

    S[0] is pinned to 0 (the front starts at the origin); S[n] equals
    stefan_front_value.
    """
    fluxes = _interface_fluxes(g1, g2)
    table = _lag_table(g1)
    n = g1.mesh.n
    series = np.zeros(n + 1)
    for k in range(1, n + 1):
        series[k] = _front_value(g1, table, k, *fluxes)
    return series


def _solve_candidate(p: float, params: PhysicalParams, mesh: MeshConfig):
    """Build and advance both grids for candidate p: (1 - S(tau_n, p), (g1, g2)).

    Errors carry the candidate in their message.
    """
    if not p > 0.0:
        raise InvalidInputError(f"front coefficient must be > 0, got {p}")
    try:
        g1 = advance_phase(make_phase_grid(1, p, mesh, params))
        g2 = advance_phase(make_phase_grid(2, p, mesh, params))
        return 1.0 - stefan_front_value(g1, g2), (g1, g2)
    except FracStefanError as exc:
        raise type(exc)(f"candidate p={p:.8g}: {exc}") from exc


def front_residual(p: float, params: PhysicalParams, mesh: MeshConfig) -> float:
    """1 - S(tau_n, p): build both grids for candidate p, advance, evaluate.

    Nothing is cached across candidates; each call is an independent solve.
    """
    return _solve_candidate(p, params, mesh)[0]


def bisection_solve(params: PhysicalParams, mesh: MeshConfig,
                    bracket=DEFAULT_BRACKET, eps: float = DEFAULT_EPS,
                    max_iter: int = DEFAULT_MAX_ITER,
                    residual_fn=None) -> FrontSolveResult:
    """Bisection on the front residual.

    Follows the classic recipe: evaluate both endpoints first (either may
    already satisfy |1 - S| < eps and end the search), require a sign
    change, then halve.  Hitting max_iter returns converged=False rather
    than raising.  The returned p is always the last candidate, so the
    search keeps only that candidate's grids and returns them as
    result.grids.  residual_fn replaces the grid solve, for testing; the
    result then holds no grids.
    """
    p_a, p_b = float(bracket[0]), float(bracket[1])
    if not (0.0 < p_a < p_b):
        raise InvalidInputError(f"bracket must satisfy 0 < p_a < p_b, got {bracket}")
    if not eps > 0.0:
        raise InvalidInputError(f"eps must be > 0, got {eps}")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter}")
    grids = None
    if residual_fn is None:
        def residual_fn(p):
            nonlocal grids
            grids = None  # let the previous pair go before advancing the next
            r, grids = _solve_candidate(p, params, mesh)
            return r

    history = []

    def evaluate(p):
        r = residual_fn(p)
        history.append((p, 1.0 - r))
        logger.debug("front residual at p=%.8g: %+.6e", p, r)
        return r

    r_a = evaluate(p_a)
    if abs(r_a) < eps:
        return FrontSolveResult(p_a, 1.0 - r_a, r_a, 0, history, True, grids)
    r_b = evaluate(p_b)
    if abs(r_b) < eps:
        return FrontSolveResult(p_b, 1.0 - r_b, r_b, 0, history, True, grids)
    if r_a * r_b >= 0.0:
        raise NoSignChangeError(
            f"front residual does not change sign on [{p_a}, {p_b}]: "
            f"{r_a:+.6e} vs {r_b:+.6e}"
        )

    p_c, r_c = p_a, r_a
    for iteration in range(1, max_iter + 1):
        p_c = 0.5 * (p_a + p_b)
        r_c = evaluate(p_c)
        if abs(r_c) < eps:
            return FrontSolveResult(p_c, 1.0 - r_c, r_c, iteration, history, True, grids)
        if r_a * r_c > 0.0:
            p_a, r_a = p_c, r_c
        else:
            p_b, r_b = p_c, r_c
    return FrontSolveResult(p_c, 1.0 - r_c, r_c, max_iter, history, False, grids)


def final_time(p: float, alpha: float) -> float:
    """Time at which the prescribed front reaches x = 1: p**(-2/alpha)."""
    if not p > 0.0:
        raise InvalidInputError(f"front coefficient must be > 0, got {p}")
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must be in (0, 1], got {alpha}")
    return p ** (-2.0 / alpha)
