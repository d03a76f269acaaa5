"""Front-coefficient search on the discrete interface energy balance.

Integrating the interface condition in time and discretizing the one-sided
heat fluxes on the recovered physical grids gives a computable front
position S(tau_n) for any candidate p.  The grid construction makes the
prescribed front hit x = 1 exactly at the final level, so the residual
1 - S(tau_n, p) vanishes at the consistent coefficient; bisection on that
residual is the search.

The balance is the sum of two per-phase terms,
S = (lambda2/(p**2 Gamma(alpha))) J2 - (lambda1/(p**2 Gamma(alpha))) J1,
where J1 is the liquid flux and J2 the solid flux, each integrated over the
front's own time s with the weight rows its own stepper uses
(scheme.flux_terms, beside the stepper's time rules).  A term depends only
on its own phase's grid, which depends on p only through kappa_i/p**2, so
front searches that share a dict of terms keyed by scheme.phase_key (the
cells of a table) advance each distinct phase grid once.  A candidate
whose two terms are both new advances its two grids in one level loop
(scheme.advance_pair).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import (
    DEFAULT_BRACKET,
    DEFAULT_EPS,
    DEFAULT_MAX_ITER,
    MeshConfig,
    PhysicalParams,
    _bisection,
    _is_integer,
)
from .errors import (
    FracStefanError,
    GridMismatchError,
    InvalidInputError,
    InvalidStateError,
)
from .scheme import (
    PhaseGrid,
    advance_pair,
    advance_phase,
    flux_terms,
    make_phase_grid,
    phase_key,
    recover_physical,  # noqa: F401  (perfbench's tracer wraps this module's binding)
)

__all__ = [
    "FrontSolveResult",
    "bisection_solve",
    "front_residual",
    "front_series",
    "stefan_front_value",
]

logger = logging.getLogger(__name__)


@dataclass
class FrontSolveResult:
    """Outcome of the bisection search for the front coefficient."""

    p: float
    s_final: float
    residual: float
    iterations: int
    history: list = field(repr=False)  # (candidate p, S(tau_n)) pairs, in order
    converged: bool
    # the advanced (liquid, solid) grids at p
    grids: tuple | None = field(repr=False)


def _check_pair(g1: PhaseGrid, g2: PhaseGrid) -> None:
    """Raise unless g1 is a liquid and g2 a solid grid of one candidate.

    The two grids must come from the same p, params and mesh, both be
    advanced through level n, and the solid must hold its half level.
    """
    if g1.phase != 1 or g2.phase != 2:
        raise GridMismatchError(f"expected phases (1, 2), got ({g1.phase}, {g2.phase})")
    if g1.p != g2.p or g1.params != g2.params or g1.mesh != g2.mesh:
        raise GridMismatchError(
            f"grids disagree: p {g1.p} vs {g2.p}, {g1.params} vs {g2.params}, "
            f"{g1.mesh} vs {g2.mesh}"
        )
    n = g1.mesh.n
    if g1.filled_through < n or g2.filled_through < n:
        raise GridMismatchError(
            f"grids must be advanced through level {n}, got "
            f"{g1.filled_through} and {g2.filled_through}"
        )
    if g2.half is None:
        raise InvalidStateError(
            "solid grid holds no half level; advance it with advance_phase or advance_pair")


def _front_value(params: PhysicalParams, p: float, term1, term2) -> float:
    """Heat-balance front position from the liquid and solid terms at one level.

    Formed on Python floats, which give numpy's bits without its overflow
    warning: a position that overflows is inf.
    """
    scale = p * p * math.gamma(params.alpha)
    return (params.lambda2 / scale) * float(term2) - (params.lambda1 / scale) * float(term1)


def stefan_front_value(g1: PhaseGrid, g2: PhaseGrid) -> float:
    """Discrete front position S(tau_n) from the interface heat balance.

    Both grids must be fully advanced from the same p, params and mesh.
    """
    _check_pair(g1, g2)
    n = g1.mesh.n
    return _front_value(g1.params, g1.p, flux_terms(g1, [n])[0], flux_terms(g2, [n])[0])


def front_series(g1: PhaseGrid, g2: PhaseGrid) -> np.ndarray:
    """Front position from the heat balance at every level, S[0..n].

    S[0] is pinned to 0 (the front starts at the origin); S[n] equals
    stefan_front_value.
    """
    _check_pair(g1, g2)
    levels = range(1, g1.mesh.n + 1)
    series = np.zeros(g1.mesh.n + 1)
    for k, term1, term2 in zip(levels, flux_terms(g1, levels), flux_terms(g2, levels)):
        series[k] = _front_value(g1.params, g1.p, term1, term2)
    return series


def _solve_candidate(p: float, params: PhysicalParams, mesh: MeshConfig, phase_terms: dict):
    """1 - S(tau_n, p) for candidate p, and the grids it advanced: (residual, (g1, g2) | None).

    Each phase's term at level n is read from phase_terms under its
    scheme.phase_key, or its grid is built, advanced and the term stored
    there.  Two missing phases advance together (advance_pair), one alone
    (advance_phase).  The grids are returned when both phases were
    advanced.  Errors carry the candidate in their message, and an advance
    that raises stores nothing: a failed pair stores neither term.  A
    balance that is not finite raises InvalidStateError.
    """
    if not p > 0.0:
        raise InvalidInputError(f"front coefficient must be > 0, got {p}")
    try:
        keys = [phase_key(phase, p, mesh, params) for phase in (1, 2)]
        grids = [make_phase_grid(phase, p, mesh, params)
                 for phase, key in zip((1, 2), keys) if key not in phase_terms]
        if len(grids) == 2:
            advance_pair(*grids)
        elif grids:
            advance_phase(grids[0])
    except FracStefanError as exc:
        raise type(exc)(f"candidate p={p:.8g}: {exc}") from exc
    for grid in grids:
        phase_terms[keys[grid.phase - 1]] = flux_terms(grid, [mesh.n])[0]
    s_final = _front_value(params, p, *[phase_terms[key] for key in keys])
    if not math.isfinite(s_final):
        raise InvalidStateError(f"candidate p={p:.8g}: front position S(tau_n) = {s_final} "
                                f"is not finite")
    return 1.0 - s_final, tuple(grids) if len(grids) == 2 else None


def front_residual(p: float, params: PhysicalParams, mesh: MeshConfig) -> float:
    """1 - S(tau_n, p): build both grids for candidate p, advance, evaluate.

    Nothing is cached across candidates; each call is an independent solve.
    """
    return _solve_candidate(p, params, mesh, {})[0]


def bisection_solve(params: PhysicalParams, mesh: MeshConfig,
                    bracket=DEFAULT_BRACKET, eps: float = DEFAULT_EPS,
                    max_iter: int = DEFAULT_MAX_ITER,
                    phase_terms: dict | None = None) -> FrontSolveResult:
    """Bisection on the front residual, by analytic._bisection.

    Follows the classic recipe: evaluate both endpoints first (either may
    already satisfy |1 - S| < eps and end the search), require a sign
    change, then halve.  Hitting max_iter, or a bracket that holds no
    further double, returns converged=False rather than raising;
    iterations counts the midpoints.  Every candidate is solved by one
    call of _solve_candidate.  The returned p is always the last
    candidate, so the search keeps only that candidate's grids and returns
    them as result.grids.

    phase_terms is the store of per-phase balance terms that
    _solve_candidate reads and fills.  Searches that share one dict (the
    cells of a table) advance each distinct phase grid once between them;
    such a search returns grids=None.  None gives the search a fresh dict.
    """
    if not 0.0 < eps < math.inf:
        raise InvalidInputError(f"eps must be finite and > 0, got {eps}")
    if not _is_integer(max_iter) or max_iter < 1:
        raise InvalidInputError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    keep_grids = phase_terms is None
    if keep_grids:
        phase_terms = {}
    grids = None
    history = []

    def evaluate(p):
        nonlocal grids
        grids = None  # let the previous pair go before advancing the next
        r, pair = _solve_candidate(p, params, mesh, phase_terms)
        if keep_grids:
            grids = pair
        history.append((p, 1.0 - r))
        logger.debug("front residual at p=%.8g: %+.6e", p, r)
        return r

    for p, r, _, _ in _bisection(evaluate, *bracket):
        iterations = max(len(history) - 2, 0)
        if abs(r) < eps or iterations == max_iter:
            break
    return FrontSolveResult(p, 1.0 - r, r, iterations, history, abs(r) < eps, grids)
