"""Two-phase melting-front solver with power-law memory.

Two independent routes to the same problem: a closed-form similarity
solution built on the two-parameter Wright function (analytic, specfun)
and a front-fixing implicit finite-difference scheme with an iterative
search for the front coefficient (scheme, fronttrack, fracquad).  The cli
module cross-validates them and exports plot-ready CSV data.
"""

__version__ = "0.1.0"

from .analytic import (
    ExactSolution,
    PhysicalParams,
    front_exact,
    solve_exact,
    solve_p_exact,
    transcendental_residual,
    u1_exact,
    u2_exact,
)
from .fracquad import MemoryWeights, trap_weights
from .fronttrack import (
    FrontSolveResult,
    bisection_solve,
    final_time,
    front_residual,
    front_series,
    stefan_front_value,
)
from .scheme import (
    MeshConfig,
    PhaseGrid,
    TridiagonalSystem,
    advance_phase,
    assemble_phase1_step,
    assemble_phase2_step,
    make_phase_grid,
    recover_physical,
    thomas_solve,
)
from .specfun import WrightResult, erfc, reciprocal_gamma, wright

__all__ = [
    "ExactSolution",
    "FrontSolveResult",
    "MemoryWeights",
    "MeshConfig",
    "PhaseGrid",
    "PhysicalParams",
    "TridiagonalSystem",
    "WrightResult",
    "__version__",
    "advance_phase",
    "assemble_phase1_step",
    "assemble_phase2_step",
    "bisection_solve",
    "erfc",
    "final_time",
    "front_exact",
    "front_residual",
    "front_series",
    "make_phase_grid",
    "reciprocal_gamma",
    "recover_physical",
    "solve_exact",
    "solve_p_exact",
    "stefan_front_value",
    "thomas_solve",
    "transcendental_residual",
    "trap_weights",
    "u1_exact",
    "u2_exact",
    "wright",
]
