"""Two-phase melting-front solver with power-law memory.

Two independent routes to the same problem: a closed-form similarity
solution built on the two-parameter Wright function (analytic, specfun)
and a front-fixing implicit finite-difference scheme with an iterative
search for the front coefficient (scheme, fronttrack, fracquad).  The cli
module cross-validates them and exports plot-ready CSV data.  The package
namespace holds the names of the library example in README.md and of the
acceptance gate; every other name lives in its module.
"""

__version__ = "0.1.0"

from .analytic import PhysicalParams, solve_exact, solve_p_exact, u1_exact
from .fracquad import trap_weights
from .fronttrack import bisection_solve, final_time
from .scheme import MeshConfig, recover_physical

__all__ = [
    "MeshConfig",
    "PhysicalParams",
    "__version__",
    "bisection_solve",
    "final_time",
    "recover_physical",
    "solve_exact",
    "solve_p_exact",
    "trap_weights",
    "u1_exact",
]
