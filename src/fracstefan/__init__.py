"""Two-phase melting-front solver with power-law memory.

Two independent routes to the same problem: a closed-form similarity
solution built on the two-parameter Wright function (analytic, specfun)
and a front-fixing implicit finite-difference scheme with an iterative
search for the front coefficient (scheme, fronttrack, fracquad).  The cli
module cross-validates them and exports plot-ready CSV data.  The package
namespace holds the names of the library example in README.md and of the
acceptance gate; every other name lives in its module.

Only the grid modules import numpy: bisection_solve, recover_physical and
trap_weights import their module, and with it numpy, when first read.
"""

import importlib

__version__ = "0.1.0"

from .analytic import MeshConfig, PhysicalParams, final_time, solve_exact, solve_p_exact, u1_exact

#: The grid route's names, each with its home module (PEP 562 __getattr__).
_GRID = {"bisection_solve": "fronttrack", "recover_physical": "scheme",
         "trap_weights": "fracquad"}

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


def __getattr__(name):
    if name not in _GRID:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_GRID[name]}", __name__), name)
    globals()[name] = value
    return value
