"""Closed-form similarity solution of the two-phase melting problem.

With a Caputo time derivative of order alpha the interface follows the
power law S(tau) = p * tau**(alpha/2); the liquid and solid temperature
profiles are ratios of Wright-function values of the similarity variable
x / tau**(alpha/2), and p is the root of one transcendental equation.
At alpha = 1 everything collapses to the classical erfc forms, which are
used directly there (cheaper and better conditioned than the series).

All operations are pure functions over immutable parameter records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import specfun
from .errors import (
    DegenerateInputError,
    DomainError,
    InvalidInputError,
    NoSignChangeError,
)

__all__ = [
    "DEFAULT_BRACKET",
    "ExactSolution",
    "PhysicalParams",
    "front_exact",
    "solve_exact",
    "solve_p_exact",
    "transcendental_residual",
    "u1_classical",
    "u2_classical",
    "u1_exact",
    "u2_exact",
]

#: Default search interval for the front coefficient; brackets every root
#: arising from the built-in parameter sets with ample margin.
DEFAULT_BRACKET = (0.1, 2.0)

_SINGULAR_TOL = 1e-14

_erfc_vec = np.vectorize(math.erfc, otypes=[np.float64])


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensionless model constants.

    theta_inf is the far-field temperature scaled so the melting point maps
    to 0 and the hot boundary to 1; it must be <= 0 in a melting setup.
    """

    alpha: float
    kappa1: float = 1.0
    kappa2: float = 1.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    theta_inf: float = -0.5

    def __post_init__(self):
        problems = []
        if not 0.0 < self.alpha <= 1.0:
            problems.append(f"alpha must be in (0, 1], got {self.alpha}")
        for name in ("kappa1", "kappa2", "lambda1", "lambda2"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                problems.append(f"{name} must be finite and > 0, got {value}")
        if not (self.theta_inf <= 0.0 and math.isfinite(self.theta_inf)):
            problems.append(
                f"theta_inf must be finite and <= 0 for a melting configuration, "
                f"got {self.theta_inf}"
            )
        if problems:
            raise InvalidInputError("; ".join(problems))


@dataclass(frozen=True)
class ExactSolution:
    """A converged front coefficient together with its parameter set."""

    p: float
    params: PhysicalParams

    @cached_property
    def front_values(self) -> tuple:
        """(liquid, solid) similarity profiles at the front x = p, tau = 1;
        kept after the first use, unless that use raised."""
        return tuple(_similarity(self.p, 1.0, kappa, self.params.alpha)
                     for kappa in (self.params.kappa1, self.params.kappa2))


def _similarity(x: float, tau: float, kappa: float, alpha: float) -> float:
    """W(-x / (sqrt(kappa) * tau**(alpha/2)); -alpha/2, 1), the profile both
    phases share; at alpha = 1 its closed form erfc(x / (2 sqrt(kappa*tau)))."""
    if alpha == 1.0:
        return specfun.erfc(x / (2.0 * math.sqrt(kappa * tau)))
    return specfun.wright(-x / (math.sqrt(kappa) * tau ** (alpha / 2.0)), -alpha / 2.0, 1.0)


def _classical_residual(p: float, params: PhysicalParams) -> float:
    # alpha = 1 form of the front equation, written as LHS - RHS.
    k1, k2 = params.kappa1, params.kappa2
    ec2 = specfun.erfc(p / (2.0 * math.sqrt(k2)))
    den1 = specfun.erfc(p / (2.0 * math.sqrt(k1))) - 1.0
    if abs(ec2) < _SINGULAR_TOL or abs(den1) < _SINGULAR_TOL:
        raise DegenerateInputError(
            f"classical front equation degenerate at p={p}: erfc denominators "
            f"{ec2:.3e}, {den1:.3e}"
        )
    solid = params.lambda2 * params.theta_inf * math.exp(-p * p / (4.0 * k2)) / (
        math.sqrt(math.pi * k2) * ec2
    )
    liquid = params.lambda1 * math.exp(-p * p / (4.0 * k1)) / (
        math.sqrt(math.pi * k1) * den1
    )
    return 0.5 * p - (solid - liquid)


def transcendental_residual(p: float, params: PhysicalParams) -> float:
    """LHS - RHS of the equation determining the front coefficient.

    At alpha = 1 this dispatches to the closed erfc form; otherwise the
    Wright-series ratios are evaluated directly.  Raises
    DegenerateInputError when a denominator sits within roundoff of its
    singular value, and propagates NonConvergenceError from the series.
    """
    if not p > 0.0:
        raise InvalidInputError(f"front coefficient must be > 0, got {p}")
    a = params.alpha
    if a == 1.0:
        return _classical_residual(p, params)
    g = -a / 2.0
    sq1 = math.sqrt(params.kappa1)
    sq2 = math.sqrt(params.kappa2)
    w1_den = specfun.wright(-p / sq1, g, 1.0) - 1.0
    w2_den = specfun.wright(-p / sq2, g, 1.0)
    if abs(w1_den) < _SINGULAR_TOL or abs(w2_den) < _SINGULAR_TOL:
        raise DegenerateInputError(
            f"front equation degenerate at p={p}: Wright denominators "
            f"{w1_den:.3e}, {w2_den:.3e}"
        )
    w1_num = specfun.wright(-p / sq1, g, 1.0 - a / 2.0)
    w2_num = specfun.wright(-p / sq2, g, 1.0 - a / 2.0)
    lhs = p * math.gamma(1.0 + a / 2.0) / math.gamma(1.0 - a / 2.0)
    rhs = (params.lambda2 / sq2) * params.theta_inf * w2_num / w2_den \
        - (params.lambda1 / sq1) * w1_num / w1_den
    return lhs - rhs


def solve_p_exact(params: PhysicalParams, bracket=DEFAULT_BRACKET,
                  tol: float = 1e-10) -> float:
    """Bisect the transcendental residual to the front coefficient.

    Deterministic; returns the bracket midpoint once its width is <= tol.
    Raises NoSignChangeError when the endpoints do not straddle a root.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise InvalidInputError(f"bracket must satisfy 0 < lo < hi, got {bracket}")
    if not tol > 0.0:
        raise InvalidInputError(f"tol must be > 0, got {tol}")
    f_lo = transcendental_residual(lo, params)
    if f_lo == 0.0:
        return lo
    f_hi = transcendental_residual(hi, params)
    if f_hi == 0.0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise NoSignChangeError(
            f"residual does not change sign on [{lo}, {hi}]: "
            f"{f_lo:+.6e} vs {f_hi:+.6e}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket exhausted at double precision
            break
        f_mid = transcendental_residual(mid, params)
        if f_mid == 0.0:
            return mid
        if math.copysign(1.0, f_lo) == math.copysign(1.0, f_mid):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def solve_exact(params: PhysicalParams, bracket=DEFAULT_BRACKET) -> ExactSolution:
    """solve_p_exact packaged with its parameters."""
    return ExactSolution(solve_p_exact(params, bracket), params)


def front_exact(tau: float, sol: ExactSolution) -> float:
    """Interface position S(tau) = p * tau**(alpha/2)."""
    if tau < 0.0:
        raise DomainError(f"tau must be >= 0, got {tau}")
    return sol.p * tau ** (sol.params.alpha / 2.0)


#: Relative slack when testing whether x lies on the front itself.
_EDGE_SLACK = 1e-12


def u1_exact(x: float, tau: float, sol: ExactSolution) -> float:
    """Liquid temperature at (x, tau); defined for 0 <= x <= S(tau)."""
    if tau <= 0.0:
        raise DomainError(f"tau must be > 0, got {tau}")
    front = front_exact(tau, sol)
    if x < 0.0 or x > front * (1.0 + _EDGE_SLACK):
        raise DomainError(f"x={x} outside liquid region [0, {front}] at tau={tau}")
    den = sol.front_values[0] - 1.0
    num = _similarity(x, tau, sol.params.kappa1, sol.params.alpha) - 1.0
    return 1.0 - num / den


def u2_exact(x: float, tau: float, sol: ExactSolution) -> float:
    """Solid temperature at (x, tau); defined for x >= S(tau).

    Far from the front the similarity argument grows and the series may
    stop converging (NonConvergenceError); callers emit gaps there.
    """
    if tau <= 0.0:
        raise DomainError(f"tau must be > 0, got {tau}")
    front = front_exact(tau, sol)
    if x < front * (1.0 - _EDGE_SLACK):
        raise DomainError(f"x={x} inside liquid region (front {front}) at tau={tau}")
    w_front = sol.front_values[1]
    w_here = _similarity(x, tau, sol.params.kappa2, sol.params.alpha)
    if abs(w_front) < _SINGULAR_TOL:
        raise DegenerateInputError(f"solid profile degenerate: W front value {w_front:.3e}")
    return sol.params.theta_inf * (w_front - w_here) / w_front


def u1_classical(x, tau, p: float, kappa1: float):
    """Vectorized alpha = 1 liquid profile (erfc form); oracle duty."""
    x = np.asarray(x, dtype=np.float64)
    num = _erfc_vec(x / (2.0 * np.sqrt(kappa1 * tau))) - 1.0
    den = math.erfc(p / (2.0 * math.sqrt(kappa1))) - 1.0
    return 1.0 - num / den


def u2_classical(x, tau, p: float, kappa2: float, theta_inf: float):
    """Vectorized alpha = 1 solid profile (erfc form); oracle duty."""
    x = np.asarray(x, dtype=np.float64)
    w_front = math.erfc(p / (2.0 * math.sqrt(kappa2)))
    w_here = _erfc_vec(x / (2.0 * np.sqrt(kappa2 * tau)))
    return theta_inf * (w_front - w_here) / w_front
