"""Closed-form similarity solution of the two-phase melting problem.

With a Caputo time derivative of order alpha the interface follows the
power law S(tau) = p * tau**(alpha/2); the liquid and solid temperature
profiles are ratios of Wright-function values of the similarity variable
x / tau**(alpha/2), and p is the root of one transcendental equation.
At alpha = 1 both Wright orders collapse to erfc and a Gaussian, used
directly there (cheaper and better conditioned than the series).

All operations are pure functions over immutable parameter records.
It also holds the run's input records (PhysicalParams, the grid's
MeshConfig), the search defaults and final_time, and imports only the
standard library, so the package namespace and the command line's parser
load no numpy; numpy loads with the first grid module (fracquad, scheme,
fronttrack).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import specfun
from .errors import (
    DegenerateInputError,
    DomainError,
    InvalidInputError,
    NoSignChangeError,
)

__all__ = [
    "DEFAULT_BRACKET",
    "DEFAULT_EPS",
    "DEFAULT_MAX_ITER",
    "ExactSolution",
    "MeshConfig",
    "PhysicalParams",
    "final_time",
    "front_exact",
    "solve_exact",
    "solve_p_exact",
    "transcendental_residual",
    "u1_exact",
    "u2_exact",
]

#: Default search interval for the front coefficient; brackets every root
#: arising from the built-in parameter sets with ample margin.
DEFAULT_BRACKET = (0.1, 2.0)

#: Default tolerance on |1 - S(tau_n)| and iteration cap of the grid route's
#: front search (fronttrack.bisection_solve).
DEFAULT_EPS = 1e-3
DEFAULT_MAX_ITER = 60

_SINGULAR_TOL = 1e-14

# bracket width at which solve_p_exact stops bisecting
_ROOT_TOL = 1e-10


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


def _is_integer(value) -> bool:
    """Whether operator.index accepts value: a Python or numpy integer, not a float."""
    return hasattr(type(value), "__index__")


@dataclass(frozen=True)
class MeshConfig:
    """Grid resolution and domain truncation.

    m1 and m2 are the liquid's and the solid's space intervals, n the time
    levels after level 0, and ratio the truncated solid extent L relative
    to the reference length: the solid spans L - s**(alpha/2) >= L - 1.
    """

    m1: int = 100
    m2: int = 500
    n: int = 400
    ratio: float = 10.0

    def __post_init__(self):
        problems = []
        for name, least, note in (("m1", 2, " (at least one interior node)"),
                                  ("m2", 2, " (at least one interior node)"), ("n", 1, "")):
            value = getattr(self, name)
            if not _is_integer(value):
                problems.append(f"{name} must be an integer, got {value!r}")
            elif value < least:
                problems.append(f"{name} must be >= {least}{note}, got {value}")
        if not (self.ratio > 1.0 and math.isfinite(self.ratio)):
            problems.append(f"ratio must be finite and > 1, got {self.ratio}")
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


def _similarity(x: float, tau: float, kappa: float, alpha: float,
                slope: bool = False) -> float:
    """W(-z; -alpha/2, delta), z = x / (sqrt(kappa) * tau**(alpha/2)): the profile
    both phases share (delta = 1) or, with slope, minus its z-derivative (delta =
    1 - alpha/2); at alpha = 1 erfc(y) and exp(-y**2)/sqrt(pi), y = z/2 = x /
    (2 sqrt(kappa*tau)).  At x = p, tau = 1 they give the front values that
    the profiles and the front equation divide by, and its numerators."""
    if alpha == 1.0:
        y = x / (2.0 * math.sqrt(kappa * tau))
        return math.exp(-y * y) / math.sqrt(math.pi) if slope else math.erfc(y)
    delta = 1.0 - alpha / 2.0 if slope else 1.0
    return specfun.wright(-x / (math.sqrt(kappa) * tau ** (alpha / 2.0)), -alpha / 2.0, delta)


def transcendental_residual(p: float, params: PhysicalParams) -> float:
    """LHS - RHS of the equation determining the front coefficient,

        p Gamma(1+alpha/2)/Gamma(1-alpha/2)
            = lambda2 theta_inf W2'/(sqrt(kappa2) W2) - lambda1 W1'/(sqrt(kappa1) (W1 - 1)),

    with Wi and Wi' the profile and slope orders of _similarity(p, 1,
    kappa_i), closed forms included at alpha = 1; with kappa1 = kappa2 each
    is evaluated once for both phases.  Raises DegenerateInputError when a
    denominator sits within roundoff of its singular value, and propagates
    NonConvergenceError from the series.
    """
    if not p > 0.0:
        raise InvalidInputError(f"front coefficient must be > 0, got {p}")
    a, k1, k2 = params.alpha, params.kappa1, params.kappa2
    w1 = _similarity(p, 1.0, k1, a)
    den1, den2 = w1 - 1.0, w1 if k2 == k1 else _similarity(p, 1.0, k2, a)
    if abs(den1) < _SINGULAR_TOL or abs(den2) < _SINGULAR_TOL:
        raise DegenerateInputError(
            f"front equation degenerate at p={p}: denominators {den1:.3e}, {den2:.3e}"
        )
    w1_num = _similarity(p, 1.0, k1, a, slope=True)
    w2_num = w1_num if k2 == k1 else _similarity(p, 1.0, k2, a, slope=True)
    lhs = p * math.gamma(1.0 + a / 2.0) / math.gamma(1.0 - a / 2.0)
    rhs = (params.lambda2 / math.sqrt(k2)) * params.theta_inf * w2_num / den2 \
        - (params.lambda1 / math.sqrt(k1)) * w1_num / den1
    return lhs - rhs


def _bisection(f, lo, hi, width=0.0):
    """The bisection of both routes: (p, f(p), lo, hi) at lo, at hi, then at each midpoint.

    (lo, hi) is the bracket once p's half is kept: the half whose ends'
    residuals differ in sign by math.copysign, which no product can
    underflow.  Raises InvalidInputError unless 0 < lo < hi < inf, and
    NoSignChangeError after the two ends if they share a sign.  Ends once
    the bracket is no wider than width or a midpoint falls on an end.
    """
    lo, hi = float(lo), float(hi)
    if not 0.0 < lo < hi < math.inf:
        raise InvalidInputError(f"bracket must satisfy 0 < lo < hi < inf, got ({lo}, {hi})")
    f_lo = f(lo)
    yield lo, f_lo, lo, hi
    f_hi = f(hi)
    yield hi, f_hi, lo, hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise NoSignChangeError(
            f"residual does not change sign on [{lo}, {hi}]: {f_lo:+.6e} vs {f_hi:+.6e}")
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket exhausted at double precision
            return
        f_mid = f(mid)
        if math.copysign(1.0, f_lo) == math.copysign(1.0, f_mid):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        yield mid, f_mid, lo, hi


def solve_p_exact(params: PhysicalParams, bracket=DEFAULT_BRACKET) -> float:
    """Bisect the transcendental residual to the front coefficient.

    Deterministic; returns a point of exact zero, else the bracket
    midpoint once its width is <= _ROOT_TOL or it holds no further double.
    Raises NoSignChangeError when the endpoints do not straddle a root.
    """
    lo, hi = bracket
    for p, residual, lo, hi in _bisection(lambda p: transcendental_residual(p, params),
                                         lo, hi, _ROOT_TOL):
        if residual == 0.0:
            return p
    return 0.5 * (lo + hi)


def solve_exact(params: PhysicalParams, bracket=DEFAULT_BRACKET) -> ExactSolution:
    """solve_p_exact packaged with its parameters."""
    return ExactSolution(solve_p_exact(params, bracket), params)


def final_time(p: float, alpha: float) -> float:
    """Time at which the prescribed front reaches x = 1: p**(-2/alpha).

    Raises DegenerateInputError when that time overflows a double.
    """
    if not 0.0 < p < math.inf:
        raise InvalidInputError(f"front coefficient must be finite and > 0, got {p}")
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must be in (0, 1], got {alpha}")
    try:
        return p ** (-2.0 / alpha)
    except OverflowError as exc:
        raise DegenerateInputError(
            f"final time p**(-2/alpha) overflows a double (p={p}, alpha={alpha})") from exc


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
    if abs(den) < _SINGULAR_TOL:
        raise DegenerateInputError(f"liquid profile degenerate: W front value - 1 = {den:.3e}")
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
