"""Product-trapezoidal memory weights for the fractional history integral.

For samples on the uniform grid tau_j = j * dtau, the weights c[j] satisfy

    sum_j c[j] * f(tau_j)  ==  integral_0^{tau_{k+1}} (tau_{k+1} - xi)**(alpha-1) f(xi) dxi

exactly whenever f is piecewise linear on the grid.  That exactness is
the property the implicit stepping scheme leans on, and the test suite
checks it against independent per-interval analytic integration.

The closed-form weight expressions are second differences of lag**(alpha+1)
and cancel catastrophically for large lags; evaluation switches to a
binomial series once the estimated cancellation crosses 1e-9 relative.

split_start_weights covers a history whose first interval [0, dtau] is
integrated by two implicit half-steps instead: right-endpoint rectangles on
(0, dtau/2] and (dtau/2, dtau], so level 0 carries no weight and the level
dtau/2 carries one of its own.  The solid phase starts this way, because
its level-0 row jumps from the interface value 0 to the far-field value in
one space step and is no smooth sample of the integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

__all__ = ["MemoryWeights", "half_weight", "split_start_weights", "trap_weights"]

# Relative cancellation of the naive second difference grows like
# lag**2 * eps; 1415 is the smallest lag where lag**2 * 5e-16 > 1e-9.
SERIES_LAG = 1415


@dataclass(frozen=True)
class MemoryWeights:
    """Weights c[j], j = 0..k+1, targeting time level k+1."""

    k: int
    alpha: float
    dtau: float
    c: np.ndarray = field(repr=False)


def _interior_factor(lag: np.ndarray, alpha: float) -> np.ndarray:
    """(lag+1)**(alpha+1) + (lag-1)**(alpha+1) - 2*lag**(alpha+1), stably."""
    lag = np.asarray(lag, dtype=np.float64)
    ap1 = alpha + 1.0
    out = np.empty_like(lag)
    direct = lag < SERIES_LAG
    if direct.any():
        s = lag[direct]
        out[direct] = (s + 1.0) ** ap1 + (s - 1.0) ** ap1 - 2.0 * s ** ap1
    if not direct.all():
        big = lag[~direct]
        h2 = 1.0 / (big * big)
        # 2 * sum_{m>=1} binom(alpha+1, 2m) h**(2m); h <= 1/SERIES_LAG so
        # five terms leave the tail far below double precision.
        coef = ap1 * alpha / 2.0
        acc = coef * h2
        hpow = h2
        for m in range(2, 6):
            coef *= (ap1 - 2.0 * m + 2.0) * (ap1 - 2.0 * m + 1.0) / ((2.0 * m - 1.0) * 2.0 * m)
            hpow = hpow * h2
            acc = acc + coef * hpow
        out[~direct] = big ** ap1 * (2.0 * acc)
    return out


def _first_factor(k: int, alpha: float) -> float:
    """k**(alpha+1) - (k - alpha)*(k+1)**alpha, stably."""
    if k == 0:
        return alpha
    ap1 = alpha + 1.0
    if k < SERIES_LAG:
        return k ** ap1 - (k - alpha) * (k + 1.0) ** alpha
    # With K = k+1 and h = 1/K the expression equals
    # K**(alpha+1) * sum_{m>=2} binom(alpha+1, m) (-h)**m.
    K = k + 1.0
    h = 1.0 / K
    coef = ap1 * alpha / 2.0
    acc = coef * h * h
    hpow = h * h
    for m in range(3, 10):
        coef *= -(ap1 - m + 1.0) / m
        hpow = hpow * h
        acc = acc + coef * hpow
    return K ** ap1 * acc


def trap_weights(k: int, alpha: float, dtau: float) -> MemoryWeights:
    """Memory weights c[j], j = 0..k+1, for the step targeting level k+1."""
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must be in (0, 1], got {alpha}")
    if not dtau > 0.0:
        raise InvalidInputError(f"dtau must be > 0, got {dtau}")
    if k < 0:
        raise InvalidInputError(f"k must be >= 0, got {k}")
    pref = dtau ** alpha / (alpha * (alpha + 1.0))
    c = np.empty(k + 2)
    c[0] = pref * _first_factor(k, alpha)
    if k >= 1:
        lag = np.arange(k, 0, -1, dtype=np.float64)  # k - j + 1 for j = 1..k
        c[1:k + 1] = pref * _interior_factor(lag, alpha)
    c[k + 1] = pref
    return MemoryWeights(k=k, alpha=alpha, dtau=dtau, c=c)


def half_weight(target: float, alpha: float, dtau: float) -> float:
    """integral_0^{dtau/2} (target*dtau - xi)**(alpha-1) dxi, for target >= 1/2.

    target is the time the weight points at, in units of dtau: 0.5 for the
    first half-step itself, k+1 for the step to level k+1.
    """
    if not target >= 0.5:
        raise InvalidInputError(f"target must be >= 0.5, got {target}")
    if target == 0.5:
        factor = 0.5 ** alpha
    else:
        # target**alpha - (target - 1/2)**alpha without cancellation at large target
        factor = -target ** alpha * math.expm1(alpha * math.log1p(-0.5 / target))
    return dtau ** alpha / alpha * factor


def split_start_weights(k: int, alpha: float, dtau: float):
    """Weights (c, w_half) for the step to level k+1 after a split first interval.

    c[j] weights level j = 0..k+1 and w_half the level dtau/2.  The first
    interval is two right-endpoint half-steps, the rest product-trapezoidal:
    exact for f constant on (0, dtau/2] and on (dtau/2, dtau] and piecewise
    linear from dtau on.  c[0] is 0 and c[j >= 2] equal trap_weights.
    """
    c = trap_weights(k, alpha, dtau).c
    w_half = half_weight(k + 1.0, alpha, dtau)
    # c[0] plus the first-interval share of c[1] is the whole first interval
    c[1] += c[0] - w_half
    c[0] = 0.0
    return c, w_half
