"""Product-trapezoidal memory weights for the fractional history integral.

For samples on the uniform grid tau_j = j * dtau, the weights c[j] satisfy

    sum_j c[j] * f(tau_j)  ==  integral_0^{tau_{k+1}} (tau_{k+1} - xi)**(alpha-1) f(xi) dxi

exactly whenever f is piecewise linear on the grid.  That exactness is
the property the implicit stepping scheme leans on, and the test suite
checks it against independent per-interval analytic integration.

The closed-form weight expressions are second differences of lag**(alpha+1)
and cancel catastrophically for large lags; evaluation switches to a
binomial series once the estimated cancellation crosses 1e-9 relative.

The solid phase integrates its first interval [0, dtau] by two implicit
half-steps instead: right-endpoint rectangles on (0, dtau/2] and
(dtau/2, dtau], whose sample 0 is the level dtau/2.  half_weight gives
that half level's weight; the rule that puts it into a row lives with the
stepper (scheme._first_interval).

The interior weights depend only on the lag k - j + 1, so lag_table builds
them once for all lags of a grid, as columns a row is read from: interior
per lag, the first interval's weight per step (first) and the half
level's (half), and the new level's weight pref.  trap_weights is the
product-trapezoidal row of one k.  lag_table caches its tables, one per
(n, alpha, dtau), so their arrays are read-only; a table builds first and
half once, when first asked.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .analytic import _is_integer
from .errors import InvalidInputError

__all__ = ["LagTable", "MemoryWeights", "half_weight", "lag_table", "trap_weights"]

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


@dataclass(frozen=True)
class LagTable:
    """The weight columns of one grid, built once; rows are read from them.

    interior[n - lag] = pref * factor(lag) for lag = n, ..., 1, so the
    interior weights c[1..k] of the step to level k+1 are its last k
    entries.  first[k] and half[k] are the first interval's weight and the
    half level's in the step from level k, and pref is the new level's
    weight c[k+1].  Every table with n >= k holds the same bits for k.  Its
    arrays are read-only (lag_table caches the table).
    """

    alpha: float
    dtau: float
    pref: float
    interior: np.ndarray = field(repr=False)

    @cached_property
    def first(self) -> np.ndarray:
        """pref * _first_factor(k), the first interval's weight, for k = 0..len(interior)."""
        return _read_only(np.array([self.pref * _first_factor(k, self.alpha)
                                    for k in range(self.interior.shape[0] + 1)]))

    @cached_property
    def half(self) -> np.ndarray:
        """half_weight(k + 1), the half level's weight, for k = 0..len(interior)."""
        return _read_only(np.array([half_weight(k + 1.0, self.alpha, self.dtau)
                                    for k in range(self.interior.shape[0] + 1)]))


def _check_alpha_dtau(alpha: float, dtau: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must be in (0, 1], got {alpha}")
    if not 0.0 < dtau < math.inf:
        raise InvalidInputError(f"dtau must be finite and > 0, got {dtau}")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def lag_table(n: int, alpha: float, dtau: float) -> LagTable:
    """The weight columns of the steps k = 0..n on a grid with time step dtau.

    Equal arguments return the same table, whose arrays are read-only.
    """
    _check_alpha_dtau(alpha, dtau)
    if not (_is_integer(n) and n >= 0):
        raise InvalidInputError(f"n must be an integer >= 0, got {n!r}")
    return _lag_table(operator.index(n), alpha, dtau)


@lru_cache(maxsize=64)
def _lag_table(n: int, alpha: float, dtau: float) -> LagTable:
    pref = dtau ** alpha / (alpha * (alpha + 1.0))
    lag = np.arange(n, 0, -1, dtype=np.float64)
    return LagTable(alpha=alpha, dtau=dtau, pref=pref,
                    interior=_read_only(pref * _interior_factor(lag, alpha)))


def trap_weights(k: int, alpha: float, dtau: float) -> MemoryWeights:
    """Memory weights c[j], j = 0..k+1, for the step targeting level k+1."""
    if not (_is_integer(k) and k >= 0):
        raise InvalidInputError(f"k must be an integer >= 0, got {k!r}")
    table = lag_table(k, alpha, dtau)
    c = np.empty(k + 2)
    c[0] = table.pref * _first_factor(k, alpha)
    c[1:k + 1] = table.interior
    c[k + 1] = table.pref
    return MemoryWeights(k=k, alpha=alpha, dtau=dtau, c=c)


def half_weight(target: float, alpha: float, dtau: float) -> float:
    """integral_0^{dtau/2} (target*dtau - xi)**(alpha-1) dxi, for target >= 1/2.

    target is the time the weight points at, in units of dtau: 0.5 for the
    first half-step itself, k+1 for the step to level k+1.
    """
    if not 0.5 <= target < math.inf:
        raise InvalidInputError(f"target must be finite and >= 0.5, got {target}")
    _check_alpha_dtau(alpha, dtau)
    if target == 0.5:
        factor = 0.5 ** alpha
    else:
        # target**alpha - (target - 1/2)**alpha without cancellation at large target
        factor = -target ** alpha * math.expm1(alpha * math.log1p(-0.5 / target))
    return dtau ** alpha / alpha * factor

