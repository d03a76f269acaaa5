"""Series evaluation of the two-parameter Wright function, and 1/Gamma.

The two-parameter Wright function

    W(z; gamma, delta) = sum_{k>=0} z**k / (k! * Gamma(gamma*k + delta))

is entire in z for gamma > -1 and generalizes the complementary error
function.  Two closed forms are the validation oracles of the tests, and
analytic uses them (math.erfc, math.exp) in place of the series at alpha = 1:

    W(-z; -1/2, 1)   = erfc(z/2)
    W(-z; -1/2, 1/2) = exp(-z**2/4) / sqrt(pi)

(The Gaussian identity is sometimes quoted with delta = -1/2, which fails
already at the k = 0 term since 1/Gamma(-1/2) != 1/sqrt(pi); delta = +1/2
is the consistent variant and the one implemented in the test suite.)

Evaluation is by direct summation with a relative truncation test and no
asymptotic continuation: once |z| is large enough that huge alternating
terms cancel below their roundoff or past the term cap, the evaluator
raises NonConvergenceError rather than return silently wrong digits.
Callers treat that as "outside the validated range".

The factor 1/Gamma(gamma*k + delta) of each term does not depend on z.
The closed-form route evaluates a handful of orders (gamma, delta) at tens
of thousands of arguments, so the coefficients of an order are computed
once per (gamma, delta) and cached; the term loop only multiplies, and its
results are bit for bit those of the per-term loop.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

from .errors import InvalidInputError, NonConvergenceError

__all__ = [
    "WrightResult",
    "reciprocal_gamma",
    "wright",
    "wright_series",
]

# Gamma(gamma*k + delta) has a pole (and the series term an exact zero)
# every other k when gamma = -1/2, so a single small term must never stop
# the summation; require this many consecutive sub-threshold terms.
_STOP_RUN = 3

_POLE_TOL = 1e-12

# largest roundoff, relative to max(|sum|, 1), that cancellation of large
# alternating terms may leave in an accepted sum
_CANCEL_TOL = 1e-6

# the truncation test's relative tolerance; the terms a sum may add after the first
_TOL = 1e-13
_MAX_TERMS = 700


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x); exactly 0.0 at the poles x = 0, -1, -2, ... and where Gamma
    overflows (x > 171.6); an infinity of Gamma's sign where it underflows."""
    try:
        g = math.gamma(x)
    except (ValueError, OverflowError):  # a pole, or Gamma beyond double range
        return 0.0
    if g == 0.0:
        return math.copysign(math.inf, g)
    return 1.0 / g


class WrightResult(NamedTuple):
    value: float
    # error estimate: the larger of the first omitted term's magnitude and
    # the summation roundoff, terms * eps * max(largest |term|, |sum|)
    term_bound: float
    terms: int  # number of series terms summed


# markers in a coefficient table: the term vanishes (Gamma has a pole), or
# 1/Gamma is beyond double range and the sum stops with NonConvergenceError
_POLE = object()
_NON_FINITE = object()


@functools.lru_cache(maxsize=32)
def _coefficients(gamma: float, delta: float) -> tuple:
    """1/Gamma(gamma*k + delta) for k = 0.._MAX_TERMS, with _POLE and
    _NON_FINITE in place of the values the term loop must not multiply.
    The table ends early at the first k where gamma*k + delta is not finite."""
    table = []
    for k in range(_MAX_TERMS + 1):
        x = gamma * k + delta
        if not math.isfinite(x):
            break
        nearest = round(x)
        if nearest <= 0 and abs(x - nearest) < _POLE_TOL:
            table.append(_POLE)
            continue
        rg = reciprocal_gamma(x)
        table.append(rg if math.isfinite(rg) else _NON_FINITE)
    return tuple(table)


def _failure(what, z, gamma, delta, partial, last_term, terms, note=None):
    """The NonConvergenceError of a sum that stopped: what went wrong, the
    argument and order, then the note in parentheses when there is one."""
    note = f" ({note})" if note else ""
    return NonConvergenceError(
        f"Wright series {what} at z={z:.6g}, gamma={gamma:.6g}, delta={delta:.6g}{note}",
        partial=partial, last_term=last_term, terms=terms)


def wright_series(z: float, gamma: float, delta: float) -> WrightResult:
    """Sum the Wright series until the next term falls below tolerance.

    The truncation test (_TOL) is relative to the running partial sum, with
    an absolute fallback when the sum sits near zero, and must see _STOP_RUN
    consecutive small terms before stopping (terms vanish identically
    wherever gamma*k + delta is a nonpositive integer).

    Individual terms are formed as (z**k / k!) * (1/Gamma(gamma*k + delta)).
    The second factor does not depend on z: it comes from a table built
    once per (gamma, delta) and cached, so the term loop only
    multiplies.  A term whose 1/Gamma is beyond double range (gamma*k +
    delta below about -171.5) stops the sum with NonConvergenceError.  At
    the closed form's orders -alpha/2 such a sum cancels below roundoff
    anyway; the sums given up are long ones at gamma below -1/2.  A z**k / k!
    that underflows makes a zero term, whose true size is below 2**-1074
    times the largest double and so below the truncation tolerance.

    Raises InvalidInputError (every problem in one message) unless z,
    gamma > -1 and delta are finite.  Raises NonConvergenceError when
    _MAX_TERMS terms after the first do not stop the sum, when gamma*k +
    delta, its 1/Gamma (at z = 0 too) or the sum leaves double range, or
    when the roundoff of the largest term (eps * max |term|) exceeds
    _CANCEL_TOL * max(|sum|, 1): such a sum cannot cancel back to an
    accurate value.  Below that limit the cancellation still costs digits,
    so term_bound also covers the roundoff of the whole sum.
    """
    problems = []
    if not math.isfinite(z):
        problems.append(f"z must be finite, got {z}")
    if not gamma > -1.0:
        problems.append(f"gamma must be > -1, got {gamma}")
    elif not math.isfinite(gamma):
        problems.append(f"gamma must be finite, got {gamma}")
    if not math.isfinite(delta):
        problems.append(f"delta must be finite, got {delta}")
    if problems:
        raise InvalidInputError("; ".join(problems))
    if z == 0.0 and math.isfinite(reciprocal_gamma(delta)):  # else term 0 fails below
        return WrightResult(reciprocal_gamma(delta), 0.0, 1)

    coefficients = _coefficients(gamma, delta)
    total = 0.0
    pw = 1.0  # z**k / k!
    run = 0
    run_bound = 0.0
    term = 0.0
    peak = 0.0  # largest |term| so far
    for k, rg in enumerate(coefficients):
        if k > 0:
            pw *= z / k
        if rg is _POLE:
            term = 0.0
        elif rg is _NON_FINITE:
            raise _failure(f"term {k} has no finite coefficient", z, gamma, delta, total, term,
                           k, f"1/Gamma({gamma * k + delta:.6g}) is not finite")
        else:
            term = pw * rg
        total += term
        # |term| and max(|total|, 1.0) as comparisons, not calls; a NaN
        # total passes through as max() would pass it
        mag = term if term >= 0.0 else -term
        size = total if total >= 0.0 else -total
        if size < 1.0:
            size = 1.0
        if mag > peak:
            peak = mag
        if mag <= _TOL * size:
            run += 1
            if mag > run_bound:
                run_bound = mag
            if run >= _STOP_RUN:
                if peak * sys.float_info.epsilon > _CANCEL_TOL * size:
                    raise _failure("cancels below roundoff", z, gamma, delta, total, term,
                                   k + 1, f"largest term {peak:.3e}, sum {total:.3e}")
                if not math.isfinite(total):
                    raise _failure(f"sum overflows to {total}", z, gamma, delta, total, term,
                                   k + 1, f"largest term {peak:.3e}")
                roundoff = (k + 1) * sys.float_info.epsilon * max(peak, abs(total))
                return WrightResult(total, max(run_bound, roundoff), k + 1)
        else:
            run = 0
            run_bound = 0.0
    if len(coefficients) <= _MAX_TERMS:
        raise _failure(f"order overflows at term {len(coefficients)}: gamma*k + delta is not "
                       "finite", z, gamma, delta, total, term, len(coefficients))
    raise _failure(f"not converged after {_MAX_TERMS} terms", z, gamma, delta, total, term,
                   _MAX_TERMS + 1, f"last term {term:.3e}")


def wright(z: float, gamma: float, delta: float) -> float:
    """The value of wright_series."""
    return wright_series(z, gamma, delta).value
