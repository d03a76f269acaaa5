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

Evaluation is by direct summation with no asymptotic continuation.  Where huge
alternating terms cancel below their roundoff, or a sum needs more terms than
its table holds, the evaluator raises NonConvergenceError rather than return
silently wrong digits; callers treat that as "outside the validated range".

The coefficients c_k = 1/(k! Gamma(gamma*k + delta)) do not depend on z, and
the closed-form route evaluates a handful of orders at tens of thousands of
arguments, so each order's table is built once and cached: the factors
1/Gamma(gamma*k + delta), the reach of each sum length (the largest |z| at
which every later term is below an absolute tail) and the upper hull of
log|c_k|, which gives the largest term.  A call bisects for its length,
sums that many terms with no test per term, and checks the sum once.
"""

from __future__ import annotations

import bisect
import functools
import math
import struct
import sys
from typing import NamedTuple

from .errors import InvalidInputError, NonConvergenceError

__all__ = ["WrightResult", "reciprocal_gamma", "wright", "wright_series"]

_POLE_TOL = 1e-12

# largest roundoff, relative to max(|sum|, 1), that cancellation of large
# alternating terms may leave in an accepted sum
_CANCEL_TOL = 1e-6

# every term a sum omits is below this absolute size
_TAIL = 1e-16
_MAX_TERMS = 700

# past its table's end nothing bounds a term, and at gamma = -1/2 every other
# term is a pole, so a sum's first two omitted terms must lie in the table
_SEEN = 2


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
    # error estimate: the larger of the tail, which bounds every omitted term, and the
    # roundoff of sum and coefficients, (terms + 1) * eps * max(largest |term|, |sum|)
    term_bound: float
    terms: int  # number of series terms summed


def _doubles(values) -> memoryview:
    """values as a read-only sequence of doubles, 8 bytes each, that bisect can search."""
    values = list(values)
    return memoryview(struct.pack(f"{len(values)}d", *values)).cast("d")


@functools.lru_cache(maxsize=32)
def _coefficients(gamma: float, delta: float) -> tuple:
    """The order's table (factors, reach, hull_k, hull_log, turns).  factors[k] =
    1/Gamma(gamma*k + delta), 0.0 at the poles, up to the first k where it or
    gamma*k + delta is not finite.  K terms omit only terms below _TAIL while
    log|z| <= reach[K]; reach never decreases, and stops short of the last
    _SEEN - 1 lengths.  The largest term is at a vertex (hull_k, hull_log) of
    the upper hull of log|c_k|, the next one once log|z| passes its turn."""
    factors = []
    for k in range(_MAX_TERMS + 1):
        x = gamma * k + delta
        if not math.isfinite(x):
            break
        nearest = round(x)
        rg = 0.0 if nearest <= 0 and abs(x - nearest) < _POLE_TOL else reciprocal_gamma(x)
        if not math.isfinite(rg):
            break
        factors.append(rg)
    logs = [math.log(abs(rg)) - math.lgamma(k + 1) if rg else -math.inf
            for k, rg in enumerate(factors)]
    # from the longest sum down, the least log|z| at which a later term meets the tail
    tail, low, reach = math.log(_TAIL), math.inf, []
    for k in range(len(logs) - 1, 0, -1):
        low = min(low, (tail - logs[k]) / k)
        reach.append(low)
    reach.append(low if logs and logs[0] <= tail else -math.inf)  # term 0 is free of z
    hull_k, hull_log = [], []
    for k, a in enumerate(logs):
        while a > -math.inf and len(hull_k) > 1 and ((hull_log[-1] - hull_log[-2]) * (
                k - hull_k[-1]) <= (a - hull_log[-1]) * (hull_k[-1] - hull_k[-2])):
            del hull_k[-1], hull_log[-1]
        if a > -math.inf:
            hull_k.append(k)
            hull_log.append(a)
    turns = [(hull_log[i] - hull_log[i + 1]) / (hull_k[i + 1] - hull_k[i])
             for i in range(len(hull_k) - 1)]
    return (tuple(factors), _doubles(reversed(reach[_SEEN - 1:])), _doubles(hull_k),
            _doubles(hull_log), _doubles(turns))


def _failure(what, z, gamma, delta, partial, last_term, terms, note=None):
    """The NonConvergenceError of a sum: what went wrong, the argument and order, a note."""
    note = f" ({note})" if note else ""
    return NonConvergenceError(
        f"Wright series {what} at z={z:.6g}, gamma={gamma:.6g}, delta={delta:.6g}{note}",
        partial=partial, last_term=last_term, terms=terms)


def wright_series(z: float, gamma: float, delta: float) -> WrightResult:
    """Sum the Wright series to the length its order's table sets for |z|.

    The length K is the shortest whose reach covers |z|, so every omitted
    term is below _TAIL.  The sum is K terms (z**k / k!) * (1/Gamma(gamma*k +
    delta)), the second factor from the order's cached table, with no test
    per term; a term vanishes where gamma*k + delta is a nonpositive integer.

    Raises InvalidInputError (every problem in one message) unless z,
    gamma > -1 and delta are finite.  Then raises NonConvergenceError, in
    this order, when the sum leaves double range; when the roundoff of the
    largest term (eps * max |term|, from the table's hull) exceeds
    _CANCEL_TOL * max(|sum|, 1), as such a sum cannot cancel back to an
    accurate value; or when no length covers |z|, after summing the whole
    table: a term's 1/Gamma is beyond double range (gamma*k + delta below
    about -171.5, at z = 0 too), gamma*k + delta overflows, or _MAX_TERMS
    terms after the first do not reach the tail.  Below the cancellation
    limit digits are still lost, so term_bound covers the sum's roundoff.

    The last case gives up on sums whose terms stay above _TAIL past
    _MAX_TERMS terms, whatever their value, though it is a finite double:
    W(z; 0, 1) = exp(z) from z of about 245 (about 4e106), W(z; -1/8, 1)
    from z of about 160 (about -1.6e83), and near gamma = -1 at smaller
    |z|.  The closed-form route never reaches them: it sums z <= 0 only
    (analytic).
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
    if z == 0.0 and math.isfinite(value := reciprocal_gamma(delta)):  # else term 0 fails below
        return WrightResult(value, 2.0 * sys.float_info.epsilon * abs(value), 1)

    factors, reach, hull_k, hull_log, turns = _coefficients(gamma, delta)
    log_z = math.log(abs(z)) if z else -math.inf
    terms = bisect.bisect_left(reach, log_z)
    ended = terms == len(reach)  # no length covers |z|: sum the whole table
    terms = len(factors) if ended else terms
    total = factors[0] if terms else 0.0
    pw = 1.0  # z**k / k!
    for k in range(1, terms):
        pw *= z / k
        total += pw * factors[k]
    term = pw * factors[terms - 1] if terms else 0.0
    i = bisect.bisect_left(turns, log_z)
    log_peak = hull_log[i] + hull_k[i] * log_z if hull_k else -math.inf
    peak = math.exp(log_peak) if log_peak < 709.78 else math.inf  # the largest |term|
    if not math.isfinite(total):  # report the first partial sum beyond range, not a later nan
        total, pw, terms = factors[0], 1.0, 1
        while math.isfinite(total):
            pw *= z / terms
            total += pw * factors[terms]
            terms += 1
        raise _failure(f"sum overflows to {total}", z, gamma, delta, total,
                       pw * factors[terms - 1], terms, f"largest term {peak:.3e}")
    size = total if total >= 0.0 else -total  # |total|, max(|total|, 1) as comparisons
    if peak * sys.float_info.epsilon > _CANCEL_TOL * (size if size > 1.0 else 1.0):
        raise _failure("cancels below roundoff", z, gamma, delta, total, term, terms,
                       f"largest term {peak:.3e}, sum {total:.3e}")
    if ended:
        x = gamma * terms + delta
        if terms > _MAX_TERMS:
            what, note = f"not converged after {_MAX_TERMS} terms", f"last term {term:.3e}"
        elif math.isfinite(x):
            what, note = (f"term {terms} has no finite coefficient",
                          f"1/Gamma({x:.6g}) is not finite")
        else:
            what, note = f"order overflows at term {terms}: gamma*k + delta is not finite", None
        raise _failure(what, z, gamma, delta, total, term, terms, note)
    roundoff = (terms + 1) * sys.float_info.epsilon * (peak if peak > size else size)
    return WrightResult(total, roundoff if roundoff > _TAIL else _TAIL, terms)


def wright(z: float, gamma: float, delta: float) -> float:
    """The value of wright_series."""
    return wright_series(z, gamma, delta).value
