"""Series evaluation of the two-parameter Wright function and friends.

The two-parameter Wright function

    W(z; gamma, delta) = sum_{k>=0} z**k / (k! * Gamma(gamma*k + delta))

is entire in z for gamma > -1 and generalizes the complementary error
function.  Two closed forms double as validation oracles here:

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
of thousands of arguments, so the coefficients of an order and log k are
computed once per (gamma, delta, max_terms) and cached; the term loop only
multiplies, and its results are bit for bit those of the per-term loop.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

from .errors import InvalidInputError, NonConvergenceError

__all__ = [
    "WrightResult",
    "erfc",
    "reciprocal_gamma",
    "wright",
    "wright_series",
]

# Gamma(gamma*k + delta) has a pole (and the series term an exact zero)
# every other k when gamma = -1/2, so a single small term must never stop
# the summation; require this many consecutive sub-threshold terms.
_STOP_RUN = 3

_POLE_TOL = 1e-12

# largest x with exp(x) finite in double precision
_LOG_MAX = math.log(sys.float_info.max)

# largest roundoff, relative to max(|sum|, 1), that cancellation of large
# alternating terms may leave in an accepted sum
_CANCEL_TOL = 1e-6


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


def erfc(x: float) -> float:
    """Complementary error function (stdlib implementation, ~1 ulp)."""
    return math.erfc(x)


class WrightResult(NamedTuple):
    value: float
    # error estimate: the larger of the first omitted term's magnitude and
    # the summation roundoff, terms * eps * max(largest |term|, |sum|)
    term_bound: float
    terms: int  # number of series terms summed


def _gamma_sign(x: float) -> float:
    # sign of Gamma(x) away from poles: negative on (-1, 0), (-3, -2), ...
    if x > 0.0:
        return 1.0
    return -1.0 if math.floor(x) % 2 else 1.0


# markers in a coefficient table: the term vanishes (Gamma has a pole), or
# 1/Gamma is not finite and the term has to be formed in log space
_POLE = object()
_NON_FINITE = object()


@functools.lru_cache(maxsize=32)
def _coefficients(gamma: float, delta: float, max_terms: int) -> tuple:
    """1/Gamma(gamma*k + delta) for k = 0..max_terms, with _POLE and
    _NON_FINITE in place of the values the term loop must not multiply.
    The table ends early at the first k where gamma*k + delta is not finite."""
    table = []
    for k in range(max_terms + 1):
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


@functools.lru_cache(maxsize=4)
def _log_k(max_terms: int) -> tuple:
    """log k for k = 1..max_terms, at index k (index 0 is unused)."""
    return (0.0, *(math.log(k) for k in range(1, max_terms + 1)))


def wright_series(z: float, gamma: float, delta: float, tol: float = 1e-13,
                  max_terms: int = 700) -> WrightResult:
    """Sum the Wright series until the next term falls below tolerance.

    The truncation test is relative to the running partial sum, with an
    absolute fallback when the sum sits near zero, and must see _STOP_RUN
    consecutive small terms before stopping (terms vanish identically
    wherever gamma*k + delta is a nonpositive integer).

    Individual terms are formed as (z**k / k!) * (1/Gamma(gamma*k + delta)).
    The second factor does not depend on z: it comes from a table built
    once per (gamma, delta, max_terms) and cached, so the term loop only
    multiplies.  For gamma < 0 both factors eventually leave
    double-precision range even though their product does not, so a term
    switches to a log-space product (math.lgamma) where 1/Gamma is not
    finite or z**k / k! has underflowed.

    Raises InvalidInputError (every problem in one message) unless gamma >
    -1 and delta are finite, tol > 0 and max_terms >= 1.  Raises
    NonConvergenceError when max_terms is reached first, when gamma*k +
    delta or a term overflows double precision, or when the roundoff of
    the largest term (eps * max |term|) exceeds _CANCEL_TOL * max(|sum|, 1):
    such a sum cannot cancel back to an accurate value.  Below that limit
    the cancellation still costs digits, so term_bound also covers the
    roundoff of the whole sum.
    """
    problems = []
    if not gamma > -1.0:
        problems.append(f"gamma must be > -1, got {gamma}")
    elif not math.isfinite(gamma):
        problems.append(f"gamma must be finite, got {gamma}")
    if not math.isfinite(delta):
        problems.append(f"delta must be finite, got {delta}")
    if not tol > 0.0:
        problems.append(f"tol must be > 0, got {tol}")
    if max_terms < 1:
        problems.append(f"max_terms must be >= 1, got {max_terms}")
    if problems:
        raise InvalidInputError("; ".join(problems))
    if z == 0.0:
        return WrightResult(reciprocal_gamma(delta), 0.0, 1)

    coefficients = _coefficients(gamma, delta, max_terms)
    log_k = _log_k(max_terms)
    log_abs_z = math.log(abs(z))
    total = 0.0
    pw = 1.0  # z**k / k!
    lw = 0.0  # log |z**k / k!|
    run = 0
    run_bound = 0.0
    term = 0.0
    peak = 0.0  # largest |term| so far
    for k, rg in enumerate(coefficients):
        if k > 0:
            pw *= z / k
            lw += log_abs_z - log_k[k]
        if rg is _POLE:
            term = 0.0
        elif rg is _NON_FINITE or pw == 0.0:
            # z**k/k! underflowed or 1/Gamma overflowed; both factors are
            # extreme while their product is not -- recombine in log space.
            x = gamma * k + delta
            sign = _gamma_sign(x)
            if z < 0.0 and k % 2:
                sign = -sign
            log_term = lw - math.lgamma(x)
            if log_term > _LOG_MAX:
                raise NonConvergenceError(
                    f"Wright series term {k} overflows at z={z:.6g}, "
                    f"gamma={gamma:.6g}, delta={delta:.6g} (log |term| {log_term:.1f})",
                    partial=total,
                    last_term=term,
                    terms=k,
                )
            term = sign * math.exp(log_term)
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
        if mag <= tol * size:
            run += 1
            if mag > run_bound:
                run_bound = mag
            if run >= _STOP_RUN:
                if peak * sys.float_info.epsilon > _CANCEL_TOL * size:
                    raise NonConvergenceError(
                        f"Wright series cancels below roundoff at z={z:.6g}, "
                        f"gamma={gamma:.6g}, delta={delta:.6g} (largest term {peak:.3e}, "
                        f"sum {total:.3e})",
                        partial=total,
                        last_term=term,
                        terms=k + 1,
                    )
                roundoff = (k + 1) * sys.float_info.epsilon * max(peak, abs(total))
                return WrightResult(total, max(run_bound, roundoff), k + 1)
        else:
            run = 0
            run_bound = 0.0
    if len(coefficients) <= max_terms:
        raise NonConvergenceError(
            f"Wright series order overflows at term {len(coefficients)}: "
            f"gamma*k + delta is not finite at z={z:.6g}, gamma={gamma:.6g}, delta={delta:.6g}",
            partial=total,
            last_term=term,
            terms=len(coefficients),
        )
    raise NonConvergenceError(
        f"Wright series not converged after {max_terms} terms at "
        f"z={z:.6g}, gamma={gamma:.6g}, delta={delta:.6g} (last term {term:.3e})",
        partial=total,
        last_term=term,
        terms=max_terms + 1,
    )


def wright(z: float, gamma: float, delta: float) -> float:
    """The value of wright_series at its default tol and max_terms."""
    return wright_series(z, gamma, delta).value
