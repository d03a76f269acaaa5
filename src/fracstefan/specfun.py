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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidInputError, NonConvergenceError

__all__ = [
    "WrightArgs",
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


@dataclass(frozen=True)
class WrightArgs:
    """Argument bundle for one Wright-series evaluation."""

    z: float
    gamma: float
    delta: float
    tol: float = 1e-13
    max_terms: int = 700

    def __post_init__(self):
        problems = []
        if not self.gamma > -1.0:
            problems.append(f"gamma must be > -1, got {self.gamma}")
        if not self.tol > 0.0:
            problems.append(f"tol must be > 0, got {self.tol}")
        if self.max_terms < 1:
            problems.append(f"max_terms must be >= 1, got {self.max_terms}")
        if problems:
            raise InvalidInputError("; ".join(problems))


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


def wright_series(args: WrightArgs) -> WrightResult:
    """Sum the Wright series until the next term falls below tolerance.

    The truncation test is relative to the running partial sum, with an
    absolute fallback when the sum sits near zero, and must see _STOP_RUN
    consecutive small terms before stopping (terms vanish identically
    wherever gamma*k + delta is a nonpositive integer).

    Individual terms are formed as (z**k / k!) * (1/Gamma(gamma*k + delta)).
    For gamma < 0 both factors eventually leave double-precision range even
    though their product does not, so terms switch to a log-space product
    once the fast path under- or overflows.

    Raises NonConvergenceError when max_terms is reached first, when a
    term overflows double precision, or when the roundoff of the largest
    term (eps * max |term|) exceeds _CANCEL_TOL * max(|sum|, 1): such a sum
    cannot cancel back to an accurate value.  Below that limit the
    cancellation still costs digits, so term_bound also covers the
    roundoff of the whole sum.
    """
    z, g, d = args.z, args.gamma, args.delta
    if z == 0.0:
        return WrightResult(reciprocal_gamma(d), 0.0, 1)

    log_abs_z = math.log(abs(z))
    total = 0.0
    pw = 1.0  # z**k / k!
    lw = 0.0  # log |z**k / k!|
    run = 0
    run_bound = 0.0
    term = 0.0
    peak = 0.0  # largest |term| so far
    for k in range(args.max_terms + 1):
        if k > 0:
            pw *= z / k
            lw += log_abs_z - math.log(k)
        x = g * k + d
        nearest = round(x)
        if nearest <= 0 and abs(x - nearest) < _POLE_TOL:
            term = 0.0
        else:
            rg = reciprocal_gamma(x)
            if pw != 0.0 and math.isfinite(rg):
                term = pw * rg
            else:
                # z**k/k! underflowed or 1/Gamma overflowed; both factors
                # are extreme while their product is not -- recombine in
                # log space.
                sign = _gamma_sign(x)
                if z < 0.0 and k % 2:
                    sign = -sign
                log_term = lw - math.lgamma(x)
                if log_term > _LOG_MAX:
                    raise NonConvergenceError(
                        f"Wright series term {k} overflows at z={z:.6g}, "
                        f"gamma={g:.6g}, delta={d:.6g} (log |term| {log_term:.1f})",
                        partial=total,
                        last_term=term,
                        terms=k,
                    )
                term = sign * math.exp(log_term)
        total += term
        mag = abs(term)
        if mag > peak:
            peak = mag
        threshold = args.tol * max(abs(total), 1.0)
        if mag <= threshold:
            run += 1
            run_bound = max(run_bound, mag)
            if run >= _STOP_RUN:
                if peak * sys.float_info.epsilon > _CANCEL_TOL * max(abs(total), 1.0):
                    raise NonConvergenceError(
                        f"Wright series cancels below roundoff at z={z:.6g}, "
                        f"gamma={g:.6g}, delta={d:.6g} (largest term {peak:.3e}, "
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
    raise NonConvergenceError(
        f"Wright series not converged after {args.max_terms} terms at "
        f"z={z:.6g}, gamma={g:.6g}, delta={d:.6g} (last term {term:.3e})",
        partial=total,
        last_term=term,
        terms=args.max_terms + 1,
    )


def wright(z: float, gamma: float, delta: float, *, tol: float = 1e-13,
           max_terms: int = 700) -> float:
    """Convenience wrapper around wright_series returning only the value."""
    return wright_series(WrightArgs(z, gamma, delta, tol, max_terms)).value
