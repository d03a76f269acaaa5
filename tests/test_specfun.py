"""Wright series and reciprocal gamma."""

import bisect
import functools
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstefan import errors, specfun

INV_SQRT_PI = 0.5641895835477563


class TestReciprocalGamma:
    def test_one(self):
        assert specfun.reciprocal_gamma(1.0) == 1.0

    @pytest.mark.parametrize("pole", [0.0, -1.0, -2.0, -7.0, -40.0])
    def test_poles_exactly_zero(self, pole):
        assert specfun.reciprocal_gamma(pole) == 0.0

    def test_half(self):
        assert specfun.reciprocal_gamma(0.5) == pytest.approx(INV_SQRT_PI, rel=1e-14)

    @pytest.mark.parametrize("x, expected", [
        (172.0, 0.0), (200.0, 0.0),  # Gamma overflows
        (-180.5, -math.inf), (-171.5, math.inf),  # Gamma underflows, to -0 and a subnormal
    ])
    def test_beyond_double_range(self, x, expected):
        # the infinite values stop wright_series with NonConvergenceError (TestDoubleRange)
        assert specfun.reciprocal_gamma(x) == expected

    @given(st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, x):
        # 1/Gamma(x+1) = (1/Gamma(x)) / x away from the poles
        if abs(x) < 1e-3 or abs(x - round(x)) < 1e-3:
            return
        lhs = specfun.reciprocal_gamma(x + 1.0)
        rhs = specfun.reciprocal_gamma(x) / x
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestWrightArgs:
    """The argument checks of wright_series."""

    def test_rejects_gamma_at_minus_one(self):
        with pytest.raises(errors.InvalidInputError, match="gamma"):
            specfun.wright_series(z=1.0, gamma=-1.0, delta=1.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_z(self, z):
        # every problem in one message; a NaN z used to sum all 701 terms
        # and z = inf to come back as the value inf
        with pytest.raises(errors.InvalidInputError) as excinfo:
            specfun.wright_series(z=z, gamma=-1.0, delta=1.0)
        assert "z must be finite" in str(excinfo.value) and "gamma" in str(excinfo.value)


class TestWright:
    def test_z_zero_is_reciprocal_gamma_of_delta(self):
        assert specfun.wright(0.0, -0.5, 1.0) == 1.0
        assert specfun.wright(0.0, -0.5, 0.5) == pytest.approx(INV_SQRT_PI, rel=1e-14)

    @given(st.floats(min_value=-0.9, max_value=2.0),
           st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_z_zero_exact(self, gamma, delta):
        assert specfun.wright(0.0, gamma, delta) == specfun.reciprocal_gamma(delta)

    def test_erfc_special_case(self):
        assert specfun.wright(-1.0, -0.5, 1.0) == pytest.approx(0.4795001221869535, abs=1e-12)

    def test_gaussian_special_case(self):
        assert specfun.wright(-2.0, -0.5, 0.5) == pytest.approx(0.20755374871029736, abs=1e-12)

    @pytest.mark.parametrize("z", np.linspace(0.0, 5.0, 26))
    def test_erfc_identity_on_range(self, z):
        assert abs(specfun.wright(-z, -0.5, 1.0) - math.erfc(z / 2.0)) <= 1e-10

    @pytest.mark.parametrize("z", np.linspace(0.0, 5.0, 26))
    def test_gaussian_identity_on_range(self, z):
        expected = math.exp(-z * z / 4.0) / math.sqrt(math.pi)
        assert abs(specfun.wright(-z, -0.5, 0.5) - expected) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("z", [-3.0, -2.25, -1.5, -0.75, -0.1])
    def test_against_high_precision_sum(self, alpha, z):
        # independent oracle: 50-digit arithmetic, fixed 600-term summation
        mp.mp.dps = 50
        for delta in (1.0, 1.0 - alpha / 2.0):
            zm, gm, dm = mp.mpf(z), mp.mpf(-alpha / 2.0), mp.mpf(delta)
            total = mp.mpf(0)
            for k in range(600):
                total += zm ** k / mp.factorial(k) * mp.rgamma(gm * k + dm)
            got = specfun.wright(z, -alpha / 2.0, delta)
            assert got == pytest.approx(float(total), rel=1e-9)

    def test_reports_term_bound_and_count(self):
        result = specfun.wright_series(-1.5, -0.25, 1.0)
        assert result.term_bound <= 1e-13 * max(abs(result.value), 1.0)
        assert 1 < result.terms <= 700

    @pytest.mark.parametrize("z", [-10.0, -8.0])
    def test_term_bound_covers_cancellation_roundoff(self, z):
        # accepted sums that cancel terms up to 6.6e8 (z = -10) and 1.3e5
        # (z = -8): 60-digit oracle, the same series summed to convergence
        result = specfun.wright_series(z, -0.5, 1.0)
        with mp.workdps(60):
            exact = mp.mpf(0)
            for k in range(400):
                exact += mp.mpf(z) ** k / mp.factorial(k) * mp.rgamma(1 - mp.mpf(k) / 2)
            error = abs(mp.mpf(result.value) - exact)
        assert error > 1e-11  # roundoff far above the first omitted term
        assert error <= result.term_bound

    def test_nonconvergence_when_cap_hit(self):
        # gamma = 0, z = 600: the terms 600**k / k! peak at k = 600 and are
        # still above 1e255 when the cap is reached
        with pytest.raises(errors.NonConvergenceError, match="not converged after 700 terms") \
                as info:
            specfun.wright_series(600.0, 0.0, 1.0)
        assert info.value.terms == 701

    def test_sums_give_up_inside_double_range(self):
        # W(z; 0, 1) = exp(z): at z = 200 the sum ends within term_bound of
        # exp(200) in 576 terms; at z = 250 its terms are still above the
        # tail after 700, although exp(250) is a finite double
        result = specfun.wright_series(200.0, 0.0, 1.0)
        assert abs(result.value - math.exp(200.0)) <= result.term_bound
        with pytest.raises(errors.NonConvergenceError, match="not converged after 700 terms"):
            specfun.wright_series(250.0, 0.0, 1.0)

    @pytest.mark.parametrize("z, gamma", [(180.0, -0.375), (290.0, -0.25)])
    def test_nonconvergence_when_sum_overflows(self, z, gamma):
        # the terms stay finite but their sum does not; an infinite sum used
        # to pass the stopping test and come back as a converged value
        with pytest.raises(errors.NonConvergenceError, match="sum overflows") as info:
            specfun.wright_series(z, gamma, 1.0)
        assert math.isinf(info.value.partial) and info.value.terms > 1

    def test_nonconvergence_far_outside_range(self):
        with pytest.raises(errors.NonConvergenceError):
            specfun.wright(-60.0, -0.5, 1.0)

    def test_nonconvergence_when_terms_overflow(self):
        # 1/Gamma(gamma*k + delta) past double range at term 363: a typed
        # error, not OverflowError
        with pytest.raises(errors.NonConvergenceError,
                           match="term 363 has no finite coefficient"):
            specfun.wright(-80.0, -0.475, 1.0)

    @pytest.mark.parametrize("z, gamma", [(-16.0, -0.475), (-12.0, -0.5)])
    def test_nonconvergence_when_terms_cancel_below_roundoff(self, z, gamma):
        # alternating terms up to 3.3e20 and 2.7e13 cancel to 6.9e6 and
        # 0.021, far from the true values (W(-12; -1/2, 1) = erfc(6) ~ 2e-17)
        with pytest.raises(errors.NonConvergenceError, match="roundoff") as info:
            specfun.wright(z, gamma, 1.0)
        assert info.value.partial is not None and info.value.terms > 1

    def test_alternating_large_argument_still_converges(self):
        # alternating terms up to 1.3e5 cancel to erfc(4) ~ 1.5e-8
        got = specfun.wright(-8.0, -0.5, 1.0)
        assert got == pytest.approx(math.erfc(4.0), abs=1e-10)


def _reference_series(z, g, d):
    """wright_series as it was before the coefficient tables: 1/Gamma
    recomputed for every term, stopped by three consecutive terms below the
    relative tolerance 1e-13, cap 700.  The double-precision reference for
    TestCoefficientTable."""
    tol, max_terms, stop_run = 1e-13, 700, 3
    if z == 0.0 and math.isfinite(specfun.reciprocal_gamma(d)):
        return specfun.WrightResult(specfun.reciprocal_gamma(d), 0.0, 1)

    total = 0.0
    pw = 1.0
    run = 0
    run_bound = 0.0
    term = 0.0
    peak = 0.0
    for k in range(max_terms + 1):
        if k > 0:
            pw *= z / k
        x = g * k + d
        nearest = round(x)
        if nearest <= 0 and abs(x - nearest) < specfun._POLE_TOL:
            term = 0.0
        else:
            rg = specfun.reciprocal_gamma(x)
            if not math.isfinite(rg):
                raise errors.NonConvergenceError(
                    f"Wright series term {k} has no finite coefficient at z={z:.6g}, "
                    f"gamma={g:.6g}, delta={d:.6g} (1/Gamma({x:.6g}) is not finite)",
                    partial=total, last_term=term, terms=k)
            term = pw * rg
        total += term
        mag = abs(term)
        if mag > peak:
            peak = mag
        threshold = tol * max(abs(total), 1.0)
        if mag <= threshold:
            run += 1
            run_bound = max(run_bound, mag)
            if run >= stop_run:
                if peak * sys.float_info.epsilon > specfun._CANCEL_TOL * max(abs(total), 1.0):
                    raise errors.NonConvergenceError(
                        f"Wright series cancels below roundoff at z={z:.6g}, "
                        f"gamma={g:.6g}, delta={d:.6g} (largest term {peak:.3e}, "
                        f"sum {total:.3e})",
                        partial=total, last_term=term, terms=k + 1)
                roundoff = (k + 1) * sys.float_info.epsilon * max(peak, abs(total))
                return specfun.WrightResult(total, max(run_bound, roundoff), k + 1)
        else:
            run = 0
            run_bound = 0.0
    raise errors.NonConvergenceError(
        f"Wright series not converged after {max_terms} terms at "
        f"z={z:.6g}, gamma={g:.6g}, delta={d:.6g} (last term {term:.3e})",
        partial=total, last_term=term, terms=max_terms + 1)


def _bits(x):
    return struct.pack("<d", x)


def _per_term_sum(z, g, d, terms):
    """The first terms terms of the series by wright_series's recurrence, with
    1/Gamma recomputed for every term and no term at a pole."""
    total, pw = 0.0, 1.0
    for k in range(terms):
        if k > 0:
            pw *= z / k
        x = g * k + d
        nearest = round(x)
        if not (nearest <= 0 and abs(x - nearest) < specfun._POLE_TOL):
            total += pw * specfun.reciprocal_gamma(x)
    return total


def _agrees_with_reference(args):
    """wright_series at args (z, gamma, delta) against _reference_series: both
    return or both raise NonConvergenceError; when both return, the values lie
    within the sum of their term_bounds, and the value is bit for bit the
    per-term sum of as many terms."""
    outcomes = []
    for series in (specfun.wright_series, _reference_series):
        try:
            outcomes.append(series(*args))
        except errors.NonConvergenceError:
            outcomes.append(None)
    got, ref = outcomes
    assert (got is None) == (ref is None), args
    if got is not None:
        assert abs(got.value - ref.value) <= got.term_bound + ref.term_bound, args
        assert _bits(got.value) == _bits(_per_term_sum(*args, got.terms)), args


@functools.lru_cache(maxsize=None)
def _exact_coefficients(g, d):
    with mp.workdps(50):
        return [mp.rgamma(mp.mpf(g) * k + mp.mpf(d)) / mp.factorial(k) for k in range(400)]


def _exact_error(value, z, g, d):
    """|value - W(z; g, d)|, the series summed to 400 terms at 50 digits: enough
    for |z| <= 20 at the closed-form route's orders."""
    with mp.workdps(50):
        zm = mp.mpf(z)
        exact = mp.fsum(c * zm ** k for k, c in enumerate(_exact_coefficients(g, d)))
        return float(abs(mp.mpf(value) - exact))


# up to and past the cancellation guard (|z| about 12 at gamma = -1/2)
GUARD_ZS = [s * z for s in (1.0, -1.0)
            for z in (1e-3, 0.1, 0.5, 1.0, 2.5, 5.0, 8.0, 10.0, 12.0, 16.0, 20.0)]

ORDERS = [(-a / 2.0, d) for a in (0.25, 0.5, 0.75) for d in (1.0, 1.0 - a / 2.0)]
# every other term of gamma = -1/2 is a pole
ORDERS += [(-0.5, 1.0), (-0.5, 0.5)]

# the table contracts' arguments: z in [-60, 60] by 0.25 and a few tiny |z|, z = 0 left out
TABLE_ZS = [z for z in np.arange(-60.0, 60.25, 0.25).tolist() if z] + [1e-300, -1e-12, 1e-6]
TABLE_ORDERS = ORDERS[:6] + [(0.0, 1.0), (-0.5, 1.0), (0.3, 0.7)]


def _table_terms(factors):
    """The log|z| of TABLE_ZS and log|c_k| + k log|z|, one row per z, where
    log|c_k| = log|factors[k]| - lgamma(k + 1) (-inf at a pole)."""
    logs = np.array([math.log(abs(f)) - math.lgamma(k + 1) if f else -math.inf
                     for k, f in enumerate(factors)])
    log_zs = [math.log(abs(z)) for z in TABLE_ZS]
    return log_zs, logs + np.outer(log_zs, np.arange(len(logs)))


class TestCoefficientTable:
    @pytest.mark.parametrize("gamma, delta", ORDERS)
    def test_bit_identical_to_per_term_loop(self, gamma, delta):
        # the table's factors are the per-term 1/Gamma; the sum's length is its
        # own, so against the reference the values agree within the bounds
        for z in GUARD_ZS:
            _agrees_with_reference((z, gamma, delta))

    def test_gamma_of_huge_order_overflows_past_the_stopping_term(self):
        # gamma*k overflows from k = 180 on, long after this sum has stopped
        args = (1.0, 1e306, 1.0)
        _agrees_with_reference(args)
        assert specfun.wright(*args) == 1.0

    @pytest.mark.parametrize("gamma, delta", [
        (math.inf, 1.0), (0.5, math.inf), (0.5, math.nan),
    ])
    def test_non_finite_order_raises_as_before(self, gamma, delta):
        # rejected up front with a typed error that names the key
        key = "delta" if math.isfinite(gamma) else "gamma"
        with pytest.raises(errors.InvalidInputError, match=f"{key} must be finite"):
            specfun.wright_series(1.0, gamma, delta)

    def test_order_overflowing_within_the_sum_does_not_converge(self):
        # gamma*k + delta overflows at k = 2, before the sum can stop
        with pytest.raises(errors.NonConvergenceError, match="overflows at term 2") as info:
            specfun.wright(1.0, 1.7e308, 1.0)
        assert info.value.terms == 2 and info.value.partial == 1.0

    def test_coefficients_built_once_per_order(self, monkeypatch):
        specfun._coefficients.cache_clear()
        calls = []
        reciprocal_gamma = specfun.reciprocal_gamma
        monkeypatch.setattr(specfun, "reciprocal_gamma",
                            lambda x: calls.append(x) or reciprocal_gamma(x))
        for z in np.linspace(-3.0, -0.01, 200):
            specfun.wright(float(z), -0.25, 0.875)
        assert len(calls) <= 700 + 1

    @pytest.mark.parametrize("gamma, delta", TABLE_ORDERS)
    def test_reach_omits_only_terms_below_the_tail(self, gamma, delta):
        # K = bisect_left(reach, log|z|) terms leave out only terms below _TAIL
        factors, reach = specfun._coefficients(gamma, delta)[:2]
        for log_z, row in zip(*_table_terms(factors)):
            length = bisect.bisect_left(reach, log_z)
            if length < len(reach):
                assert (row[length:] < math.log(specfun._TAIL)).all(), (log_z, length)

    @pytest.mark.parametrize("gamma, delta", TABLE_ORDERS)
    def test_hull_gives_the_largest_term(self, gamma, delta):
        # the hull vertex past the turns below log|z| is the table's largest log|term|
        factors, _, hull_k, hull_log, turns = specfun._coefficients(gamma, delta)
        for log_z, row in zip(*_table_terms(factors)):
            i = bisect.bisect_left(turns, log_z)
            assert abs(hull_log[i] + hull_k[i] * log_z - row.max()) <= 1e-12, log_z


# the closed-form route's orders, gamma = -alpha/2 and delta in {1, 1 - alpha/2}
ROUTE_ORDERS = ORDERS[:6]


class TestTermBound:
    @pytest.mark.parametrize("gamma, delta", ROUTE_ORDERS)
    def test_route_orders_within_term_bound_of_50_digit_sum(self, gamma, delta):
        # z in [-20, 0] by 0.5; past the cancellation guard (|z| about 15 at
        # alpha = 0.75, 20 at 0.5) the sums are rejected, not wrong
        accepted = 0
        for i in range(41):
            z = -0.5 * i
            try:
                result = specfun.wright_series(z, gamma, delta)
            except errors.NonConvergenceError as exc:
                assert "cancels below roundoff" in str(exc), z
                continue
            assert _exact_error(result.value, z, gamma, delta) <= result.term_bound, z
            accepted += 1
        assert accepted >= 30


class TestDoubleRange:
    """Where 1/Gamma(gamma*k + delta) leaves double range the sum stops with
    NonConvergenceError; an underflowed z**k / k! gives a zero term."""

    @pytest.mark.parametrize("gamma, delta", ROUTE_ORDERS)
    def test_route_orders_keep_finite_coefficients_to_z_minus_40(self, gamma, delta):
        # the route's arguments stay within about |z| = 20; other failures
        # (cancellation below roundoff) are allowed here
        for z in np.linspace(-40.0, 0.0, 161):
            try:
                specfun.wright_series(float(z), gamma, delta)
            except errors.NonConvergenceError as exc:
                assert "no finite coefficient" not in str(exc), z

    @pytest.mark.parametrize("z, gamma, delta", [
        (-52.25, -0.375, 0.625),  # alpha = 0.75
        (-152.25, -0.25, 0.75),  # alpha = 0.5
    ])
    def test_route_orders_first_lose_a_coefficient(self, z, gamma, delta):
        # on the 0.25 grid of z, the first argument whose sum ends on a term
        # beyond double range; the one before it sums the same whole table, and
        # the cancellation guard decides before the table's end
        with pytest.raises(errors.NonConvergenceError, match="no finite coefficient") as lost:
            specfun.wright_series(z, gamma, delta)
        with pytest.raises(errors.NonConvergenceError, match="cancels below roundoff") as info:
            specfun.wright_series(z + 0.25, gamma, delta)
        assert info.value.terms == lost.value.terms

    def test_gives_up_long_sums_near_gamma_minus_one(self):
        # this range is narrowed on purpose: the sum needs 283 terms and
        # 1/Gamma(-0.69*250 + 1) is beyond double range; the log-space form of
        # the terms used to sum it to 1.4118533802669118
        with pytest.raises(errors.NonConvergenceError,
                           match=r"term 250 has no finite coefficient .*1/Gamma\(-171.5\)") \
                as info:
            specfun.wright_series(5.0, -0.69, 1.0)
        assert info.value.terms == 250 and math.isfinite(info.value.partial)

    def test_underflowed_power_gives_zero_terms(self):
        # z**k / k! underflows from k = 2, and no term past the first reaches the
        # tail: the value is the reference's (four terms) bit for bit, and
        # within term_bound of the 50-digit sum
        args = (1e-300, -0.25, 0.75)
        result = specfun.wright_series(*args)
        assert result.value == _reference_series(*args).value
        assert _exact_error(result.value, *args) <= result.term_bound

    @pytest.mark.parametrize("gamma, delta", [(0.5, -180.5), (-0.25, -171.7)])
    @pytest.mark.parametrize("z", [0.0, 1e-3, 0.5])
    def test_term_zero_beyond_double_range(self, z, gamma, delta):
        # 1/Gamma(delta) is -inf and +inf; at z = 0 the value used to come
        # back as that infinity with terms=1, as if the sum had converged
        with pytest.raises(errors.NonConvergenceError,
                           match="term 0 has no finite coefficient") as info:
            specfun.wright_series(z, gamma, delta)
        assert info.value.terms == 0 and info.value.partial == 0.0


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as an oracle
    src = Path(specfun.__file__).resolve().parents[1]
    code = "import sys, fracstefan.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
