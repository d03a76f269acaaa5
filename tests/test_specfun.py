"""Wright series, reciprocal gamma, erfc."""

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
        # the infinite values are what send wright_series to its log-space path
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


class TestErfc:
    def test_zero(self):
        assert specfun.erfc(0.0) == 1.0

    def test_reference_value(self):
        assert specfun.erfc(0.5) == pytest.approx(0.4795001221869535, rel=1e-14)

    @given(st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_reflection(self, x):
        assert specfun.erfc(-x) == pytest.approx(2.0 - specfun.erfc(x), rel=1e-13, abs=1e-15)


class TestWrightArgs:
    """The argument checks of wright_series."""

    def test_rejects_gamma_at_minus_one(self):
        with pytest.raises(errors.InvalidInputError, match="gamma"):
            specfun.wright_series(z=1.0, gamma=-1.0, delta=1.0)

    def test_rejects_bad_tol_and_cap(self):
        with pytest.raises(errors.InvalidInputError) as excinfo:
            specfun.wright_series(z=1.0, gamma=-0.5, delta=1.0, tol=0.0, max_terms=0)
        assert "tol" in str(excinfo.value) and "max_terms" in str(excinfo.value)


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
        assert abs(specfun.wright(-z, -0.5, 1.0) - specfun.erfc(z / 2.0)) <= 1e-10

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
        with pytest.raises(errors.NonConvergenceError):
            specfun.wright_series(-1.0, -0.5, 1.0, max_terms=4)

    def test_nonconvergence_far_outside_range(self):
        with pytest.raises(errors.NonConvergenceError):
            specfun.wright(-60.0, -0.5, 1.0)

    def test_nonconvergence_when_terms_overflow(self):
        # log-space terms past double range: a typed error, not OverflowError
        with pytest.raises(errors.NonConvergenceError, match="overflows"):
            specfun.wright(-80.0, -0.475, 1.0)

    @pytest.mark.parametrize("z, gamma", [(-20.0, -0.475), (-12.0, -0.5)])
    def test_nonconvergence_when_terms_cancel_below_roundoff(self, z, gamma):
        # alternating terms up to 2.6e32 and 2.7e13 cancel to 1.6e18 and
        # -0.039, far from the true values (W(-12; -1/2, 1) = erfc(6) ~ 2e-17)
        with pytest.raises(errors.NonConvergenceError, match="roundoff") as info:
            specfun.wright(z, gamma, 1.0)
        assert info.value.partial is not None and info.value.terms > 1

    def test_alternating_large_argument_still_converges(self):
        # the log-space fallback territory: |z| large enough that z**k/k!
        # underflows before the series terms become negligible
        got = specfun.wright(-8.0, -0.5, 1.0)
        assert got == pytest.approx(specfun.erfc(4.0), abs=1e-10)


def _reference_series(z, g, d, tol=1e-13, max_terms=700):
    """wright_series as it was before the coefficient tables: 1/Gamma and
    log k recomputed for every term.  The reference for TestCoefficientTable."""
    if z == 0.0:
        return specfun.WrightResult(specfun.reciprocal_gamma(d), 0.0, 1)

    log_abs_z = math.log(abs(z))
    total = 0.0
    pw = 1.0
    lw = 0.0
    run = 0
    run_bound = 0.0
    term = 0.0
    peak = 0.0
    for k in range(max_terms + 1):
        if k > 0:
            pw *= z / k
            lw += log_abs_z - math.log(k)
        x = g * k + d
        nearest = round(x)
        if nearest <= 0 and abs(x - nearest) < specfun._POLE_TOL:
            term = 0.0
        else:
            rg = specfun.reciprocal_gamma(x)
            if pw != 0.0 and math.isfinite(rg):
                term = pw * rg
            else:
                sign = specfun._gamma_sign(x)
                if z < 0.0 and k % 2:
                    sign = -sign
                log_term = lw - math.lgamma(x)
                if log_term > specfun._LOG_MAX:
                    raise errors.NonConvergenceError(
                        f"Wright series term {k} overflows at z={z:.6g}, "
                        f"gamma={g:.6g}, delta={d:.6g} (log |term| {log_term:.1f})",
                        partial=total, last_term=term, terms=k)
                term = sign * math.exp(log_term)
        total += term
        mag = abs(term)
        if mag > peak:
            peak = mag
        threshold = tol * max(abs(total), 1.0)
        if mag <= threshold:
            run += 1
            run_bound = max(run_bound, mag)
            if run >= specfun._STOP_RUN:
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


def _outcome(series, args):
    """A result or NonConvergenceError as a tuple that compares floats bit for bit;
    args is the tuple (z, gamma, delta[, tol, max_terms])."""
    try:
        value, bound, terms = series(*args)
    except errors.NonConvergenceError as exc:
        return (type(exc), str(exc), _bits(exc.partial), _bits(exc.last_term), exc.terms)
    return (_bits(value), _bits(bound), terms)


# up to and past the cancellation guard (|z| about 12 at gamma = -1/2)
GUARD_ZS = [s * z for s in (1.0, -1.0)
            for z in (1e-3, 0.1, 0.5, 1.0, 2.5, 5.0, 8.0, 10.0, 12.0, 16.0, 20.0)]

ORDERS = [(-a / 2.0, d) for a in (0.25, 0.5, 0.75) for d in (1.0, 1.0 - a / 2.0)]
# every other term of gamma = -1/2 is a pole
ORDERS += [(-0.5, 1.0), (-0.5, 0.5)]


class TestCoefficientTable:
    @pytest.mark.parametrize("gamma, delta", ORDERS)
    def test_bit_identical_to_per_term_loop(self, gamma, delta):
        for z in GUARD_ZS:
            args = (z, gamma, delta)
            assert _outcome(specfun.wright_series, args) == _outcome(_reference_series, args), z

    @pytest.mark.parametrize("z, gamma, delta, reason", [
        (1e-300, -0.25, 0.75, "z**k / k! underflows"),
        (-20.0, -0.5, 1.0, "1/Gamma overflows; the sum cancels below roundoff"),
        (-80.0, -0.475, 1.0, "a log-space term overflows"),
    ])
    def test_log_space_branch(self, monkeypatch, z, gamma, delta, reason):
        args = (z, gamma, delta)
        expected = _outcome(_reference_series, args)
        calls = []
        lgamma = math.lgamma
        monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or lgamma(x))
        assert _outcome(specfun.wright_series, args) == expected
        assert calls, reason

    @pytest.mark.parametrize("tol, max_terms", [(1e-13, 4), (1e-6, 700), (1e-15, 700)])
    def test_term_cap_and_tolerance(self, tol, max_terms):
        for z in GUARD_ZS:
            for gamma, delta in ORDERS:
                args = (z, gamma, delta, tol, max_terms)
                assert _outcome(specfun.wright_series, args) == _outcome(_reference_series, args)

    def test_table_keyed_by_term_cap(self):
        # the same order with two caps: the short table must not serve the
        # long sum, nor the long table the short one
        for max_terms in (700, 20, 700):
            args = (-5.0, -0.25, 0.875, 1e-13, max_terms)
            assert _outcome(specfun.wright_series, args) == _outcome(_reference_series, args)
        with pytest.raises(errors.NonConvergenceError, match="after 20 terms"):
            specfun.wright_series(-5.0, -0.25, 0.875, max_terms=20)

    def test_gamma_of_huge_order_overflows_past_the_stopping_term(self):
        # gamma*k overflows from k = 180 on, long after this sum has stopped
        args = (1.0, 1e306, 1.0)
        assert _outcome(specfun.wright_series, args) == _outcome(_reference_series, args)

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


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as an oracle
    src = Path(specfun.__file__).resolve().parents[1]
    code = "import sys, fracstefan.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
