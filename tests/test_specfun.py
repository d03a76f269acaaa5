"""Wright series, reciprocal gamma, erfc."""

import math
import os
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
    def test_rejects_gamma_at_minus_one(self):
        with pytest.raises(errors.InvalidInputError, match="gamma"):
            specfun.WrightArgs(z=1.0, gamma=-1.0, delta=1.0)

    def test_rejects_bad_tol_and_cap(self):
        with pytest.raises(errors.InvalidInputError) as excinfo:
            specfun.WrightArgs(z=1.0, gamma=-0.5, delta=1.0, tol=0.0, max_terms=0)
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
        result = specfun.wright_series(specfun.WrightArgs(-1.5, -0.25, 1.0))
        assert result.term_bound <= 1e-13 * max(abs(result.value), 1.0)
        assert 1 < result.terms <= 700

    def test_nonconvergence_when_cap_hit(self):
        with pytest.raises(errors.NonConvergenceError):
            specfun.wright(-1.0, -0.5, 1.0, max_terms=4)

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


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as an oracle
    src = Path(specfun.__file__).resolve().parents[1]
    code = "import sys, fracstefan.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
