"""Similarity solution and the front-coefficient equation."""

import math
import struct

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALPHAS, P_EXACT_REF, ROWS, params_for
from fracstefan import analytic, errors, specfun


class TestPhysicalParams:
    def test_rejects_bad_alpha_and_positive_theta(self):
        with pytest.raises(errors.InvalidInputError) as excinfo:
            analytic.PhysicalParams(alpha=1.5, theta_inf=0.2)
        message = str(excinfo.value)
        assert "alpha" in message and "theta_inf" in message

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(errors.InvalidInputError, match="kappa1"):
            analytic.PhysicalParams(alpha=0.5, kappa1=0.0)

    @pytest.mark.parametrize("key", ["kappa1", "kappa2", "lambda1", "lambda2", "theta_inf"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, key, value):
        with pytest.raises(errors.InvalidInputError, match=key):
            analytic.PhysicalParams(alpha=0.5, **{key: value})


class TestTranscendentalResidual:
    @pytest.mark.parametrize("row,p", [(0, 0.9397), (1, 0.7555)])
    def test_reference_roots_nearly_annihilate(self, row, p):
        params = params_for(row, 1.0)
        assert abs(analytic.transcendental_residual(p, params)) < 1e-3

    @pytest.mark.parametrize("row", range(len(ROWS)))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_sign_change_on_default_bracket(self, row, alpha):
        params = params_for(row, alpha)
        lo = analytic.transcendental_residual(0.1, params)
        hi = analytic.transcendental_residual(2.0, params)
        assert lo * hi < 0.0

    def test_rejects_nonpositive_p(self):
        with pytest.raises(errors.InvalidInputError):
            analytic.transcendental_residual(0.0, params_for(0, 0.5))

    def test_nan_residual_raises(self):
        # both right-hand terms overflow to -inf: at p = 0.1 their difference is
        # nan, which has no sign; an infinite residual keeps its sign
        params = analytic.PhysicalParams(alpha=0.5, lambda1=1e308, lambda2=1e308,
                                         theta_inf=-1e308)
        with pytest.raises(errors.DegenerateInputError, match="p=0.1"):
            analytic.transcendental_residual(0.1, params)
        assert analytic.transcendental_residual(1.0, params) == math.inf

    @pytest.mark.parametrize("row, series", [(0, 2), (1, 2), (2, 4)])
    def test_one_profile_and_slope_per_distinct_kappa(self, row, series, monkeypatch):
        # rows 0 and 1 have kappa1 = kappa2, so both phases share their two series
        calls = []
        wright = specfun.wright
        monkeypatch.setattr(specfun, "wright", lambda *args: calls.append(args) or wright(*args))
        analytic.transcendental_residual(0.5, params_for(row, 0.5))
        assert len(calls) == series

    def test_alpha_one_matches_wright_route_near_one(self):
        # the erfc dispatch and the series route agree at the root
        for row in range(len(ROWS)):
            params_series = params_for(row, 1.0 - 1e-6)
            params_classic = params_for(row, 1.0)
            p = P_EXACT_REF[(row, 1.0)]
            r_series = analytic.transcendental_residual(p, params_series)
            r_classic = analytic.transcendental_residual(p, params_classic)
            assert abs(r_series - r_classic) <= 1e-3


class TestSolvePExact:
    @pytest.mark.parametrize("row,alpha,expected,tol", [
        (0, 1.0, 0.9397, 5e-5),
        (0, 0.5, 0.7472, 5e-4),
        (2, 0.25, 0.7218, 5e-4),
    ])
    def test_published_reference_values(self, row, alpha, expected, tol):
        p = analytic.solve_p_exact(params_for(row, alpha))
        assert p == pytest.approx(expected, abs=tol)

    @pytest.mark.parametrize("row", range(len(ROWS)))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_high_precision_reference(self, row, alpha):
        p = analytic.solve_p_exact(params_for(row, alpha))
        assert p == pytest.approx(P_EXACT_REF[(row, alpha)], abs=5e-9)

    def test_no_sign_change(self):
        with pytest.raises(errors.NoSignChangeError):
            analytic.solve_p_exact(params_for(0, 1.0), bracket=(1.5, 2.0))

    @pytest.mark.parametrize("root, calls", [(0.5, 1), (2.0, 2), (1.25, 3)],
                             ids=["lo", "hi", "midpoint"])
    def test_exact_zero_is_returned(self, monkeypatch, root, calls):
        seen = []
        monkeypatch.setattr(analytic, "transcendental_residual",
                            lambda p, params: (seen.append(p), p - root)[1])
        assert analytic.solve_p_exact(params_for(0, 0.5), bracket=(0.5, 2.0)) == root
        assert len(seen) == calls

    def test_bracket_collapsed_above_the_tolerance(self, monkeypatch):
        # near 1e10 doubles lie 2**-19 (about 1.9e-6) apart, far above _ROOT_TOL:
        # the search ends when the midpoint falls on an end, and solves no point twice
        seen = []
        root = 1e10 + 1e-6
        monkeypatch.setattr(analytic, "transcendental_residual",
                            lambda p, params: (seen.append(p), p - root)[1])
        lo, hi = 1e10, 1e10 + 8 * math.ulp(1e10)
        p = analytic.solve_p_exact(params_for(0, 0.5), bracket=(lo, hi))
        assert hi - lo > 1e4 * analytic._ROOT_TOL
        assert len(seen) == 5 and len(set(seen)) == len(seen)
        assert p in (1e10, 1e10 + math.ulp(1e10))

    def test_infinite_residual_keeps_its_sign(self):
        # +inf above p = 1.5 is positive, as p - 0.7 is above 0.7
        *_, (_, _, lo, hi) = analytic._bisection(lambda p: math.inf if p > 1.5 else p - 0.7,
                                                 0.1, 2.0, analytic._ROOT_TOL)
        assert abs(0.5 * (lo + hi) - 0.7) <= analytic._ROOT_TOL

    def test_rejects_infinite_bracket_end(self):
        # checked before the residual is evaluated at either end
        with pytest.raises(errors.InvalidInputError, match="bracket"):
            analytic.solve_p_exact(analytic.PhysicalParams(alpha=0.5), bracket=(0.1, math.inf))

    def test_monotone_in_alpha(self):
        for row in range(len(ROWS)):
            roots = [analytic.solve_p_exact(params_for(row, a)) for a in ALPHAS]
            assert roots == sorted(roots)

    def test_one_phase_reduction_continuous(self):
        # the solid-side term vanishes with theta_inf; the root moves
        # continuously onto the one-phase value
        import dataclasses
        base = params_for(0, 0.5)
        p_zero = analytic.solve_p_exact(dataclasses.replace(base, theta_inf=0.0))
        p_near = analytic.solve_p_exact(dataclasses.replace(base, theta_inf=-1e-9))
        assert p_near == pytest.approx(p_zero, abs=1e-6)


class TestTemperatures:
    @pytest.fixture
    def sol_classic(self):
        return analytic.ExactSolution(0.9397, params_for(0, 1.0))

    @pytest.fixture
    def sol_frac(self):
        params = params_for(0, 0.5)
        return analytic.ExactSolution(analytic.solve_p_exact(params), params)

    def test_hot_boundary(self, sol_classic, sol_frac):
        assert analytic.u1_exact(0.0, 1.0, sol_classic) == 1.0
        assert analytic.u1_exact(0.0, 2.5, sol_frac) == 1.0

    def test_interface_both_sides(self, sol_frac):
        s = analytic.front_exact(1.7, sol_frac)
        assert analytic.u1_exact(s, 1.7, sol_frac) == pytest.approx(0.0, abs=1e-12)
        assert analytic.u2_exact(s, 1.7, sol_frac) == pytest.approx(0.0, abs=1e-12)

    def test_liquid_frozen_value(self, sol_classic):
        got = analytic.u1_exact(0.5, 1.0, sol_classic)
        assert got == pytest.approx(0.4401921267922372, rel=1e-12)

    def test_solid_frozen_value(self):
        sol = analytic.ExactSolution(0.7555, params_for(1, 1.0))
        got = analytic.u2_exact(2.0, 1.0, sol)
        assert got == pytest.approx(-0.3674124377290576, rel=1e-12)

    def test_solid_far_field_limit(self, sol_frac):
        # largest argument where the series still converges comfortably
        got = analytic.u2_exact(8.0, 1.0, sol_frac)
        theta = sol_frac.params.theta_inf
        assert got == pytest.approx(theta, abs=5e-3 * abs(theta))

    def test_domain_errors(self, sol_classic):
        s = analytic.front_exact(1.0, sol_classic)
        with pytest.raises(errors.DomainError):
            analytic.u1_exact(s + 0.1, 1.0, sol_classic)
        with pytest.raises(errors.DomainError):
            analytic.u2_exact(s - 0.1, 1.0, sol_classic)
        with pytest.raises(errors.DomainError):
            analytic.u1_exact(0.1, 0.0, sol_classic)
        with pytest.raises(errors.DomainError, match="tau must be > 0"):
            analytic.u2_exact(s + 0.1, 0.0, sol_classic)

    @pytest.mark.parametrize("row", range(len(ROWS)))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_liquid_profile_monotone_in_x(self, row, alpha):
        params = params_for(row, alpha)
        sol = analytic.ExactSolution(P_EXACT_REF[(row, alpha)], params)
        tau = 1.3
        s = analytic.front_exact(tau, sol)
        values = [analytic.u1_exact(s * i / 60.0, tau, sol) for i in range(61)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("kappa1", [0.1, 1.0, 2.0])
    @pytest.mark.parametrize("kappa2", [0.1, 1.0, 2.0])
    def test_alpha_one_is_the_written_out_erfc_form(self, kappa1, kappa2):
        params = analytic.PhysicalParams(alpha=1.0, kappa1=kappa1, kappa2=kappa2)
        sol = analytic.ExactSolution(0.9397, params)
        p, theta = sol.p, params.theta_inf
        for tau in (0.5, 1.0, 2.0):
            s = analytic.front_exact(tau, sol)
            for i in range(21):
                x = s * i / 20.0
                want = 1.0 - (math.erfc(x / (2.0 * math.sqrt(kappa1 * tau))) - 1.0) / (
                    math.erfc(p / (2.0 * math.sqrt(kappa1))) - 1.0)
                assert analytic.u1_exact(x, tau, sol) == want, (x, tau)
            for x in [s * (1.0 + i / 10.0) for i in range(21)] + [8.0, 15.0, 30.0]:
                want = theta * (math.erfc(p / (2.0 * math.sqrt(kappa2)))
                                - math.erfc(x / (2.0 * math.sqrt(kappa2 * tau)))) / (
                    math.erfc(p / (2.0 * math.sqrt(kappa2))))
                assert analytic.u2_exact(x, tau, sol) == want, (x, tau)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_degenerate_liquid_front_value(self, alpha):
        # W_f - 1 vanishes as p -> 0; the liquid profile divides by it
        sol = analytic.ExactSolution(1e-20, analytic.PhysicalParams(alpha=alpha))
        with pytest.raises(errors.DegenerateInputError, match="liquid"):
            analytic.u1_exact(0.0, 1.0, sol)

    def test_degenerate_solid_front_value(self):
        # erfc(p / (2 sqrt(kappa2))) is about 1e-97 at kappa2 = 1e-3
        params = analytic.PhysicalParams(alpha=1.0, kappa2=1e-3)
        sol = analytic.ExactSolution(0.9397, params)
        with pytest.raises(errors.DegenerateInputError, match="solid"):
            analytic.u2_exact(2.0, 1.0, sol)

    def test_front_values_evaluated_once(self, monkeypatch):
        calls = []
        wright = specfun.wright

        def counted(*args, **kwargs):
            calls.append(args)
            return wright(*args, **kwargs)

        monkeypatch.setattr(specfun, "wright", counted)
        sol = analytic.ExactSolution(P_EXACT_REF[(0, 0.5)], params_for(0, 0.5))
        s = analytic.front_exact(1.0, sol)
        n = 6
        for i in range(n):
            analytic.u1_exact(s * i / n, 1.0, sol)
            analytic.u2_exact(s * (1.0 + i / n), 1.0, sol)
        # one Wright value per point, plus the two front values once
        assert len(calls) == 2 * n + 2

    def test_failed_front_value_raises_on_every_call(self):
        # W(-40; -1/4, 1) does not converge; nothing is kept, so each call raises
        sol = analytic.ExactSolution(40.0, params_for(0, 0.5))
        for _ in range(2):
            with pytest.raises(errors.NonConvergenceError):
                analytic.u1_exact(0.0, 1.0, sol)


def _inline_front_values(sol):
    # the front values as ExactSolution wrote them out before _similarity
    a = sol.params.alpha
    sq = (math.sqrt(sol.params.kappa1), math.sqrt(sol.params.kappa2))
    if a == 1.0:
        return tuple(math.erfc(sol.p / (2.0 * s)) for s in sq)
    return tuple(specfun.wright(-sol.p / s, -a / 2.0, 1.0) for s in sq)


def _inline_point(x, tau, kappa, a):
    # the point value as u1_exact and u2_exact wrote it out before _similarity
    if a == 1.0:
        return math.erfc(x / (2.0 * math.sqrt(kappa * tau)))
    sq = math.sqrt(kappa)
    return specfun.wright(-x / (sq * tau ** (a / 2.0)), -a / 2.0, 1.0)


def _inline_u1(x, tau, sol):
    den = _inline_front_values(sol)[0] - 1.0
    num = _inline_point(x, tau, sol.params.kappa1, sol.params.alpha) - 1.0
    return 1.0 - num / den


def _inline_u2(x, tau, sol):
    w_front = _inline_front_values(sol)[1]
    w_here = _inline_point(x, tau, sol.params.kappa2, sol.params.alpha)
    return sol.params.theta_inf * (w_front - w_here) / w_front


def _bits_or_error(fn, *args):
    try:
        return struct.pack("<d", fn(*args))
    except errors.FracStefanError as exc:
        return type(exc)


class TestSimilarityProfileBitForBit:
    @pytest.mark.parametrize("row", [0, 2])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_matches_inline_forms(self, row, alpha):
        sol = analytic.ExactSolution(P_EXACT_REF[(row, alpha)], params_for(row, alpha))
        assert sol.front_values == _inline_front_values(sol)
        failures = 0
        for tau in (0.01, 0.3, 1.0, 1.7, 4.0):
            s = analytic.front_exact(tau, sol)
            for i in range(21):
                x = s * i / 20.0
                assert (_bits_or_error(analytic.u1_exact, x, tau, sol)
                        == _bits_or_error(_inline_u1, x, tau, sol)), (x, tau)
            # from the front out to the far field, where the series gives up
            for x in [s * (1.0 + i / 10.0) for i in range(11)] + [8.0, 15.0, 30.0, 60.0]:
                if x < s:
                    continue
                got = _bits_or_error(analytic.u2_exact, x, tau, sol)
                assert got == _bits_or_error(_inline_u2, x, tau, sol), (x, tau)
                failures += got is errors.NonConvergenceError
        assert (failures > 0) == (alpha < 1.0)


class TestSlopeOrder:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_is_the_profile_x_derivative(self, alpha):
        # d/dx W(-z; -a/2, 1) = -W(-z; -a/2, 1 - a/2) / (sqrt(kappa) tau**(a/2)),
        # z = x / (sqrt(kappa) tau**(a/2)), against central differences
        h = 1e-4
        worst = 0.0
        for kappa in (0.1, 1.0, 2.0):
            for tau in (0.5, 1.0):
                scale = math.sqrt(kappa) * tau ** (alpha / 2.0)
                for i in range(21):
                    x = i / 10.0
                    central = (analytic._similarity(x + h, tau, kappa, alpha)
                               - analytic._similarity(x - h, tau, kappa, alpha)) / (2.0 * h)
                    slope = analytic._similarity(x, tau, kappa, alpha, slope=True)
                    worst = max(worst, abs(central + slope / scale))
        assert worst <= 1e-6


def _caputo_sides(alpha, row, phase, t=1.0, h=1e-3):
    """(u(x, t) - u(x, 0), kappa I^alpha[u_xx](t)) at a fixed x of one phase.

    u_xx is a central difference of the code's own floats.  I^alpha is an
    mpmath quadrature after sigma = (t - s)**alpha / alpha, which takes the
    kernel's endpoint singularity away; the range is split at the images of
    s0 * 2**k and starts at the s0 where |z| = 20, before which u_xx is
    negligible.
    """
    params = params_for(row, alpha)
    sol = analytic.ExactSolution(P_EXACT_REF[(row, alpha)], params)
    if phase == 2:
        # a solid point was solid at every earlier time
        x, kappa = 1.3 * sol.p, params.kappa2
        start = params.theta_inf

        def u(xx, s):
            return analytic.u2_exact(xx, s, sol)
    else:
        # the liquid profile's extension over the whole history, which
        # u1_exact does not evaluate beyond the front
        x, kappa = 0.5 * sol.p, params.kappa1
        w_front = sol.front_values[0]
        start = w_front / (w_front - 1.0)

        def u(xx, s):
            return 1.0 - (analytic._similarity(xx, s, kappa, alpha) - 1.0) / (w_front - 1.0)

    def integrand(sigma):
        s = t - (alpha * float(sigma)) ** (1.0 / alpha)
        return (u(x + h, s) - 2.0 * u(x, s) + u(x - h, s)) / (h * h)

    s = (x / (20.0 * math.sqrt(kappa))) ** (2.0 / alpha)
    cuts = [0.0]
    while s < t:
        cuts.insert(1, (t - s) ** alpha / alpha)
        s *= 2.0
    integral = float(mp.quad(integrand, cuts)) / math.gamma(alpha)
    return u(x, t) - start, kappa * integral


class TestCaputoEquation:
    """The closed form solves u(x, t) - u(x, 0) = kappa_i I^alpha[u_xx](t)."""

    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("row", [0, 2])
    @pytest.mark.parametrize("alpha", [
        0.25, 0.5,
        pytest.param(0.75, marks=pytest.mark.xfail(
            strict=True, raises=errors.NonConvergenceError,
            reason="ROADMAP item 7: the series gives up near z = -15.3, short of |z| = 20")),
        1.0,
    ])
    def test_integrated_form(self, alpha, row, phase):
        change, memory = _caputo_sides(alpha, row, phase)
        assert abs(change - memory) <= 1e-6


class TestStefanCondition:
    """The closed form's fluxes at the front satisfy the Stefan condition.

    The exact fluxes are c_i tau**(-alpha/2), and I^alpha of tau**(-alpha/2)
    is Gamma(1-alpha/2)/Gamma(1+alpha/2) tau**(alpha/2), so the front
    S = I^alpha[lambda2 u2_x - lambda1 u1_x] holds at every time exactly when,
    at tau = 1, lambda2 u2_x - lambda1 u1_x = p Gamma(1+alpha/2)/Gamma(1-alpha/2).
    The fluxes are second-order one-sided quotients of u1_exact and u2_exact,
    each from its own side of x = p, so the test ties the residual's slope
    numerators to the derivative of the profiles.
    """

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("row", range(len(ROWS)))
    def test_flux_balance_at_the_root(self, alpha, row):
        params = params_for(row, alpha)
        sol = analytic.solve_exact(params)
        p, h = sol.p, 1e-4
        u1 = [analytic.u1_exact(p - i * h, 1.0, sol) for i in range(3)]
        u2 = [analytic.u2_exact(p + i * h, 1.0, sol) for i in range(3)]
        u1_x = (3.0 * u1[0] - 4.0 * u1[1] + u1[2]) / (2.0 * h)
        u2_x = (-3.0 * u2[0] + 4.0 * u2[1] - u2[2]) / (2.0 * h)
        rate = p * math.gamma(1.0 + alpha / 2.0) / math.gamma(1.0 - alpha / 2.0)
        balance = params.lambda2 * u2_x - params.lambda1 * u1_x
        assert abs(balance - rate) <= 1e-7 * rate


def _reference_residual(p, params):
    """transcendental_residual written out: one formula at every alpha over the
    profile order W(-z; -a/2, 1) and the slope order W(-z; -a/2, 1 - a/2),
    z = p/sqrt(kappa), which at alpha = 1 are erfc(y) and exp(-y**2)/sqrt(pi),
    y = z/2."""
    if not p > 0.0:
        raise errors.InvalidInputError(f"front coefficient must be > 0, got {p}")
    a = params.alpha
    g = -a / 2.0
    sq1 = math.sqrt(params.kappa1)
    sq2 = math.sqrt(params.kappa2)
    y1, y2 = p / (2.0 * sq1), p / (2.0 * sq2)
    if a == 1.0:
        w1_den = math.erfc(y1) - 1.0
        w2_den = math.erfc(y2)
    else:
        w1_den = specfun.wright(-p / sq1, g, 1.0) - 1.0
        w2_den = specfun.wright(-p / sq2, g, 1.0)
    if abs(w1_den) < analytic._SINGULAR_TOL or abs(w2_den) < analytic._SINGULAR_TOL:
        raise errors.DegenerateInputError("denominators")
    if a == 1.0:
        w1_num = math.exp(-y1 * y1) / math.sqrt(math.pi)
        w2_num = math.exp(-y2 * y2) / math.sqrt(math.pi)
    else:
        w1_num = specfun.wright(-p / sq1, g, 1.0 - a / 2.0)
        w2_num = specfun.wright(-p / sq2, g, 1.0 - a / 2.0)
    lhs = p * math.gamma(1.0 + a / 2.0) / math.gamma(1.0 - a / 2.0)
    rhs = (params.lambda2 / sq2) * params.theta_inf * w2_num / w2_den \
        - (params.lambda1 / sq1) * w1_num / w1_den
    return lhs - rhs


def _classical_residual(p, params):
    """The alpha = 1 residual in its own erfc/exp form, with the sum of the
    absolute values of its three terms."""
    k1, k2 = params.kappa1, params.kappa2
    solid = params.lambda2 * params.theta_inf * math.exp(-p * p / (4.0 * k2)) / (
        math.sqrt(math.pi * k2) * math.erfc(p / (2.0 * math.sqrt(k2)))
    )
    liquid = params.lambda1 * math.exp(-p * p / (4.0 * k1)) / (
        math.sqrt(math.pi * k1) * (math.erfc(p / (2.0 * math.sqrt(k1))) - 1.0)
    )
    return 0.5 * p - (solid - liquid), 0.5 * p + abs(solid) + abs(liquid)


def _residual_outcome(fn, p, params):
    # (float, the value's bits), or an error by type, a series failure with its message
    try:
        return float, struct.pack("<d", fn(p, params))
    except errors.NonConvergenceError as exc:
        return type(exc), str(exc)
    except errors.FracStefanError as exc:
        return type(exc), None


#: the built-in rows plus two with unequal conductivities and diffusivities
RESIDUAL_ROWS = ROWS + ((2.0, 1.0, 1.0, 3.0), (0.5, 1.5, 0.3, 2.0))


class TestResidualBitForBit:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_written_out_forms(self, alpha):
        outcomes = set()
        for l1, l2, k1, k2 in RESIDUAL_ROWS:
            for theta in (-0.5, -0.1, 0.0, -2.0):
                params = analytic.PhysicalParams(alpha=alpha, lambda1=l1, lambda2=l2,
                                                 kappa1=k1, kappa2=k2, theta_inf=theta)
                # p = 0.01 .. 3.99, then an invalid p and arguments past the
                # series' range or with an erfc denominator that underflows
                for p in [i / 100.0 for i in range(1, 400)] + [0.0, 12.0, 40.0, 80.0]:
                    got = _residual_outcome(analytic.transcendental_residual, p, params)
                    assert got == _residual_outcome(_reference_residual, p, params), (p, params)
                    outcomes.add(got[0])
        failure = errors.DegenerateInputError if alpha == 1.0 else errors.NonConvergenceError
        assert {float, errors.InvalidInputError, failure} <= outcomes

    @pytest.mark.parametrize("row", range(len(ROWS)))
    def test_alpha_one_matches_classical_form(self, row):
        # the one formula moves the alpha = 1 residual by a few ulps of its terms
        params = params_for(row, 1.0)
        for i in range(1, 400):
            p = i / 100.0
            classical, size = _classical_residual(p, params)
            assert abs(analytic.transcendental_residual(p, params) - classical) <= 2e-15 * size, p

    def test_table_roots(self, monkeypatch):
        roots = [analytic.solve_p_exact(params_for(row, alpha))
                 for row in range(len(ROWS)) for alpha in ALPHAS]
        monkeypatch.setattr(analytic, "transcendental_residual", _reference_residual)
        assert roots == [analytic.solve_p_exact(params_for(row, alpha))
                         for row in range(len(ROWS)) for alpha in ALPHAS]


class TestFrontExact:
    def test_start_and_unit_time(self):
        sol = analytic.ExactSolution(0.77, params_for(0, 0.5))
        assert analytic.front_exact(0.0, sol) == 0.0
        assert analytic.front_exact(1.0, sol) == pytest.approx(0.77)

    def test_reference_crossing_time(self):
        sol = analytic.ExactSolution(0.7053, params_for(0, 0.25))
        assert analytic.front_exact(16.329, sol) == pytest.approx(1.0, abs=2e-3)

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=0.01, max_value=10.0),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_power_law_scaling(self, c, tau, alpha):
        sol = analytic.ExactSolution(0.9, params_for(0, alpha))
        lhs = analytic.front_exact(c * tau, sol)
        rhs = c ** (alpha / 2.0) * analytic.front_exact(tau, sol)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_negative_time(self):
        sol = analytic.ExactSolution(0.9, params_for(0, 0.5))
        with pytest.raises(errors.DomainError):
            analytic.front_exact(-1.0, sol)


class TestThetaInfReconstruction:
    def test_independent_rows_agree(self):
        # fitting the far-field temperature from the classical-limit roots of
        # two parameter rows must give the same value; this is the guard on
        # the -0.5 default
        from scipy.optimize import brentq

        fits = []
        for row, p in ((0, 0.9397), (1, 0.7555)):
            l1, l2, k1, k2 = ROWS[row]

            def residual(theta):
                params = analytic.PhysicalParams(
                    alpha=1.0, lambda1=l1, lambda2=l2, kappa1=k1, kappa2=k2,
                    theta_inf=theta)
                return analytic.transcendental_residual(p, params)

            fits.append(brentq(residual, -0.9, -0.1, xtol=1e-12))
        assert abs(fits[0] - fits[1]) < 0.01
        assert fits[0] == pytest.approx(-0.5, abs=0.01)
