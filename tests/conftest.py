"""Shared reference values and independent oracles for the test suite."""

import numpy as np
import pytest

#: The built-in parameter quadruples (lambda1, lambda2, kappa1, kappa2) and
#: derivative orders swept by the table runs.
ROWS = ((1.0, 1.0, 1.0, 1.0), (1.0, 2.0, 1.0, 1.0), (1.0, 1.0, 2.0, 1.0))
ALPHAS = (0.25, 0.5, 0.75, 1.0)

#: Front coefficients from the transcendental equation at theta_inf = -0.5,
#: frozen from an independent high-precision evaluation (50-digit arithmetic,
#: 2000-term series, 80 bisection steps).
P_EXACT_REF = {
    (0, 0.25): 0.6834360268, (0, 0.5): 0.7471522031, (0, 0.75): 0.8298629142, (0, 1.0): 0.9397019994,
    (1, 0.25): 0.5495734689, (1, 0.5): 0.6013344454, (1, 0.75): 0.6680156903, (1, 1.0): 0.7555195764,
    (2, 0.25): 0.7218191515, (2, 0.5): 0.7867654757, (2, 0.75): 0.8697122946, (2, 1.0): 0.9783189413,
}

#: Published 4-decimal reference values for the same roots.
P_EXACT_PRINTED = {
    (0, 0.25): 0.6834, (0, 0.5): 0.7472, (0, 0.75): 0.8299, (0, 1.0): 0.9397,
    (1, 0.25): 0.5496, (1, 0.5): 0.6013, (1, 0.75): 0.668, (1, 1.0): 0.7555,
    (2, 0.25): 0.7218, (2, 0.5): 0.7868, (2, 0.75): 0.8697, (2, 1.0): 0.9783,
}

#: Front coefficients reported by an external implementation of the same
#: grid scheme at the production mesh (ratio=10, m1=100, m2=500, n=400);
#: the acceptance bar is 2% relative agreement.
P_NUMERIC_REF = {
    (0, 0.25): 0.7053, (0, 0.5): 0.7358, (0, 0.75): 0.8041, (0, 1.0): 0.9311,
    (1, 0.25): 0.5691, (1, 0.5): 0.5935, (1, 0.75): 0.6497, (1, 1.0): 0.7512,
    (2, 0.25): 0.739, (2, 0.5): 0.7801, (2, 0.75): 0.8514, (2, 1.0): 0.9674,
}

#: Times at which the front reaches x = 1, from the same external runs
#: (the p -> p**(-2/alpha) images of P_NUMERIC_REF).
TAU_FINAL_REF = {
    (0, 0.25): 16.329, (0, 0.5): 3.411, (0, 0.75): 1.789, (0, 1.0): 1.153,
    (1, 0.25): 90.885, (1, 0.5): 8.06, (1, 0.75): 3.158, (1, 1.0): 1.772,
    (2, 0.25): 11.241, (2, 0.5): 2.7, (2, 0.75): 1.536, (2, 1.0): 1.069,
}


def params_for(row_index: int, alpha: float):
    from fracstefan import PhysicalParams

    l1, l2, k1, k2 = ROWS[row_index]
    return PhysicalParams(alpha=alpha, lambda1=l1, lambda2=l2,
                          kappa1=k1, kappa2=k2, theta_inf=-0.5)


def exact_row(field, x, tau, sol):
    """A closed-form field (analytic.u1_exact or u2_exact) at each node of
    one grid level x, as an array."""
    return np.array([field(xi, float(tau), sol) for xi in x.tolist()])


def split_rule(k: int, alpha: float, dtau: float) -> np.ndarray:
    """The solid's split-start weights c[j], j = 0..k+1, of the step to level k+1.

    Written from the product-trapezoidal row and the half level's weight
    alone: c[0] weights the half level, and c[1] takes the rest of the first
    interval, so that c[0] plus the first interval's share of c[1] is the
    whole first interval, as in the trapezoid row.
    """
    from fracstefan import fracquad

    c = fracquad.trap_weights(k, alpha, dtau).c
    half = fracquad.half_weight(k + 1.0, alpha, dtau)
    c[1] += c[0] - half
    c[0] = half
    return c


def kernel_integral_pwl(nodes, alpha: float, dtau: float) -> float:
    """integral_0^{T} (T - xi)**(alpha-1) f(xi) dxi for piecewise-linear f.

    f interpolates nodes[j] at xi = j*dtau; T = (len(nodes)-1)*dtau.  Exact
    per-interval antiderivatives, independent of the weight formulas under
    test.  Evaluated in 40-digit arithmetic: the antiderivative differences
    cancel heavily for intervals far from T, and the oracle must stay well
    below the tolerances it referees.
    """
    import mpmath as mp

    with mp.workdps(40):
        a_ = mp.mpf(alpha)
        d_ = mp.mpf(dtau)
        T = (len(nodes) - 1) * d_
        total = mp.mpf(0)
        for j in range(len(nodes) - 1):
            lo = j * d_
            hi = (j + 1) * d_
            # f(xi) = c0 + c1*xi on [lo, hi]
            c1 = (mp.mpf(float(nodes[j + 1])) - mp.mpf(float(nodes[j]))) / d_
            c0 = mp.mpf(float(nodes[j])) - c1 * lo
            sa, sb = T - hi, T - lo
            # substitute s = T - xi: integrand (c0 + c1*T) s**(a-1) - c1 s**a
            total += (c0 + c1 * T) / a_ * (sb ** a_ - sa ** a_) \
                - c1 / (a_ + 1) * (sb ** (a_ + 1) - sa ** (a_ + 1))
        return float(total)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
