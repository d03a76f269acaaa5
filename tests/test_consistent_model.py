"""The grid route on the closed form's own model converges to the closed form.

consistent_model discretizes the model that the closed form solves, with the
memory taken along x = const in both phases.  Its front coefficient tends to
solve_p_exact's under time refinement, at about the order 1 - alpha/2 of the
balance's s**(-alpha/2) start, while the package's scheme, whose memory
follows the moving grid lines, drifts away at alpha < 1.
"""

import pytest

import consistent_model
from conftest import params_for
from fracstefan import analytic


@pytest.mark.parametrize("alpha", [0.25, 0.5])
def test_front_coefficient_converges_to_the_closed_form(alpha):
    # gaps at n = 100, 200, 400: -0.100, -0.052, -0.027% (alpha = 0.25) and
    # -0.350, -0.201, -0.116% (alpha = 0.5)
    params = params_for(0, alpha)
    exact = analytic.solve_p_exact(params)
    gaps = [abs(consistent_model.solve_p(params, n, exact) / exact - 1.0)
            for n in (100, 200, 400)]
    assert all(coarse >= 1.5 * fine for coarse, fine in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 2e-3, gaps
