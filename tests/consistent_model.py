"""A grid route on the closed form's own model: both phases on fixed nodes.

The closed form solves the Caputo equation at fixed x (TestCaputoEquation).
In front time s = tau * p**(2/alpha), where the front is x = s**(alpha/2),
each phase reads D_s^alpha u = (kappa_i/p**2) u_xx.  On its scaled
coordinate xi = x / sqrt(kappa_i/p**2) every step has diffusivity 1, the
front follows xi_f(s) = s**(alpha/2) p/sqrt(kappa_i), and a flux in x is
the flux in xi times p/sqrt(kappa_i).  Nodes sit at xi = i*H in both phases.

- The liquid is u1 = A + (1 - A) U.  U solves the half-line problem
  U(0, s) = 1, U(xi, 0) = 0 (its level-0 corner holds 0) on [0, REACH]
  with U = 0 at the end.  No front enters U, so one solve per (alpha, n)
  serves every candidate of every cell.  A = -U_f/(1 - U_f) puts u1's zero
  on the front at the final level.
- The solid is w = u2 - theta_inf on [0, xi_f(1) + REACH], with w = 0 at
  the end and w = -theta_inf on the front.  The nodes beyond the front are
  the unknowns, and a node within H/100 of the front is the front.  The
  first unknown gets the Shortley-Weller cut cell.  A node that is solid
  was solid at every earlier level, so its memory is its own column.

Every level solves u - u(0) = I^alpha[u_xixi] implicitly, with the
product-trapezoid weights of fracquad.lag_table.  The front fluxes are
slopes of quadratics: the liquid's through the three nodes nearest the
front, the solid's through the front and the first two unknowns.  The
balance is fronttrack's, S = (lambda2 J2 - lambda1 J1) / (p**2 Gamma(alpha))
with flux[0] = 0, and scipy.optimize.brentq finds the p with S(1) = 1.
"""

import math

import numpy as np
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from fracstefan import fracquad

H = 0.01
REACH = 8.0


def _table(alpha, n):
    return fracquad.lag_table(n, alpha, 1.0 / n)


def _memory(table, k, second):
    """sum_j c_j second[j] over the levels j <= k of the step to level k+1."""
    n = table.interior.shape[0]
    return table.first[k] * second[0] + table.interior[n - k:] @ second[1:k + 1]


def _bands(diag, off):
    """solve_banded's (1, 1) layout of a matrix with diagonal diag and constant off-diagonals."""
    bands = np.empty((3, diag.shape[0]))
    bands[0] = bands[2] = off
    bands[1] = diag
    return bands


def liquid(alpha, n):
    """U on every level and node, shape (n + 1, REACH/H + 1)."""
    table, m = _table(alpha, n), round(REACH / H)
    gamma = math.gamma(alpha)
    c = table.pref / (gamma * H * H)
    bands = _bands(np.full(m - 1, 1.0 + 2.0 * c), -c)
    u = np.zeros((n + 1, m + 1))
    second = np.zeros((n + 1, m + 1))
    for k in range(n):
        rhs = _memory(table, k, second)[1:m] / gamma
        rhs[0] += c  # the boundary value U = 1
        u[k + 1, 0] = 1.0
        u[k + 1, 1:m] = solve_banded((1, 1), bands, rhs, check_finite=False)
        second[k + 1, 1:m] = (u[k + 1, :-2] - 2.0 * u[k + 1, 1:-1] + u[k + 1, 2:]) / (H * H)
    return u


def _fronts(alpha, n, scale):
    return (np.arange(n + 1) / n) ** (alpha / 2.0) * scale


def liquid_flux(p, params, n, u):
    """The liquid's x-flux on the front at every level from liquid's U; flux[0] = 0."""
    scale = p / math.sqrt(params.kappa1)
    front = _fronts(params.alpha, n, scale)[1:]
    i = np.rint(front / H).astype(int)
    t = front / H - i
    left, mid, right = (u[1:][np.arange(n), i + shift] for shift in (-1, 0, 1))
    slope, bend = (right - left) / 2.0, right - 2.0 * mid + left
    u_f = mid[-1] + t[-1] * slope[-1] + t[-1] ** 2 / 2.0 * bend[-1]
    return np.concatenate([[0.0], (slope + t * bend) / H * scale / (1.0 - u_f)])  # 1 - A


def solid_flux(p, params, n):
    """The solid's x-flux on the front at every level; flux[0] = 0."""
    alpha, table = params.alpha, _table(params.alpha, n)
    scale = p / math.sqrt(params.kappa2)
    front = _fronts(alpha, n, scale)
    m = math.ceil((front[-1] + REACH) / H)
    gamma, w_f = math.gamma(alpha), -params.theta_inf
    c = table.pref / (gamma * H * H)
    w = np.zeros(m + 1)
    second = np.zeros((n + 1, m + 1))
    second[0, 1] = w_f / (H * H)  # level 0: the front on node 0, w = 0 beyond
    flux = np.zeros(n + 1)
    for k in range(n):
        first = math.floor((front[k + 1] + H / 100.0) / H) + 1
        delta = first * H - front[k + 1]
        # the cut cell: weights of the front, the node and its right neighbour
        near, diag, far = (2.0 / (delta * (delta + H)), -2.0 / (delta * H),
                           2.0 / (H * (delta + H)))
        bands = _bands(np.full(m - first, 1.0 + 2.0 * c), -c)
        bands[1, 0] = 1.0 - c * H * H * diag
        bands[0, 1] = -c * H * H * far
        rhs = _memory(table, k, second[:, first:m]) / gamma
        rhs[0] += c * H * H * near * w_f
        w[first:m] = solve_banded((1, 1), bands, rhs, check_finite=False)
        second[k + 1, first] = near * w_f + diag * w[first] + far * w[first + 1]
        second[k + 1, first + 1:m] = (w[first:m - 1] - 2.0 * w[first + 1:m]
                                      + w[first + 2:]) / (H * H)
        u_near, u_far = w[first] - w_f, w[first + 1] - w_f
        flux[k + 1] = (u_near * (delta + H) / (delta * H)
                       - u_far * delta / ((delta + H) * H)) * scale
    return flux


def residual(p, params, n, u):
    """1 - S(1) from the interface balance at candidate p, with liquid's U."""
    table = _table(params.alpha, n)
    weights = np.concatenate([[table.first[n - 1]], table.interior[1:], [table.pref]])
    j1 = weights @ liquid_flux(p, params, n, u)
    j2 = weights @ solid_flux(p, params, n)
    s = (params.lambda2 * j2 - params.lambda1 * j1) / (p * p * math.gamma(params.alpha))
    return 1.0 - s


def solve_p(params, n, guess):
    """The root of residual on [0.5, 1.5] times guess, to 1e-10; one U serves every candidate."""
    u = liquid(params.alpha, n)
    return brentq(residual, 0.5 * guess, 1.5 * guess, args=(params, n, u), xtol=1e-10)
