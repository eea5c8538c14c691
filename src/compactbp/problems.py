"""Registry of the built-in test problems.

Every problem carries its flux/diffusion callbacks with derivative bounds
over the invariant interval, initial data whose range defines the bounds,
and (where available) the exact solution used for error tables.  The
problem types check those bounds when built: each must be finite, and
each maximum nonnegative.  One table maps every problem id, the
vocabulary of the command-line interface, to the factory of its problem;
an alias is an entry of its own (``pme-1d`` builds ``pme-1d-m5``).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .limiters import Bounds
from .schemes1d import Problem1D
from .schemes2d import Problem2D

TWO_PI = 2.0 * np.pi


def barenblatt(x, t, m_exp: int):
    """Self-similar compactly supported solution of u_t = (u^m)_xx.

    ``t^{-k} max(0, 1 - k(m-1) x^2 / (2 m t^{2k}))^{1/(m-1)}`` with
    ``k = 1/(m+1)``; nonnegative, and identically zero outside a ball
    whose radius grows like ``t^k``.
    """
    if np.any(np.asarray(t) <= 0):
        raise ValueError("barenblatt profile requires t > 0")
    if m_exp <= 1:
        raise ValueError("exponent must exceed 1")
    k = 1.0 / (m_exp + 1)
    x = np.asarray(x, dtype=float)
    core = 1.0 - k * (m_exp - 1) / (2.0 * m_exp) * np.abs(x) ** 2 / t ** (2 * k)
    return t ** (-k) * np.maximum(core, 0.0) ** (1.0 / (m_exp - 1))


def _implicit_advection(u0, u0_prime, u0_prime_max):
    """Exact smooth solution of u_t + (u^2/2)_x = 0 by characteristics.

    Solves ``w = u0(x - w t)`` by Newton iteration with the analytic
    derivative ``u0_prime``; valid while ``t * u0_prime_max < 1``
    (pre-shock), where ``u0_prime_max`` bounds ``|u0'|``.
    """

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        if t == 0:
            return u0(x)
        if t * u0_prime_max >= 1.0:
            raise ValueError(f"characteristics cross at t = {1.0 / u0_prime_max:.3f}")
        w = u0(x)
        for _ in range(100):
            xi = x - w * t
            f = w - u0(xi)
            fp = 1.0 + t * u0_prime(xi)
            step = f / fp
            w = w - step
            if np.max(np.abs(step)) < 1e-15:
                break
        return w

    return exact


# initial profiles of the Burgers problems and their analytic derivatives
def _burgers_u0(x):
    return np.sin(x) + 0.5


def _inflow_u0(x):
    return 0.5 * np.sin(x) + 0.5


def _inflow_u0_prime(x):
    return 0.5 * np.cos(x)


def _step_profile(x):
    xm = np.mod(np.asarray(x, dtype=float), TWO_PI)
    return np.where((xm > 0) & (xm <= np.pi), 1.0, 0.0)


def _square_ramp(x, y):
    """1 inside the inner square, 0 outside the outer one, linear between.

    The transition uses the max-norm radius, keeping the range in [0, 1].
    """
    r = np.maximum(np.abs(x), np.abs(y))
    return np.clip(2.0 * (1.0 - r), 0.0, 1.0)


# Each factory takes the id it is listed under, which names its problem;
# a porous medium problem is named after its exponent under any id.

def _sin4(amplitude: float, name):
    """Linear advection of ``0.5 + amplitude sin(x)^4``."""
    return Problem1D(
        name=name, x_lo=0.0, x_hi=TWO_PI,
        bounds=Bounds(0.5, 0.5 + amplitude),
        initial=lambda x: 0.5 + amplitude * np.sin(x) ** 4,
        flux=lambda u: u, max_fprime=1.0, min_fprime=1.0,
        exact=lambda x, t: 0.5 + amplitude * np.sin(x - t) ** 4,
        default_T=10.0)


def _linadv_step(name):
    return Problem1D(
        name=name, x_lo=0.0, x_hi=TWO_PI, bounds=Bounds(0.0, 1.0),
        initial=_step_profile,
        flux=lambda u: u, max_fprime=1.0, min_fprime=1.0,
        exact=lambda x, t: _step_profile(x - t), default_T=10.0)


def _burgers_sin(name):
    return Problem1D(
        name=name, x_lo=-np.pi, x_hi=np.pi, bounds=Bounds(-0.5, 1.5),
        initial=_burgers_u0,
        flux=lambda u: 0.5 * u * u, max_fprime=1.5, min_fprime=-0.5,
        exact=_implicit_advection(_burgers_u0, np.cos, 1.0), default_T=0.5)


def _convdiff_lin(name):
    c, d = 1.0, 0.001
    return Problem1D(
        name=name, x_lo=0.0, x_hi=TWO_PI, bounds=Bounds(-1.0, 1.0),
        initial=np.sin,
        flux=lambda u: c * u, max_fprime=c, min_fprime=c,
        diffusion=lambda u: d * u, max_aprime=d,
        exact=lambda x, t: np.exp(-d * t) * np.sin(x - c * t), default_T=1.0)


def _pme_diffusion(m_exp: int):
    def diffusion(u):
        return np.maximum(u, 0.0) ** m_exp  # guards pre-limiter negatives
    return diffusion


def _pme_1d(m_exp: int, _id):
    """The 1D porous medium problem, named after ``m_exp`` under any id."""
    return Problem1D(
        name=f"pme-1d-m{m_exp}", x_lo=-6.0, x_hi=6.0, bounds=Bounds(0.0, 1.0),
        initial=lambda x: barenblatt(x, 1.0, m_exp),
        diffusion=_pme_diffusion(m_exp),
        max_aprime=float(m_exp),  # m * upper^{m-1}
        exact=lambda x, t: barenblatt(x, 1.0 + t, m_exp), default_T=1.0)


def _inflow_burgers(name):
    periodic_exact = _implicit_advection(_inflow_u0, _inflow_u0_prime, 0.5)
    return Problem1D(
        name=name, x_lo=0.0, x_hi=TWO_PI, boundary="inflow-outflow",
        bounds=Bounds(0.0, 1.0), initial=_inflow_u0,
        flux=lambda u: 0.5 * u * u, max_fprime=1.0, min_fprime=0.0,
        exact=periodic_exact,
        left_value=lambda t: float(periodic_exact(np.array([0.0]), t)[0]),
        default_T=0.5)


def _dirichlet_convdiff(name):
    c, d = 1.0, 0.01
    return Problem1D(
        name=name, x_lo=0.0, x_hi=TWO_PI, boundary="dirichlet",
        bounds=Bounds(-1.0, 1.0), initial=np.cos,
        flux=lambda u: c * u, max_fprime=c, min_fprime=c,
        diffusion=lambda u: d * u, max_aprime=d,
        exact=lambda x, t: np.exp(-d * t) * np.cos(x - c * t),
        left_value=lambda t: float(np.exp(-d * t) * np.cos(-c * t)),
        right_value=lambda t: float(np.exp(-d * t) * np.cos(TWO_PI - c * t)),
        default_T=1.0)


def _linadv_2d(name):
    return Problem2D(
        name=name, x_lo=0.0, x_hi=TWO_PI, y_lo=0.0, y_hi=TWO_PI,
        bounds=Bounds(0.5, 1.0),
        initial=lambda x, y: 0.5 + 0.5 * np.sin(x + y) ** 4,
        flux_x=lambda u: u, flux_y=lambda u: u, max_fprime=1.0, max_gprime=1.0,
        exact=lambda x, y, t: 0.5 + 0.5 * np.sin(x + y - 2 * t) ** 4, default_T=1.0)


def _burgers_2d(name):
    exact_1d = _implicit_advection(_burgers_u0, np.cos, 1.0)
    return Problem2D(
        name=name, x_lo=-np.pi, x_hi=np.pi, y_lo=-np.pi, y_hi=np.pi,
        bounds=Bounds(-0.5, 1.5),
        initial=lambda x, y: _burgers_u0(x + y),
        flux_x=lambda u: 0.5 * u * u, flux_y=lambda u: 0.5 * u * u,
        max_fprime=1.5, max_gprime=1.5,
        # u(x, y, t) = w(x + y, 2t) for the diagonal profile
        exact=lambda x, y, t: exact_1d(x + y, 2.0 * t), default_T=0.2)


def _convdiff_2d(name):
    c, d = 1.0, 0.001
    return Problem2D(
        name=name, x_lo=0.0, x_hi=TWO_PI, y_lo=0.0, y_hi=TWO_PI,
        bounds=Bounds(-1.0, 1.0),
        initial=lambda x, y: np.sin(x + y),
        flux_x=lambda u: c * u, flux_y=lambda u: c * u, max_fprime=c, max_gprime=c,
        diffusion_x=lambda u: d * u, diffusion_y=lambda u: d * u,
        max_aprime=d, max_bprime=d,
        exact=lambda x, y, t: np.exp(-2 * d * t) * np.sin(x + y - 2 * c * t),
        default_T=0.5)


def _pme_2d(m_exp: int, _id):
    """The 2D porous medium problem, named after ``m_exp`` under any id."""
    diffusion = _pme_diffusion(m_exp)
    return Problem2D(
        name=f"2d-pme-m{m_exp}", x_lo=-2.0, x_hi=2.0, y_lo=-2.0, y_hi=2.0,
        bounds=Bounds(0.0, 1.0), initial=_square_ramp,
        diffusion_x=diffusion, diffusion_y=diffusion,
        max_aprime=float(m_exp), max_bprime=float(m_exp), default_T=0.01)


_PROBLEMS = {
    "linadv-sin4": partial(_sin4, 1.0),
    "linadv-sin4-half": partial(_sin4, 0.5),
    "linadv-step": _linadv_step,
    "burgers-sin": _burgers_sin,
    "convdiff-lin": _convdiff_lin,
    "pme-1d": partial(_pme_1d, 5),
    "pme-1d-m5": partial(_pme_1d, 5),
    "pme-1d-m8": partial(_pme_1d, 8),
    "inflow-burgers": _inflow_burgers,
    "dirichlet-convdiff": _dirichlet_convdiff,
    "2d-linadv": _linadv_2d,
    "2d-burgers": _burgers_2d,
    "2d-convdiff": _convdiff_2d,
    "2d-pme": partial(_pme_2d, 3),
    "2d-pme-m3": partial(_pme_2d, 3),
    "2d-pme-m4": partial(_pme_2d, 4),
    "2d-pme-m5": partial(_pme_2d, 5),
}

BUILTIN_IDS = tuple(_PROBLEMS)


def builtin(problem_id: str):
    """Return the problem for an id in ``BUILTIN_IDS``; others raise ``ValueError``."""
    if problem_id not in _PROBLEMS:
        raise ValueError(f"unknown problem {problem_id!r}")
    return _PROBLEMS[problem_id](problem_id)
