"""Non-periodic 1D boundary treatments for the 4th-order interior scheme.

Two schemes are provided, both operating on the full state vector
``u_0 .. u_{N+1}`` (grid ``x_i = x_lo + i dx`` with ``dx = L/(N+1)``):

* inflow-outflow for pure convection with ``f' >= 0``: the left value is
  prescribed, the right value is reconstructed by cubic extrapolation
  from the last four interior weighted means and clamped to the bounds;
* Dirichlet for convection-diffusion: both end values are prescribed and
  the interior mean update uses one-sided third-order end rows, followed
  by a two-level limited recovery through the rectangular weighting
  factorization.

Prescribed boundary values are never modified by the limiters;
redistribution shares that would land on them are dropped and reported as
boundary exchange (they are part of the physical boundary flux).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Unused, but kept bound: the benchmark's tracer (solverbench/tracing.py)
# wraps ``boundary.solve_banded`` by name and raises KeyError without it.
from scipy.linalg import solve_banded  # noqa: F401

from .limiters import Bounds, LimiterReport, limit_bounds_segment
from .operators import solve_open_weighting
from .schemes1d import CflError, Problem1D, StepContext

#: Cubic-extrapolation weights producing the outflow end value from the
#: last four interior weighted means (exact for cubics; the weights sum
#: to 1 but are not a convex combination, hence the clamp).
OUTFLOW_WEIGHTS = (-2.0 / 3.0, 17.0 / 6.0, -14.0 / 3.0, 7.0 / 2.0)

# Weak-monotonicity CFL constants of the one-sided third-order end rows.
DIRICHLET_CONVECTION_CFL = 4.0 / 19.0
DIRICHLET_DIFFUSION_CFL = 695.0 / 1596.0


def outflow_extrapolate(means_tail, bounds: Bounds) -> float:
    """Extrapolated outflow value from the last four weighted means.

    Exact on data whose underlying profile is cubic (constants map to
    themselves); the result is clamped into the invariant interval.
    """
    tail = np.asarray(means_tail, dtype=float)
    if tail.shape != (4,):
        raise ValueError("need exactly the last four weighted means")
    value = float(np.dot(OUTFLOW_WEIGHTS, tail))
    return min(max(value, bounds.lower), bounds.upper)


def _check_bc_value(value, bounds, what):
    if value < bounds.lower - bounds.tol or value > bounds.upper + bounds.tol:
        raise ValueError(f"{what} value {value} outside bounds "
                         f"[{bounds.lower}, {bounds.upper}]")
    return min(max(float(value), bounds.lower), bounds.upper)


class InflowOutflowScheme:
    """4th-order convection scheme with inflow at the left, outflow right.

    Requires ``f' >= 0`` on the invariant interval so the left boundary
    condition is well posed; the admissible forward-Euler step is
    ``dx / (3 max f')``.
    """

    def __init__(self, problem: Problem1D, ctx: StepContext, *,
                 n: int | None = None, bp_limit: bool = True):
        if problem.boundary != "inflow-outflow":
            raise ValueError("problem does not declare inflow-outflow boundaries")
        if problem.has_diffusion:
            raise ValueError("inflow-outflow treatment covers pure convection")
        if ctx.accuracy_order != 4:
            raise ValueError("boundary schemes pair with the 4th-order interior")
        if problem.left_value is None:
            raise ValueError("problem must supply the inflow value L(t)")
        if problem.min_fprime is None or problem.min_fprime < -1e-12:
            raise ValueError("inflow-outflow requires f' >= 0 on the bounds")
        self.problem = problem
        self.ctx = ctx
        self.n = n
        self.bp_limit = bp_limit

    @property
    def bounds(self) -> Bounds:
        return self.problem.bounds

    @property
    def x(self) -> np.ndarray:
        if self.n is None:
            raise ValueError("scheme was built without a grid size")
        return self.problem.x_lo + self.ctx.dx * np.arange(self.n + 2)

    def initial_state(self):
        return np.asarray(self.problem.initial(self.x), dtype=float), 0.0

    def exact_state(self, t):
        if self.problem.exact is None:
            return None
        return np.asarray(self.problem.exact(self.x, t), dtype=float)

    def admissible_dt_fe(self) -> float:
        if self.problem.max_fprime == 0.0:
            return np.inf
        return self.ctx.dx / (3.0 * self.problem.max_fprime)

    def validate_cfl(self, ssp_coefficient: float = 1.0):
        admissible = ssp_coefficient * self.admissible_dt_fe()
        if self.ctx.dt > admissible * (1.0 + 1e-9):
            raise CflError(self.ctx.dt, admissible, self.problem.name)

    def means(self, u: np.ndarray) -> np.ndarray:
        return (u[:-2] + 4.0 * u[1:-1] + u[2:]) / 6.0

    def rhs_means(self, u: np.ndarray, t: float = 0.0) -> np.ndarray:
        f = self.problem.flux(u)
        return -(f[2:] - f[:-2]) / (2.0 * self.ctx.dx)

    def recover(self, q: np.ndarray, t: float,
                limiting: bool | None = None) -> tuple[np.ndarray, LimiterReport]:
        """Rebuild the full state from updated interior means at time t."""
        limiting = self.bp_limit if limiting is None else limiting
        bounds = self.bounds
        u_left = _check_bc_value(self.problem.left_value(t), bounds, "inflow")
        u_right = outflow_extrapolate(q[-4:], bounds)
        rhs = np.asarray(q, dtype=float).copy()
        rhs[0] -= u_left / 6.0
        rhs[-1] -= u_right / 6.0
        interior = solve_open_weighting(4.0, rhs)
        report = LimiterReport()
        if limiting:
            interior, report = limit_bounds_segment(
                interior, bounds, 4.0, left=u_left, right=u_right)
        return np.concatenate(([u_left], interior, [u_right])), report

    def euler_step(self, u: np.ndarray, t: float = 0.0,
                   limiting: bool | None = None):
        self.validate_cfl()
        q = self.means(u) + self.ctx.dt * self.rhs_means(u, t)
        u_new, report = self.recover(q, t + self.ctx.dt, limiting)
        return u_new, q, report


def inflow_outflow_step(u: np.ndarray, ctx: StepContext, problem: Problem1D,
                        t: float = 0.0, *, bp_limit: bool = True):
    """One forward-Euler inflow-outflow step; returns (u_new, means, report)."""
    scheme = InflowOutflowScheme(problem, ctx, bp_limit=bp_limit)
    return scheme.euler_step(u, t)


@dataclass(frozen=True)
class DirichletOperators:
    """Banded rows of the Dirichlet mean update and its recovery chain.

    ``mean_*`` rows map the N+2 state to N interior weighted means (the
    end rows embed the one-sided third-order flux-derivative closure);
    the reconstruction weighting factors as an N x N tridiagonal with
    modified corner rows (c = 10 inside, two-point end rows) times the
    plain rectangular (1, 4, 1)/6 weighting.
    """

    mean_first: tuple = (4 / 60, 41 / 60, 14 / 60, 1 / 60)
    mean_interior: tuple = (1 / 72, 14 / 72, 42 / 72, 14 / 72, 1 / 72)
    # flux rows carry the conservation-form minus sign already
    dx_first: tuple = (19 / 60, 21 / 60, -39 / 60, -1 / 60)
    dx_interior: tuple = (1 / 24, 10 / 24, 0.0, -10 / 24, -1 / 24)
    dxx_first: tuple = (4 / 5, -7 / 5, 2 / 5, 1 / 5)
    dxx_interior: tuple = (1 / 6, 2 / 6, -6 / 6, 2 / 6, 1 / 6)
    corner_weight: float = 10.0 / 11.0


def _banded_end_aware(first_row, interior_row, values, mirror_sign):
    """Apply rows [first; interior...; +-mirrored first] to the N+2 vector.

    Interior mean row j (output index 1..n-2) couples values[j-1 : j+4];
    the last row is the reflection of the first, with ``mirror_sign=-1``
    for odd (first-derivative) operators.
    """
    n = values.size - 2
    out = np.empty(n)
    acc = 0.0
    for k, coef in enumerate(interior_row):
        if coef != 0.0:
            acc = acc + coef * values[k:k + n - 2]
    out[1:-1] = acc
    first = np.asarray(first_row)
    out[0] = float(np.dot(first, values[:4]))
    out[-1] = mirror_sign * float(np.dot(first[::-1], values[-4:]))
    return out


class DirichletConvDiffScheme:
    """Third-order boundary closure of the 4th-order interior scheme.

    The interior mean update uses five-point rows; the two end rows use
    one-sided four-point rows whose weak monotonicity holds under
    ``dt/dx max|f'| <= 4/19`` and ``dt/dx^2 max a' <= 695/1596``.
    Recovery: build the reconstruction means ``w`` (convex in the point
    values and the prescribed end data), solve the corner-modified
    tridiagonal, limit at c = 10, solve the interior (1,4,1)/6 system
    with the end data moved to the right-hand side, limit at c = 4.
    """

    rows = DirichletOperators()

    def __init__(self, problem: Problem1D, ctx: StepContext, *,
                 n: int | None = None, bp_limit: bool = True):
        if problem.boundary != "dirichlet":
            raise ValueError("problem does not declare dirichlet boundaries")
        if ctx.accuracy_order != 4:
            raise ValueError("boundary schemes pair with the 4th-order interior")
        if problem.left_value is None or problem.right_value is None:
            raise ValueError("problem must supply both boundary values")
        self.problem = problem
        self.ctx = ctx
        self.n = n
        self.bp_limit = bp_limit

    @property
    def bounds(self) -> Bounds:
        return self.problem.bounds

    @property
    def x(self) -> np.ndarray:
        if self.n is None:
            raise ValueError("scheme was built without a grid size")
        return self.problem.x_lo + self.ctx.dx * np.arange(self.n + 2)

    def initial_state(self):
        return np.asarray(self.problem.initial(self.x), dtype=float), 0.0

    def exact_state(self, t):
        if self.problem.exact is None:
            return None
        return np.asarray(self.problem.exact(self.x, t), dtype=float)

    def admissible_dt_fe(self) -> float:
        limits = []
        if self.problem.has_convection and self.problem.max_fprime > 0:
            limits.append(DIRICHLET_CONVECTION_CFL * self.ctx.dx
                          / self.problem.max_fprime)
        if self.problem.has_diffusion and self.problem.max_aprime > 0:
            limits.append(DIRICHLET_DIFFUSION_CFL * self.ctx.dx ** 2
                          / self.problem.max_aprime)
        return min(limits) if limits else np.inf

    def validate_cfl(self, ssp_coefficient: float = 1.0):
        admissible = ssp_coefficient * self.admissible_dt_fe()
        if self.ctx.dt > admissible * (1.0 + 1e-9):
            raise CflError(self.ctx.dt, admissible, self.problem.name)

    def means(self, u: np.ndarray) -> np.ndarray:
        return _banded_end_aware(self.rows.mean_first, self.rows.mean_interior,
                                 u, mirror_sign=1.0)

    def rhs_means(self, u: np.ndarray, t: float = 0.0) -> np.ndarray:
        out = 0.0
        if self.problem.has_convection:
            conv = _banded_end_aware(self.rows.dx_first, self.rows.dx_interior,
                                     self.problem.flux(u), mirror_sign=-1.0)
            out = out + conv / self.ctx.dx
        if self.problem.has_diffusion:
            diff = _banded_end_aware(self.rows.dxx_first, self.rows.dxx_interior,
                                     self.problem.diffusion(u), mirror_sign=1.0)
            out = out + diff / self.ctx.dx ** 2
        return out

    def recover(self, q: np.ndarray, t: float,
                limiting: bool | None = None) -> tuple[np.ndarray, LimiterReport]:
        limiting = self.bp_limit if limiting is None else limiting
        bounds = self.bounds
        kappa = self.rows.corner_weight
        u_left = _check_bc_value(self.problem.left_value(t), bounds, "left boundary")
        u_right = _check_bc_value(self.problem.right_value(t), bounds, "right boundary")
        w = np.asarray(q, dtype=float).copy()
        w[0] = kappa * w[0] + (1.0 - kappa) * u_left
        w[-1] = kappa * w[-1] + (1.0 - kappa) * u_right
        # the c = 10 weighting with (10/11, 1/11) end rows
        v = solve_open_weighting(10.0, w, edge_rows=True)
        report = LimiterReport()
        if limiting:
            v, rep = limit_bounds_segment(v, bounds, 10.0, edge_rows=True)
            report = report.merge(rep)
        rhs = v.copy()
        rhs[0] -= u_left / 6.0
        rhs[-1] -= u_right / 6.0
        interior = solve_open_weighting(4.0, rhs)
        if limiting:
            interior, rep = limit_bounds_segment(interior, bounds, 4.0,
                                                 left=u_left, right=u_right)
            report = report.merge(rep)
        return np.concatenate(([u_left], interior, [u_right])), report

    def euler_step(self, u: np.ndarray, t: float = 0.0,
                   limiting: bool | None = None):
        self.validate_cfl()
        q = self.means(u) + self.ctx.dt * self.rhs_means(u, t)
        u_new, report = self.recover(q, t + self.ctx.dt, limiting)
        return u_new, q, report


def dirichlet_convdiff_step(u: np.ndarray, ctx: StepContext, problem: Problem1D,
                            t: float = 0.0, *, bp_limit: bool = True):
    """One forward-Euler Dirichlet step; returns (u_new, means, report)."""
    scheme = DirichletConvDiffScheme(problem, ctx, bp_limit=bp_limit)
    return scheme.euler_step(u, t)
