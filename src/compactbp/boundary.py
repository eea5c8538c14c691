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

import numpy as np
# Unused, but kept bound: the benchmark's tracer (solverbench/tracing.py)
# wraps ``boundary.solve_banded`` by name and raises KeyError without it.
from scipy.linalg import solve_banded  # noqa: F401

from .limiters import Bounds, LimiterReport, limit_bounds_segment
from .operators import solve_open_weighting
from .schemes1d import Problem1D, Scheme, StepContext, check_grid_size

#: Cubic-extrapolation weights producing the outflow end value from the
#: last four interior weighted means (exact for cubics; the weights sum
#: to 1 but are not a convex combination, hence the clamp).
OUTFLOW_WEIGHTS = (-2.0 / 3.0, 17.0 / 6.0, -14.0 / 3.0, 7.0 / 2.0)


def _read_only_row(row: tuple) -> np.ndarray:
    """``row`` as a float array that cannot be written to."""
    a = np.array(row, dtype=float)
    a.flags.writeable = False
    return a


# Banded rows of the Dirichlet mean update.  The MEAN_* rows map the N+2
# state to N interior weighted means; the *_FIRST end rows embed the
# one-sided third-order flux-derivative closure.  The DX_* rows carry the
# conservation-form minus sign already.  The end rows are read-only arrays
# (dotted with the end values); the interior rows stay tuples of Python
# floats, which multiply arrays faster than NumPy scalars do.  The
# reconstruction weighting factors as an N x N tridiagonal with modified
# corner rows (c = 10 inside, two-point end rows (CORNER_WEIGHT,
# 1 - CORNER_WEIGHT)) times the plain rectangular (1, 4, 1)/6 weighting.
MEAN_FIRST = _read_only_row((4 / 60, 41 / 60, 14 / 60, 1 / 60))
MEAN_INTERIOR = (1 / 72, 14 / 72, 42 / 72, 14 / 72, 1 / 72)
DX_FIRST = _read_only_row((19 / 60, 21 / 60, -39 / 60, -1 / 60))
DX_INTERIOR = (1 / 24, 10 / 24, 0.0, -10 / 24, -1 / 24)
DXX_FIRST = _read_only_row((4 / 5, -7 / 5, 2 / 5, 1 / 5))
DXX_INTERIOR = (1 / 6, 2 / 6, -6 / 6, 2 / 6, 1 / 6)
CORNER_WEIGHT = 10.0 / 11.0


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
    # written as "not inside" so that NaN fails too
    if not bounds.lower - bounds.tol <= value <= bounds.upper + bounds.tol:
        raise ValueError(f"{what} value {value} outside bounds "
                         f"[{bounds.lower}, {bounds.upper}]")
    return min(max(float(value), bounds.lower), bounds.upper)


def _recover_interior(scheme, means, u_left, u_right, checked=False):
    """Full state and limiter report from the c = 4 interior means.

    The end values move into the right-hand side of the solve; with them
    in place, ``(u_{i-1} + 4 u_i + u_{i+1})/6`` reproduces ``means``,
    which the limiter checks when ``scheme.bp_limit`` is set.  Means that
    are ``checked`` (a limited level's output, so inside the bounds like
    the end values) need no second check: the limiter then runs only when
    the solution leaves the bounds, since on an in-range one it would
    return a copy and an empty report.
    """
    rhs = means.copy()
    rhs[0] -= u_left / 6.0
    rhs[-1] -= u_right / 6.0
    interior = solve_open_weighting(4.0, rhs)
    report = LimiterReport()
    lo, hi = scheme.bounds.span
    if scheme.bp_limit and not (checked and lo <= interior.min() and interior.max() <= hi):
        interior, report = limit_bounds_segment(
            interior, scheme.bounds, 4.0, left=u_left, right=u_right, means=means)
    return np.concatenate(([u_left], interior, [u_right])), report


class InflowOutflowScheme(Scheme):
    """4th-order convection scheme with inflow at the left, outflow right.

    Requires ``f' >= 0`` on the invariant interval so the left boundary
    condition is well posed; the admissible forward-Euler step is the
    interior one, ``dx / (3 max f')``.
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
        # the outflow value extrapolates the last four interior means
        check_grid_size(problem, n, 4)
        super().__init__(problem, ctx, n, bp_limit)
        self.cfl = (ctx.cs1.cfl_factor, ctx.cs2.cfl_factor)

    def _coordinates(self, n):
        return (self.problem.x_lo + self.ctx.dx * np.arange(n + 2),)

    def means(self, u: np.ndarray) -> np.ndarray:
        return (u[:-2] + 4.0 * u[1:-1] + u[2:]) / 6.0

    def rhs_means(self, u: np.ndarray, t: float = 0.0,
                  means: np.ndarray | None = None) -> np.ndarray:
        f = self.problem.flux(u)
        return -(f[2:] - f[:-2]) / (2.0 * self.ctx.dx)

    def recover(self, q: np.ndarray, t: float) -> tuple[np.ndarray, LimiterReport]:
        """Rebuild the full state from updated interior means at time t."""
        bounds = self.bounds
        u_left = _check_bc_value(self.problem.left_value(t), bounds, "inflow")
        u_right = outflow_extrapolate(q[-4:], bounds)
        return _recover_interior(self, np.asarray(q, dtype=float), u_left, u_right)


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


class DirichletConvDiffScheme(Scheme):
    """Third-order boundary closure of the 4th-order interior scheme.

    The interior mean update uses five-point rows; the two end rows use
    one-sided four-point rows whose weak monotonicity holds under
    ``dt/dx max|f'| <= 4/19`` and ``dt/dx^2 max a' <= 695/1596``.
    Recovery: build the reconstruction means ``w`` (convex in the point
    values and the prescribed end data), solve the corner-modified
    tridiagonal, limit at c = 10, solve the interior (1,4,1)/6 system
    with the end data moved to the right-hand side, limit at c = 4.
    The c = 10 limiter checks ``w``; its output, the c = 4 level's means,
    is inside the bounds, so the c = 4 limiter runs only when the
    interior solution leaves them (it would change nothing otherwise).
    """

    # weak-monotonicity constants of the one-sided end rows; they hold
    # jointly, so combined convection-diffusion takes their minimum
    cfl = (4.0 / 19.0, 695.0 / 1596.0)

    def __init__(self, problem: Problem1D, ctx: StepContext, *,
                 n: int | None = None, bp_limit: bool = True):
        if problem.boundary != "dirichlet":
            raise ValueError("problem does not declare dirichlet boundaries")
        if ctx.accuracy_order != 4:
            raise ValueError("boundary schemes pair with the 4th-order interior")
        if problem.left_value is None or problem.right_value is None:
            raise ValueError("problem must supply both boundary values")
        # the interior solves and the four-point end rows need three interior points
        check_grid_size(problem, n, 3)
        super().__init__(problem, ctx, n, bp_limit)

    def _coordinates(self, n):
        return (self.problem.x_lo + self.ctx.dx * np.arange(n + 2),)

    def means(self, u: np.ndarray) -> np.ndarray:
        return _banded_end_aware(MEAN_FIRST, MEAN_INTERIOR, u, mirror_sign=1.0)

    def rhs_means(self, u: np.ndarray, t: float = 0.0,
                  means: np.ndarray | None = None) -> np.ndarray:
        out = 0.0
        if self.problem.has_convection:
            conv = _banded_end_aware(DX_FIRST, DX_INTERIOR,
                                     self.problem.flux(u), mirror_sign=-1.0)
            out = out + conv / self.ctx.dx
        if self.problem.has_diffusion:
            diff = _banded_end_aware(DXX_FIRST, DXX_INTERIOR,
                                     self.problem.diffusion(u), mirror_sign=1.0)
            out = out + diff / self.ctx.dx ** 2
        return out

    def recover(self, q: np.ndarray, t: float) -> tuple[np.ndarray, LimiterReport]:
        bounds = self.bounds
        kappa = CORNER_WEIGHT
        u_left = _check_bc_value(self.problem.left_value(t), bounds, "left boundary")
        u_right = _check_bc_value(self.problem.right_value(t), bounds, "right boundary")
        w = np.asarray(q, dtype=float).copy()
        w[0] = kappa * w[0] + (1.0 - kappa) * u_left
        w[-1] = kappa * w[-1] + (1.0 - kappa) * u_right
        # the c = 10 weighting with (10/11, 1/11) end rows
        v = solve_open_weighting(10.0, w, edge_rows=True)
        # each solve's right-hand side (before the end data moves into it)
        # is the set of means the limiter checks
        report = LimiterReport()
        if self.bp_limit:
            v, report = limit_bounds_segment(v, bounds, 10.0, edge_rows=True, means=w)
        state, rep = _recover_interior(self, v, u_left, u_right, checked=True)
        return state, report.merge(rep) if rep.modified_count else report
