"""Tensorized 2D periodic schemes with dimension-by-dimension limiting.

The 4th-order weightings act separately on the two indices (left
multiplication for x, right multiplication for y); all of them commute, so
the doubly weighted means satisfy a conservative explicit update and point
values are recovered through per-line tridiagonal solves, limiting all
lines of a cascade level in one batched call after each solve.  The lines
of one level touch disjoint data, so batching them (or any other order)
cannot change the result; levels are sequential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import operators as ops
from .limiters import Bounds, LimiterReport, limit_bounds
from .schemes1d import Scheme, check_grid_size


@dataclass(frozen=True)
class Problem2D:
    """Scalar 2D convection-diffusion problem on a periodic rectangle."""

    name: str
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    bounds: Bounds
    initial: Callable[[np.ndarray, np.ndarray], np.ndarray]
    flux_x: Callable | None = None
    flux_y: Callable | None = None
    max_fprime: float = 0.0
    max_gprime: float = 0.0
    diffusion_x: Callable | None = None
    diffusion_y: Callable | None = None
    max_aprime: float = 0.0
    max_bprime: float = 0.0
    exact: Callable | None = None
    default_T: float = 1.0
    boundary: str = "periodic"

    @property
    def has_convection(self) -> bool:
        return self.flux_x is not None or self.flux_y is not None

    @property
    def has_diffusion(self) -> bool:
        return self.diffusion_x is not None or self.diffusion_y is not None

    def mode(self) -> str:
        if self.has_convection and self.has_diffusion:
            return "convdiff"
        if self.has_diffusion:
            return "diffusion"
        return "convection"


@dataclass(frozen=True)
class StepContext2D:
    """Spacings; the 2D schemes are 4th order and the integrator owns ``dt``."""

    dx: float
    dy: float


_W4 = ops.WeightOperator(4.0)
_W10 = ops.WeightOperator(10.0)


def _dx_central(f, axis):
    """Periodic ``0.5 (f_{i+1} - f_{i-1})`` along ``axis``."""
    out = np.empty_like(f)
    o, v = out.swapaxes(0, axis), f.swapaxes(0, axis)
    np.subtract(v[2:], v[:-2], out=o[1:-1])
    np.subtract(v[1], v[-1], out=o[0])
    np.subtract(v[0], v[-2], out=o[-1])
    o *= 0.5
    return out


def _dxx_central(f, axis):
    """Periodic ``(f_{i+1} - 2 f_i) + f_{i-1}`` along ``axis``."""
    out = np.empty_like(f)
    o, v = out.swapaxes(0, axis), f.swapaxes(0, axis)
    twice = 2.0 * v
    np.subtract(v[1:], twice[:-1], out=o[:-1])
    np.subtract(v[0], twice[-1], out=o[-1])
    o[1:] += v[:-1]
    o[0] += v[-1]
    return out


def _evaluate_pair(fx, fy, u):
    """``fx(u)`` and ``fy(u)`` (None for a missing function), one call when
    both directions share the function."""
    vx = None if fx is None else fx(u)
    vy = vx if fy is fx else None if fy is None else fy(u)
    return vx, vy


def max_stable_dt_2d(problem: Problem2D, dx: float, dy: float) -> float:
    """Weak-monotonicity forward-Euler step for the tensorized 4th-order schemes.

    The directional contributions add: convection requires
    ``dt (|f'|/dx + |g'|/dy) <= 1/3`` and diffusion
    ``dt (a'/dx^2 + b'/dy^2) <= 5/12``, both halved when the two terms
    are combined.  With neither term active the step is unbounded (inf).
    """
    mode = problem.mode()
    half = 0.5 if mode == "convdiff" else 1.0
    limits = [math.inf]
    conv = problem.max_fprime / dx + problem.max_gprime / dy
    if conv > 0:
        limits.append(half * (1.0 / 3.0) / conv)
    diff = problem.max_aprime / dx ** 2 + problem.max_bprime / dy ** 2
    if diff > 0:
        limits.append(half * (5.0 / 12.0) / diff)
    return min(limits)


class PeriodicScheme2D(Scheme):
    """Mean-update / recovery machinery for one periodic 2D problem.

    The limiting cascade solves and limits dimension by dimension:
    c = 4 sweeps along x then y, followed (with diffusion present) by
    c = 10 sweeps along x then y.
    """

    def __init__(self, problem: Problem2D, ctx: StepContext2D, *,
                 nx: int | None = None, ny: int | None = None,
                 bp_limit: bool = True):
        # the periodic weighting solves need three points along each axis
        check_grid_size(problem, nx, 3, "nx")
        check_grid_size(problem, ny, 3, "ny")
        super().__init__(problem, ctx, None if nx is None or ny is None else (nx, ny),
                         bp_limit)
        self.mode = problem.mode()
        # recovery levels as (c, axis) in solve order
        levels = [(4.0, 0), (4.0, 1)]
        if self.mode == "diffusion":
            levels = [(10.0, 0), (10.0, 1)]
        elif self.mode == "convdiff":
            levels += [(10.0, 0), (10.0, 1)]
        self.levels = tuple(levels)

    def _coordinates(self, n):
        nx, ny = n
        x = self.problem.x_lo + self.ctx.dx * np.arange(1, nx + 1)
        y = self.problem.y_lo + self.ctx.dy * np.arange(1, ny + 1)
        return np.meshgrid(x, y, indexing="ij")

    def admissible_dt_fe(self) -> float:
        return max_stable_dt_2d(self.problem, self.ctx.dx, self.ctx.dy)

    def means(self, u: np.ndarray) -> np.ndarray:
        q = np.asarray(u, dtype=float)
        for c, axis in self.levels:
            q = ops.apply_weighting(ops.WeightOperator(c), q, axis=axis)
        return q

    def rhs_means(self, u: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Time derivative of the fully weighted means at state ``u``.

        Each flux/diffusion stencil is wrapped in the weightings of all the
        *other* directions/levels so that the total is the weighted image
        of the point-value update.
        """
        p, ctx = self.problem, self.ctx
        f, g = _evaluate_pair(p.flux_x, p.flux_y, u)
        a, b = _evaluate_pair(p.diffusion_x, p.diffusion_y, u)
        out = 0.0
        conv_terms = []
        if f is not None:
            conv_terms.append((_dx_central(f, 0) / ctx.dx, 1))
        if g is not None:
            conv_terms.append((_dx_central(g, 1) / ctx.dy, 0))
        diff_terms = []
        if a is not None:
            diff_terms.append((_dxx_central(a, 0) / ctx.dx ** 2, 1))
        if b is not None:
            diff_terms.append((_dxx_central(b, 1) / ctx.dy ** 2, 0))
        has_diff = self.mode in ("diffusion", "convdiff")
        has_conv = self.mode in ("convection", "convdiff")
        for term, other_axis in conv_terms:
            q = ops.apply_weighting(_W4, term, axis=other_axis)
            if has_diff:
                q = ops.apply_weighting(_W10, q, axis=0)
                q = ops.apply_weighting(_W10, q, axis=1)
            out = out - q
        for term, other_axis in diff_terms:
            q = ops.apply_weighting(_W10, term, axis=other_axis)
            if has_conv:
                q = ops.apply_weighting(_W4, q, axis=0)
                q = ops.apply_weighting(_W4, q, axis=1)
            out = out + q
        return out

    def recover(self, q: np.ndarray, t: float = 0.0) -> tuple[np.ndarray, LimiterReport]:
        report = None
        v = np.asarray(q, dtype=float)
        for c, axis in self.levels:
            rhs = v
            v = ops.solve_weighting(ops.WeightOperator(c), rhs, axis=axis)
            if self.bp_limit:
                # the solve's right-hand side holds the means the limiter checks
                v, rep = limit_bounds(v, self.bounds, c, axis=axis, means=rhs)
                report = rep if report is None else report.merge(rep)
        return v, LimiterReport() if report is None else report
