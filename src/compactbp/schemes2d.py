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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import operators as ops
from .limiters import Bounds, LimiterReport, limit_bounds
from .schemes1d import CflError


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
    """Spacings and time step; the 2D schemes are 4th order."""

    dx: float
    dy: float
    dt: float

    @property
    def lam_x(self):
        return self.dt / self.dx

    @property
    def lam_y(self):
        return self.dt / self.dy

    @property
    def mu_x(self):
        return self.dt / self.dx ** 2

    @property
    def mu_y(self):
        return self.dt / self.dy ** 2


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


def max_stable_dt_2d(problem: Problem2D, dx: float, dy: float,
                     ssp_coefficient: float = 1.0,
                     cap: float | None = None) -> float:
    """Weak-monotonicity time step for the tensorized 4th-order schemes.

    The directional contributions add: convection requires
    ``dt (|f'|/dx + |g'|/dy) <= 1/3`` and diffusion
    ``dt (a'/dx^2 + b'/dy^2) <= 5/12``, both halved when the two terms
    are combined.
    """
    mode = problem.mode()
    half = 0.5 if mode == "convdiff" else 1.0
    limits = []
    conv = problem.max_fprime / dx + problem.max_gprime / dy
    if conv > 0:
        limits.append(half * (1.0 / 3.0) / conv)
    diff = problem.max_aprime / dx ** 2 + problem.max_bprime / dy ** 2
    if diff > 0:
        limits.append(half * (5.0 / 12.0) / diff)
    if not limits:
        if cap is None:
            raise ValueError("problem has no active CFL constraint; supply a cap")
        return cap
    dt = ssp_coefficient * min(limits)
    if cap is not None:
        dt = min(dt, cap)
    return dt


class PeriodicScheme2D:
    """Mean-update / recovery machinery for one periodic 2D problem.

    The limiting cascade solves and limits dimension by dimension:
    c = 4 sweeps along x then y, followed (with diffusion present) by
    c = 10 sweeps along x then y.  ``sweep_order="yx"`` flips the axis
    order inside each level pair; the bounds and conservation contract is
    unchanged, the option only exposes any ordering sensitivity.
    """

    def __init__(self, problem: Problem2D, ctx: StepContext2D, *,
                 nx: int | None = None, ny: int | None = None,
                 bp_limit: bool = True, sweep_order: str = "xy"):
        if sweep_order not in ("xy", "yx"):
            raise ValueError("sweep_order must be 'xy' or 'yx'")
        self.problem = problem
        self.ctx = ctx
        self.nx = nx
        self.ny = ny
        self.bp_limit = bp_limit
        self.mode = problem.mode()
        self.sweep_order = sweep_order
        # recovery levels as (c, axis) in solve order
        axes = (0, 1) if sweep_order == "xy" else (1, 0)
        levels = [(4.0, axes[0]), (4.0, axes[1])]
        if self.mode == "diffusion":
            levels = [(10.0, axes[0]), (10.0, axes[1])]
        elif self.mode == "convdiff":
            levels += [(10.0, axes[0]), (10.0, axes[1])]
        self.levels = tuple(levels)

    @property
    def bounds(self) -> Bounds:
        return self.problem.bounds

    def grid(self):
        if self.nx is None or self.ny is None:
            raise ValueError("scheme was built without grid sizes")
        dx, dy = self.ctx.dx, self.ctx.dy
        x = self.problem.x_lo + dx * np.arange(1, self.nx + 1)
        y = self.problem.y_lo + dy * np.arange(1, self.ny + 1)
        return np.meshgrid(x, y, indexing="ij")

    def initial_state(self):
        xx, yy = self.grid()
        return np.asarray(self.problem.initial(xx, yy), dtype=float), 0.0

    def exact_state(self, t: float):
        if self.problem.exact is None:
            return None
        xx, yy = self.grid()
        return np.asarray(self.problem.exact(xx, yy, t), dtype=float)

    def admissible_dt_fe(self) -> float:
        return max_stable_dt_2d(self.problem, self.ctx.dx, self.ctx.dy)

    def validate_cfl(self, ssp_coefficient: float = 1.0):
        admissible = ssp_coefficient * self.admissible_dt_fe()
        if self.ctx.dt > admissible * (1.0 + 1e-9):
            raise CflError(self.ctx.dt, admissible, self.problem.name)

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
        out = 0.0
        conv_terms = []
        if p.flux_x is not None:
            conv_terms.append((_dx_central(p.flux_x(u), 0) / ctx.dx, 1))
        if p.flux_y is not None:
            conv_terms.append((_dx_central(p.flux_y(u), 1) / ctx.dy, 0))
        diff_terms = []
        if p.diffusion_x is not None:
            diff_terms.append((_dxx_central(p.diffusion_x(u), 0) / ctx.dx ** 2, 1))
        if p.diffusion_y is not None:
            diff_terms.append((_dxx_central(p.diffusion_y(u), 1) / ctx.dy ** 2, 0))
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

    def recover(self, q: np.ndarray, t: float = 0.0,
                limiting: bool | None = None) -> tuple[np.ndarray, LimiterReport]:
        limiting = self.bp_limit if limiting is None else limiting
        report = LimiterReport()
        v = np.asarray(q, dtype=float)
        for c, axis in self.levels:
            v = ops.solve_weighting(ops.WeightOperator(c), v, axis=axis)
            if limiting:
                v, rep = limit_bounds(v, self.bounds, c, axis=axis)
                report = report.merge(rep)
        return v, report

    def euler_step(self, u: np.ndarray, t: float = 0.0,
                   limiting: bool | None = None):
        self.validate_cfl()
        q = self.means(u) + self.ctx.dt * self.rhs_means(u, t)
        u_new, report = self.recover(q, t + self.ctx.dt, limiting)
        return u_new, q, report


def euler_step_2d_convection(u: np.ndarray, ctx: StepContext2D,
                             problem: Problem2D, *, bp_limit: bool = True):
    """Forward-Euler 2D convection step; returns (u_new, means_new, report)."""
    if problem.has_diffusion:
        raise ValueError("problem has diffusion terms; use euler_step_2d_convdiff")
    scheme = PeriodicScheme2D(problem, ctx, bp_limit=bp_limit)
    return scheme.euler_step(u)


def euler_step_2d_convdiff(u: np.ndarray, ctx: StepContext2D,
                           problem: Problem2D, *, bp_limit: bool = True):
    """Forward-Euler 2D convection-diffusion step."""
    scheme = PeriodicScheme2D(problem, ctx, bp_limit=bp_limit)
    return scheme.euler_step(u)
