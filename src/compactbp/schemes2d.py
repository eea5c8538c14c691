"""Tensorized 2D periodic schemes with dimension-by-dimension limiting.

The 4th-order weightings act separately on the two indices (left
multiplication for x, right multiplication for y); all of them commute, so
the doubly weighted means satisfy a conservative explicit update.  The
scheme is the 1D one's list of weighting levels, with each family's
levels taken along both axes: point values are recovered through per-line
tridiagonal solves, limiting all lines of a level in one batched call
after each solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import operators as ops
from .limiters import Bounds, LimiterReport, recover_point_values
from .schemes1d import (CONVECTION, DIFFUSION, Scheme, check_derivative_bounds,
                        check_grid_size, periodic_families, weighted_rhs)

# the 2D schemes are 4th order
_CS1 = ops.first_derivative_coefficients(4)
_CS2 = ops.second_derivative_coefficients(4)


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

    def __post_init__(self):
        check_derivative_bounds(self)

    @property
    def has_convection(self) -> bool:
        return self.flux_x is not None or self.flux_y is not None

    @property
    def has_diffusion(self) -> bool:
        return self.diffusion_x is not None or self.diffusion_y is not None


@dataclass(frozen=True)
class StepContext2D:
    """Spacings; the 2D schemes are 4th order and the integrator owns ``dt``."""

    dx: float
    dy: float


def _along_memory(f, axis):
    """Whether ``axis`` is the memory-contiguous axis of a contiguous ``f``.

    Then a shift along ``axis`` is a shift of the flat memory-order view
    (``ravel(order="K")``): one loop over the whole array instead of one
    short strided loop per line, wrong only at the two wrap ends of each
    line, which the stencils set afterwards.  Along another axis the
    shifted slices of the view with ``axis`` first are whole blocks
    already.
    """
    return f.strides[axis] == f.itemsize and f.flags.forc


def _dx_central(f, axis):
    """Periodic ``0.5 (f_{i+1} - f_{i-1})`` along ``axis``."""
    out = np.empty_like(f)
    o, v = out.swapaxes(0, axis), f.swapaxes(0, axis)
    so, sv = (out.ravel(order="K"), f.ravel(order="K")) if _along_memory(f, axis) else (o, v)
    np.subtract(sv[2:], sv[:-2], out=so[1:-1])
    np.subtract(v[1], v[-1], out=o[0])
    np.subtract(v[0], v[-2], out=o[-1])
    o *= 0.5
    return out


def _dxx_central(f, axis):
    """Periodic ``(f_{i+1} - 2 f_i) + f_{i-1}`` along ``axis``."""
    out = np.empty_like(f)
    twice = 2.0 * f
    o, v, w = out.swapaxes(0, axis), f.swapaxes(0, axis), twice.swapaxes(0, axis)
    flat = _along_memory(f, axis)
    so, sv, sw = ((out.ravel(order="K"), f.ravel(order="K"), twice.ravel(order="K"))
                  if flat else (o, v, w))
    np.subtract(sv[1:], sw[:-1], out=so[:-1])
    np.subtract(v[0], w[-1], out=o[-1])
    so[1:] += sv[:-1]
    if flat:
        # the first point of each line took the last of the line before
        np.subtract(v[1], w[0], out=o[0])
    o[0] += v[-1]
    return out


def _evaluate_pair(fx, fy, u):
    """``fx(u)`` and ``fy(u)`` (None for a missing function), one call when
    both directions share the function."""
    vx = None if fx is None else fx(u)
    vy = vx if fy is fx else None if fy is None else fy(u)
    return vx, vy


class PeriodicScheme2D(Scheme):
    """Mean-update / recovery machinery for one periodic 2D problem.

    The limiting cascade solves and limits dimension by dimension:
    c = 4 sweeps along x then y, followed (with diffusion present) by
    c = 10 sweeps along x then y.  The rates of the CFL constants add over
    the directions: ``dt (|f'|/dx + |g'|/dy) <= 1/3`` for convection and
    ``dt (a'/dx^2 + b'/dy^2) <= 5/12`` for diffusion, both halved when the
    two terms are combined.
    """

    def __init__(self, problem: Problem2D, ctx: StepContext2D, *,
                 nx: int | None = None, ny: int | None = None,
                 bp_limit: bool = True):
        # the periodic weighting solves need three points along each axis
        check_grid_size(problem, nx, 3, "nx")
        check_grid_size(problem, ny, 3, "ny")
        super().__init__(problem, ctx, None if nx is None or ny is None else (nx, ny),
                         bp_limit)
        self.families, self.cfl = periodic_families(problem, _CS1, _CS2, (0, 1))
        self.levels = self.families[CONVECTION] + self.families[DIFFUSION]

    def _coordinates(self, n):
        nx, ny = n
        x = self.problem.x_lo + self.ctx.dx * np.arange(1, nx + 1)
        y = self.problem.y_lo + self.ctx.dy * np.arange(1, ny + 1)
        return np.meshgrid(x, y, indexing="ij")

    def cfl_rates(self) -> tuple[float, float]:
        """The directional sums ``|f'|/dx + |g'|/dy`` and ``a'/dx^2 + b'/dy^2``."""
        p, ctx = self.problem, self.ctx
        return (p.max_fprime / ctx.dx + p.max_gprime / ctx.dy,
                p.max_aprime / ctx.dx ** 2 + p.max_bprime / ctx.dy ** 2)

    def means(self, u: np.ndarray) -> np.ndarray:
        return ops.apply_levels(self.levels, u)

    def rhs_means(self, u: np.ndarray, t: float = 0.0,
                  means: np.ndarray | None = None) -> np.ndarray:
        """Time derivative of the fully weighted means at state ``u``."""
        p, ctx = self.problem, self.ctx
        f, g = _evaluate_pair(p.flux_x, p.flux_y, u)
        a, b = _evaluate_pair(p.diffusion_x, p.diffusion_y, u)
        terms = [(_dx_central(v, axis) / h, axis, CONVECTION)
                 for v, axis, h in ((f, 0, ctx.dx), (g, 1, ctx.dy)) if v is not None]
        terms += [(_dxx_central(v, axis) / h ** 2, axis, DIFFUSION)
                  for v, axis, h in ((a, 0, ctx.dx), (b, 1, ctx.dy)) if v is not None]
        return weighted_rhs(terms, self.families)

    def recover(self, q: np.ndarray, t: float = 0.0) -> tuple[np.ndarray, LimiterReport]:
        return recover_point_values(q, self.levels, self.bounds, self.bp_limit)
