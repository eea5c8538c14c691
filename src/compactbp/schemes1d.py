"""Fully discrete 1D compact schemes on periodic grids.

A scheme advances the weighted means of the point values with an explicit
conservative update and recovers (optionally limiting) the point values by
inverting the weighting chain.  :class:`Scheme` is the protocol every
scheme (1D, 2D and the non-periodic ones) shares: forward-Euler steps are
exposed directly, and the SSP integrators of :mod:`.timeint` drive the
same ``means`` / ``rhs_means`` / ``recover`` triple through convex
combinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import operators as ops
from .limiters import Bounds, LimiterReport, flux_difference, recover_point_values, tvb_flux


class CflError(ValueError):
    """Time step too large for the weak-monotonicity constraint."""

    def __init__(self, dt, admissible, what=""):
        self.dt = float(dt)
        self.admissible = float(admissible)
        super().__init__(
            f"dt = {dt:.6g} exceeds the admissible forward-Euler step "
            f"{admissible:.6g}{(' for ' + what) if what else ''}")


def check_dt(dt: float, admissible: float, what: str = "") -> None:
    """Raise :class:`CflError` when ``dt`` exceeds ``admissible`` beyond round-off."""
    if dt > admissible * (1.0 + 1e-9):
        raise CflError(dt, admissible, what)


def check_grid_size(problem, n: int | None, minimum: int, what: str = "N") -> None:
    """Reject a grid smaller than the smallest one a scheme can step.

    ``n`` is None for schemes built without a grid size, which are not
    checked here; their first step checks the operand sizes.
    """
    if n is not None and n < minimum:
        raise ValueError(f"{problem.name} needs {what} >= {minimum} grid points, "
                         f"got {what} = {n}")


def _zero_flux(u):
    return np.zeros_like(u)


@dataclass(frozen=True)
class Problem1D:
    """A scalar 1D convection-diffusion problem with invariant bounds.

    ``flux`` is f(u) with ``max_fprime`` bounding ``|f'|`` over the
    invariant interval; ``diffusion`` is a(u) with ``a' >= 0`` and
    ``max_aprime`` bounding ``a'``.  ``exact(x, t)``, when present, is the
    reference solution; ``left_value(t)``/``right_value(t)`` supply
    non-periodic boundary data.
    """

    name: str
    x_lo: float
    x_hi: float
    bounds: Bounds
    initial: Callable[[np.ndarray], np.ndarray]
    boundary: str = "periodic"  # periodic | inflow-outflow | dirichlet
    flux: Callable[[np.ndarray], np.ndarray] | None = None
    max_fprime: float = 0.0
    min_fprime: float | None = None
    diffusion: Callable[[np.ndarray], np.ndarray] | None = None
    max_aprime: float = 0.0
    exact: Callable[[np.ndarray, float], np.ndarray] | None = None
    left_value: Callable[[float], float] | None = None
    right_value: Callable[[float], float] | None = None
    default_T: float = 1.0

    def __post_init__(self):
        if self.max_fprime < 0 or self.max_aprime < 0:
            raise ValueError("derivative bounds must be nonnegative")

    @property
    def length(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def has_convection(self) -> bool:
        return self.flux is not None

    @property
    def has_diffusion(self) -> bool:
        return self.diffusion is not None

    def mode(self) -> str:
        if self.has_convection and self.has_diffusion:
            return "convdiff"
        if self.has_diffusion:
            return "diffusion"
        return "convection"


@dataclass(frozen=True)
class StepContext:
    """Grid spacing and the active coefficient sets; the integrator owns ``dt``."""

    dx: float
    accuracy_order: int
    cs1: ops.CoefficientSet
    cs2: ops.CoefficientSet
    chain1: tuple[float, ...]
    chain2: tuple[float, ...]

    @classmethod
    def create(cls, dx: float, accuracy_order: int = 4,
               alpha1: float | None = None, alpha2: float | None = None) -> "StepContext":
        if dx <= 0:
            raise ValueError("dx must be positive")
        cs1 = ops.first_derivative_coefficients(accuracy_order, alpha1)
        cs2 = ops.second_derivative_coefficients(accuracy_order, alpha2)
        return cls(dx, accuracy_order, cs1, cs2,
                   ops.recovery_chain(cs1), ops.recovery_chain(cs2))


def max_stable_dt(problem, dx: float, cs1: ops.CoefficientSet,
                  cs2: ops.CoefficientSet, *, dx2_convection: bool = False) -> float:
    """Largest forward-Euler step preserving weak monotonicity.

    For combined convection-diffusion both single-equation constants are
    halved (the update is the half-half convex splitting of the two pure
    steps).  ``dx2_convection=True`` replaces the convection dx-scaling by
    dx^2 for temporal-order verification runs.  With neither term active
    the step is unbounded (inf).
    """
    maxf = problem.max_fprime if problem.has_convection else 0.0
    maxa = problem.max_aprime if problem.has_diffusion else 0.0
    half = 0.5 if problem.mode() == "convdiff" else 1.0
    limits = [math.inf]
    if maxf > 0:
        conv_dx = dx ** 2 if dx2_convection else dx
        limits.append(half * cs1.cfl_factor * conv_dx / maxf)
    if maxa > 0:
        limits.append(half * cs2.cfl_factor * dx ** 2 / maxa)
    return min(limits)


class Scheme:
    """The protocol every fully discrete scheme shares.

    Under the CFL bound ``admissible_dt_fe()`` a forward-Euler step keeps
    the weighted means in ``[m, M]``, and the SSP methods of
    :mod:`.timeint` are convex combinations of such steps.  So a subclass
    supplies only the problem-specific parts: ``means(u)`` (the weighted
    means of the point values), ``rhs_means(u, t)`` (their time
    derivative), ``recover(q, t)`` (point values from updated means,
    limited when ``bp_limit`` is set), ``admissible_dt_fe()`` and
    ``_coordinates(n)`` (the grid point
    coordinates, one array per dimension).  The time step belongs to the
    caller: one instance serves every ``dt`` and holds no mutable state,
    so distinct refinement levels may run concurrently.
    """

    def __init__(self, problem, ctx, n, bp_limit: bool):
        self.problem = problem
        self.ctx = ctx
        self.n = n
        self.bp_limit = bp_limit

    @property
    def bounds(self) -> Bounds:
        return self.problem.bounds

    def grid(self) -> tuple[np.ndarray, ...]:
        """Coordinates of the grid points, one array per dimension."""
        if self.n is None:
            raise ValueError("scheme was built without a grid size")
        return self._coordinates(self.n)

    def initial_state(self) -> tuple[np.ndarray, float]:
        return np.asarray(self.problem.initial(*self.grid()), dtype=float), 0.0

    def exact_state(self, t: float) -> np.ndarray | None:
        if self.problem.exact is None:
            return None
        return np.asarray(self.problem.exact(*self.grid(), t), dtype=float)

    def euler_step(self, u: np.ndarray, dt: float, t: float = 0.0):
        """One forward-Euler step from time ``t``: returns (u_new, means_new, report)."""
        check_dt(dt, self.admissible_dt_fe(), self.problem.name)
        q = self.means(u) + dt * self.rhs_means(u, t)
        u_new, report = self.recover(q, t + dt)
        return u_new, q, report


class PeriodicScheme1D(Scheme):
    """Mean-update / recovery machinery for one periodic 1D problem.

    ``bp_limit`` switches the bound-preserving limiter cascade on
    recovery; ``tvb_p`` (convection only, 4th order) replaces the plain
    flux differences by the TVB-limited flux with threshold ``p * dx^2``.
    """

    def __init__(self, problem: Problem1D, ctx: StepContext, *,
                 n: int | None = None, bp_limit: bool = True,
                 tvb_p: float | None = None):
        if problem.boundary != "periodic":
            raise ValueError("PeriodicScheme1D requires a periodic problem")
        if tvb_p is not None:
            if not tvb_p >= 0:
                raise ValueError(f"the TVB threshold p must be nonnegative, got {tvb_p}")
            if problem.has_diffusion:
                raise ValueError("the TVB flux limiter is defined for pure convection")
            if ctx.accuracy_order != 4:
                raise ValueError("the TVB flux limiter pairs with the 4th-order flux")
        # the periodic weighting solve needs three points
        check_grid_size(problem, n, 3)
        super().__init__(problem, ctx, n, bp_limit)
        self.tvb_p = tvb_p
        self.mode = problem.mode()
        self.stencil1 = ops.difference_stencil(ctx.cs1)
        self.stencil2 = ops.difference_stencil(ctx.cs2)
        if self.mode == "convection":
            self.chain = ctx.chain1
        elif self.mode == "diffusion":
            self.chain = ctx.chain2
        else:
            self.chain = ctx.chain2 + ctx.chain1

    def _coordinates(self, n):
        return (periodic_grid(self.problem, n)[0],)

    def admissible_dt_fe(self) -> float:
        return max_stable_dt(self.problem, self.ctx.dx, self.ctx.cs1, self.ctx.cs2)

    def means(self, u: np.ndarray) -> np.ndarray:
        return ops.apply_weighting_chain(self.chain, u)

    def rhs_means(self, u: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Time derivative of the weighted means at state ``u``."""
        dx = self.ctx.dx
        if self.mode == "convection":
            if self.tvb_p is not None:
                ubar = self.means(u)
                fhat = tvb_flux(u, ubar, self.problem, dx, self.tvb_p)
                return -flux_difference(fhat) / dx
            return -self.stencil1.apply(self.problem.flux(u)) / dx
        if self.mode == "diffusion":
            return self.stencil2.apply(self.problem.diffusion(u)) / dx ** 2
        conv = -self.stencil1.apply(self.problem.flux(u)) / dx
        diff = self.stencil2.apply(self.problem.diffusion(u)) / dx ** 2
        return (ops.apply_weighting_chain(self.ctx.chain2, conv)
                + ops.apply_weighting_chain(self.ctx.chain1, diff))

    def recover(self, q: np.ndarray, t: float = 0.0) -> tuple[np.ndarray, LimiterReport]:
        return recover_point_values(q, self.chain, self.bounds, self.bp_limit)


def periodic_grid(problem, n: int) -> tuple[np.ndarray, float]:
    """Uniform periodic grid of n points: x_i = x_lo + i dx, i = 1..n."""
    dx = problem.length / n
    return problem.x_lo + dx * np.arange(1, n + 1), dx
