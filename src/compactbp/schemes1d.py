"""Fully discrete 1D compact schemes on periodic grids.

A scheme advances the weighted means of the point values with an explicit
conservative update and recovers (optionally limiting) the point values by
inverting the weighting chain.  Forward-Euler steps are exposed directly;
high-order SSP integrators drive the same ``means`` / ``rhs_means`` /
``recover`` triple through convex combinations, see :mod:`.timeint`.

Steps are pure given their inputs; a scheme instance holds no mutable
state, so distinct refinement levels may run concurrently.
"""

from __future__ import annotations

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
    """Grid spacing, time step and the active coefficient sets."""

    dx: float
    dt: float
    accuracy_order: int
    cs1: ops.CoefficientSet
    cs2: ops.CoefficientSet
    chain1: tuple[float, ...]
    chain2: tuple[float, ...]

    @classmethod
    def create(cls, dx: float, dt: float, accuracy_order: int = 4,
               alpha1: float | None = None, alpha2: float | None = None) -> "StepContext":
        if dx <= 0 or dt <= 0:
            raise ValueError("dx and dt must be positive")
        cs1 = ops.first_derivative_coefficients(accuracy_order, alpha1)
        cs2 = ops.second_derivative_coefficients(accuracy_order, alpha2)
        return cls(dx, dt, accuracy_order, cs1, cs2,
                   ops.recovery_chain(cs1), ops.recovery_chain(cs2))

    @property
    def lam(self) -> float:
        return self.dt / self.dx

    @property
    def mu(self) -> float:
        return self.dt / self.dx ** 2


def max_stable_dt(problem, dx: float, cs1: ops.CoefficientSet,
                  cs2: ops.CoefficientSet, mode: str | None = None,
                  ssp_coefficient: float = 1.0, *, dx2_convection: bool = False,
                  cap: float | None = None) -> float:
    """Largest time step preserving weak monotonicity, scaled by the SSP factor.

    For combined convection-diffusion both single-equation constants are
    halved (the update is the half-half convex splitting of the two pure
    steps).  ``dx2_convection=True`` replaces the convection dx-scaling by
    dx^2 for temporal-order verification runs.  When neither term is
    active the user-supplied ``cap`` is returned.
    """
    mode = mode or problem.mode()
    maxf = problem.max_fprime if problem.has_convection else 0.0
    maxa = problem.max_aprime if problem.has_diffusion else 0.0
    half = 0.5 if mode == "convdiff" else 1.0
    limits = []
    if maxf > 0:
        conv_dx = dx ** 2 if dx2_convection else dx
        limits.append(half * cs1.cfl_factor * conv_dx / maxf)
    if maxa > 0:
        limits.append(half * cs2.cfl_factor * dx ** 2 / maxa)
    if not limits:
        if cap is None:
            raise ValueError("problem has no active CFL constraint; supply a cap")
        return cap
    dt = ssp_coefficient * min(limits)
    if cap is not None:
        dt = min(dt, cap)
    return dt


class PeriodicScheme1D:
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
            if problem.has_diffusion:
                raise ValueError("the TVB flux limiter is defined for pure convection")
            if ctx.accuracy_order != 4:
                raise ValueError("the TVB flux limiter pairs with the 4th-order flux")
        self.problem = problem
        self.ctx = ctx
        self.n = n
        self.bp_limit = bp_limit
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

    @property
    def bounds(self) -> Bounds:
        return self.problem.bounds

    @property
    def x(self) -> np.ndarray:
        if self.n is None:
            raise ValueError("scheme was built without a grid size")
        return periodic_grid(self.problem, self.n)[0]

    def initial_state(self) -> tuple[np.ndarray, float]:
        return np.asarray(self.problem.initial(self.x), dtype=float), 0.0

    def exact_state(self, t: float) -> np.ndarray | None:
        if self.problem.exact is None:
            return None
        return np.asarray(self.problem.exact(self.x, t), dtype=float)

    def admissible_dt_fe(self) -> float:
        return max_stable_dt(self.problem, self.ctx.dx, self.ctx.cs1, self.ctx.cs2,
                             self.mode)

    def validate_cfl(self, ssp_coefficient: float = 1.0):
        admissible = ssp_coefficient * self.admissible_dt_fe()
        if self.ctx.dt > admissible * (1.0 + 1e-9):
            raise CflError(self.ctx.dt, admissible, self.problem.name)

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

    def recover(self, q: np.ndarray, t: float = 0.0,
                limiting: bool | None = None) -> tuple[np.ndarray, LimiterReport]:
        limiting = self.bp_limit if limiting is None else limiting
        return recover_point_values(q, self.chain, self.bounds, limiting)

    def euler_step(self, u: np.ndarray, t: float = 0.0,
                   limiting: bool | None = None):
        """One forward-Euler step: returns (u_new, means_new, report)."""
        self.validate_cfl()
        q = self.means(u) + self.ctx.dt * self.rhs_means(u, t)
        u_new, report = self.recover(q, t + self.ctx.dt, limiting)
        return u_new, q, report


def euler_step_convection(u: np.ndarray, ctx: StepContext, problem: Problem1D,
                          *, bp_limit: bool = True):
    """Forward-Euler convection step; returns (u_new, means_new, report)."""
    if problem.has_diffusion:
        raise ValueError("problem has a diffusion term; use euler_step_convdiff")
    scheme = PeriodicScheme1D(problem, ctx, bp_limit=bp_limit)
    return scheme.euler_step(u)


def euler_step_convdiff(u: np.ndarray, ctx: StepContext, problem: Problem1D,
                        *, bp_limit: bool = True):
    """Forward-Euler convection-diffusion step (also covers pure diffusion)."""
    scheme = PeriodicScheme1D(problem, ctx, bp_limit=bp_limit)
    return scheme.euler_step(u)


def periodic_grid(problem, n: int) -> tuple[np.ndarray, float]:
    """Uniform periodic grid of n points: x_i = x_lo + i dx, i = 1..n."""
    dx = problem.length / n
    return problem.x_lo + dx * np.arange(1, n + 1), dx
