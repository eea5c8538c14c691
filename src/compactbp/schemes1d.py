"""Fully discrete 1D compact schemes on periodic grids.

A scheme advances the weighted means of the point values with an explicit
conservative update and recovers (optionally limiting) the point values by
inverting its weighting levels.  Every periodic scheme, 1D or 2D, is a list
of tridiagonal ``(1, c, 1)/(c+2)`` weighting levels, ``(c, axis)`` pairs,
per term family (convection and diffusion): its means apply the levels,
its right-hand side wraps each directional term in the levels it lacks
(:func:`weighted_rhs`), and recovery solves and limits them one at a time
(:func:`.limiters.recover_point_values`).  :class:`Scheme` is the protocol every
scheme (1D, 2D and the non-periodic ones) shares: the SSP integrators of
:mod:`.timeint`, forward Euler among them, drive its ``means`` /
``rhs_means`` / ``recover`` triple through convex combinations of
forward-Euler steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import operators as ops
from .limiters import Bounds, LimiterReport, flux_difference, recover_point_values, tvb_flux


def check_grid_size(problem, n: int | None, minimum: int, what: str = "N") -> None:
    """Reject a grid smaller than the smallest one a scheme can step.

    ``n`` is None for schemes built without a grid size, which are not
    checked here; their first step checks the operand sizes.
    """
    if n is not None and n < minimum:
        raise ValueError(f"{problem.name} needs {what} >= {minimum} grid points, "
                         f"got {what} = {n}")


def check_derivative_bounds(problem) -> None:
    """Refuse a non-finite ``max_*``/``min_*`` bound or a negative ``max_*``.

    A bad bound would lift the CFL step limit, or pass the f' >= 0 check
    of an inflow boundary, silently.  A bound left as None is not set.
    """
    for f in fields(problem):
        kind, value = f.name[:4], getattr(problem, f.name)
        if kind in ("max_", "min_") and value is not None and not (
                math.isfinite(value) and (kind == "min_" or value >= 0)):
            rule = "finite" if kind == "min_" else "finite and nonnegative"
            raise ValueError(f"{problem.name}: derivative bound {f.name} must be {rule}, "
                             f"got {f.name} = {value}")


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
        check_derivative_bounds(self)

    @property
    def length(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def has_convection(self) -> bool:
        return self.flux is not None

    @property
    def has_diffusion(self) -> bool:
        return self.diffusion is not None


@dataclass(frozen=True)
class StepContext:
    """Grid spacing and the active coefficient sets; the integrator owns ``dt``."""

    dx: float
    cs1: ops.CoefficientSet
    cs2: ops.CoefficientSet

    @property
    def accuracy_order(self) -> int:
        return self.cs1.accuracy_order

    @classmethod
    def create(cls, dx: float, accuracy_order: int = 4,
               alpha1: float | None = None, alpha2: float | None = None) -> "StepContext":
        if dx <= 0:
            raise ValueError("dx must be positive")
        cs1 = ops.first_derivative_coefficients(accuracy_order, alpha1)
        cs2 = ops.second_derivative_coefficients(accuracy_order, alpha2)
        return cls(dx, cs1, cs2)


def max_stable_dt(rates, cfl) -> float:
    """Largest forward-Euler step preserving weak monotonicity.

    ``rates`` are the convection and diffusion rates of a scheme, the sums
    over the directions of ``max|f'|/h`` and ``max a'/h^2``, and ``cfl``
    its two constants: the step keeps ``dt * rate <= constant`` for each
    term.  A zero rate sets no limit, so with neither term active the
    step is unbounded (inf).
    """
    return min((c / r for r, c in zip(rates, cfl) if r > 0), default=math.inf)


#: Term families of a scheme: convection terms (first derivatives of the
#: flux, subtracted) and diffusion terms (second derivatives, added).
CONVECTION, DIFFUSION = 0, 1


def periodic_families(problem, cs1: ops.CoefficientSet, cs2: ops.CoefficientSet,
                      axes: tuple[int, ...]):
    """Weighting levels per term family and CFL constants of a periodic scheme.

    A family's levels are ``(c, axis)`` pairs, one per factor of
    ``recovery_chain`` along each axis, and empty when the problem lacks
    the term.  With both terms present the mean update is the half-half
    convex split of the two pure updates, so both constants are halved.
    """
    families = tuple(
        tuple((c, axis) for c in ops.recovery_chain(cs) for axis in axes) if present else ()
        for cs, present in ((cs1, problem.has_convection), (cs2, problem.has_diffusion)))
    half = 0.5 if all(families) else 1.0
    return families, (half * cs1.cfl_factor, half * cs2.cfl_factor)


def weighted_rhs(terms, families):
    """Time derivative of the weighted means from directional terms.

    ``terms`` are ``(term, axis, family)``: a scaled difference of the
    flux or of the diffusion function along ``axis``.  Each term is
    wrapped in its own family's levels on the other axes, then in the
    other family's levels, so that the sum (convection terms subtracted,
    diffusion terms added) is the fully weighted image of the point-value
    update.  With no term the derivative is 0.
    """
    out = None
    for term, axis, family in terms:
        own = tuple(level for level in families[family] if level[1] != axis)
        q = ops.apply_levels(own + families[1 - family], term)
        if family == CONVECTION:
            out = -q if out is None else out - q
        else:
            out = q if out is None else out + q
    return 0.0 if out is None else out


class Scheme:
    """The protocol every fully discrete scheme shares.

    Under the CFL bound ``admissible_dt_fe()`` a forward-Euler step keeps
    the weighted means in ``[m, M]``, and the SSP methods of
    :mod:`.timeint` are convex combinations of such steps.  So a subclass
    supplies only the problem-specific parts: ``means(u)`` (the weighted
    means of the point values), ``rhs_means(u, t, means=None)`` (their
    time derivative; a caller holding ``means(u)`` passes it, and a
    scheme whose derivative depends on the means uses it instead of
    weighting again), ``recover(q, t)`` (point values from updated means,
    limited when ``bp_limit`` is set), ``cfl`` (the convection and
    diffusion constants of :func:`max_stable_dt`) and ``_coordinates(n)``
    (the grid point coordinates, one array per dimension); 2D schemes
    also sum their rates over the directions in ``cfl_rates``.  The time
    step belongs to the caller: one instance serves every ``dt`` and holds
    no mutable state, so distinct refinement levels may run concurrently.
    """

    def __init__(self, problem, ctx, n, bp_limit: bool):
        self.problem = problem
        self.ctx = ctx
        self.n = n
        self.bp_limit = bp_limit

    @property
    def bounds(self) -> Bounds:
        return self.problem.bounds

    def cfl_rates(self) -> tuple[float, float]:
        """``max|f'|/dx`` and ``max a'/dx^2``, 0 for a term the problem lacks."""
        p, dx = self.problem, self.ctx.dx
        return (p.max_fprime / dx if p.has_convection else 0.0,
                p.max_aprime / dx ** 2 if p.has_diffusion else 0.0)

    def admissible_dt_fe(self) -> float:
        """Largest forward-Euler step that keeps the means in the bounds."""
        return max_stable_dt(self.cfl_rates(), self.cfl)

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


class PeriodicScheme1D(Scheme):
    """Mean-update / recovery machinery for one periodic 1D problem.

    ``bp_limit`` switches the bound-preserving limiter cascade on
    recovery; ``tvb_p`` (convection only, 4th order) replaces the plain
    flux differences by the TVB-limited flux with threshold ``p * dx^2``.
    Recovery solves the diffusion levels first, then the convection ones.
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
        self.stencil1 = ops.difference_stencil(ctx.cs1)
        self.stencil2 = ops.difference_stencil(ctx.cs2)
        self.families, self.cfl = periodic_families(problem, ctx.cs1, ctx.cs2, (0,))
        self.levels = self.families[DIFFUSION] + self.families[CONVECTION]

    def _coordinates(self, n):
        return (self.problem.x_lo + self.ctx.dx * np.arange(1, n + 1),)

    def means(self, u: np.ndarray) -> np.ndarray:
        return ops.apply_levels(self.levels, u)

    def rhs_means(self, u: np.ndarray, t: float = 0.0,
                  means: np.ndarray | None = None) -> np.ndarray:
        """Time derivative of the weighted means at state ``u``.

        The TVB flux limits against the means of ``u``: ``means`` when
        the caller passes them, else ``self.means(u)``.
        """
        p, dx = self.problem, self.ctx.dx
        terms = []
        if self.tvb_p is not None:
            ubar = self.means(u) if means is None else means
            fhat = tvb_flux(u, ubar, p, dx, self.tvb_p)
            terms.append((flux_difference(fhat) / dx, 0, CONVECTION))
        elif p.has_convection:
            terms.append((self.stencil1.apply(p.flux(u)) / dx, 0, CONVECTION))
        if p.has_diffusion:
            terms.append((self.stencil2.apply(p.diffusion(u)) / dx ** 2, 0, DIFFUSION))
        return weighted_rhs(terms, self.families)

    def recover(self, q: np.ndarray, t: float = 0.0) -> tuple[np.ndarray, LimiterReport]:
        return recover_point_values(q, self.levels, self.bounds, self.bp_limit)
