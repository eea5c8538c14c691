"""SSP time integration driving the mean-update / recovery schemes.

:data:`METHODS` is the one table of methods: forward Euler, the
five-stage fourth-order SSP Runge-Kutta method and the optimal six-step
fourth-order SSP multistep method.  Every row is a convex combination of
forward-Euler substeps, so every property the Euler step guarantees for
the weighted means (in particular bound preservation under the CFL
constraint) carries over when the time step is shrunk by the row's SSP
coefficient.  :class:`SspIntegrator` runs any row: Shu-Osher stages for
a one-step method and while a multistep history window fills, the
multistep combination once it is full.

This module owns the time step: :class:`SspIntegrator` is the one place
a step is checked against the scheme's CFL bound (:class:`CflError`),
and forward Euler is its one-stage ``fe`` row.  :func:`schedule_run`
builds the integrator of a run to ``T``: the row's ``schedule`` share of
the admissible forward-Euler step, shrunk to the nearest divisor of
``T`` so the multistep history keeps a constant step and the run ends at
``T`` exactly.

The integrator keeps the means and slopes it combines in one array, a
slot of two fields (means, slope) per history entry and per inner stage,
written in place; every combination, stage or multistep, is one product
of a coefficient row with a contiguous run of those slots.  The means of
a recovered state are the combination it was recovered from whenever
the limiter moved no point: recovery inverts the weighting, so weighting
the result again would give them back up to round-off.  The scheme's
``means(u)`` runs only for the start state and after a recovery that
moved points.

The limiter runs after every stage and once per multistep step;
per-stage limiting in Runge-Kutta methods may reduce the observed
convection order because inner stages are low-order approximations in
time.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from .limiters import LimiterReport


class CflError(ValueError):
    """Time step too large for the weak-monotonicity constraint."""

    def __init__(self, dt, admissible, what=""):
        self.dt = float(dt)
        self.admissible = float(admissible)
        super().__init__(
            f"dt = {dt:.6g} exceeds the admissible forward-Euler step "
            f"{admissible:.6g}{(' for ' + what) if what else ''}")


class SspMethod(NamedTuple):
    """One row of :data:`METHODS`.

    ``stages`` are Shu-Osher stages: stage ``k`` is the sum of
    ``a * m_j + dt * b * r_j`` over its ``(j, a, b)`` terms, with ``m_j``
    the weighted means of stage ``j`` (stage 0 is the step's start) and
    ``r_j`` their time derivative; the last stage is the new state.  A
    ``tableau`` ``({lag: alpha}, {lag: beta})`` makes the row a multistep
    method combining the means and slopes ``lag`` steps back; its stages
    then prime the history window, which is the largest alpha lag.
    ``schedule`` is the share of the admissible forward-Euler step a run
    takes; it never exceeds ``ssp``.
    """

    ssp: float
    schedule: float
    stages: tuple
    tableau: tuple[dict, dict] | None = None


# Five-stage fourth-order SSP Runge-Kutta method; SSP coefficient 1.508.
_RK54 = (
    ((0, 1.0, 0.391752226571890),),
    ((0, 0.444370493651235, 0.0), (1, 0.555629506348765, 0.368410593050371)),
    ((0, 0.620101851488403, 0.0), (2, 0.379898148511597, 0.251891774271694)),
    ((0, 0.178079954393132, 0.0), (3, 0.821920045606868, 0.544974750228521)),
    ((2, 0.517231671970585, 0.0), (3, 0.096059710526147, 0.063692468666290),
     (4, 0.386708617503269, 0.226007483236906)),
)

#: method name -> :class:`SspMethod`.  Forward Euler takes the full
#: admissible step and the multistep method its SSP coefficient (the real
#: root of 100 x^3 + 25 x^2 + 66 x - 12, about 0.16476, quoted as 0.1648;
#: optimal nonnegative-beta tableau).  Runge-Kutta takes five times the
#: multistep step: the same number of spatial operator evaluations per
#: unit time, with margin below its SSP coefficient.
METHODS = {
    "fe": SspMethod(1.0, 1.0, (((0, 1.0, 1.0),),)),
    "ms4": SspMethod(0.1648, 0.1648, _RK54, (
        {1: 0.342460855717012075984103013045,
         4: 0.191798259434736072591570614134,
         5: 0.093562124939009442534449960677,
         6: 0.372178759909242408889876412145},
        {1: 2.078553105578055306087676550430,
         4: 1.164112222279692927035746180770,
         5: 0.567871749748709799238471014632})),
    "rk4": SspMethod(1.508, 5.0 * 0.1648, _RK54),
}


def _method(name: str) -> SspMethod:
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}")
    return METHODS[name]


def _combination(row: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """``sum(row[i] * x_i)`` over the rows ``x_i`` of ``slots``, in their shape.

    ``slots`` is a contiguous ``(row.size // 2, 2, ...)`` block of the
    history array; the sum is one BLAS product of the row with its
    ``(row.size, points)`` view, which copies nothing and leaves
    ``slots`` unchanged.
    """
    return (row @ slots.reshape(row.size, -1)).reshape(slots.shape[2:])


class SspIntegrator:
    """Stateful driver: owns the time step, clock and history of one solve.

    ``SspIntegrator(scheme, method, span, steps=1)`` covers ``span`` in
    ``steps`` steps of ``dt = span / steps``, so
    ``SspIntegrator(scheme, method, dt)`` steps by ``dt``.  The clock is
    exact: step ``k`` ends at ``t0 + span * (k / steps)``, and step
    ``steps`` at ``t0 + span``.

    The means and slopes live in ``_rows``, of shape ``(slots, 2) +``
    the means' shape: the history ring (the entry of step ``k`` in slot
    ``k % window``), then one slot per inner Runge-Kutta stage.  Stage
    ``j`` of a stage step is slot ``window - 1 + j``, so stage 0, the
    step's start, is the ring's last slot.
    """

    def __init__(self, scheme, method: str, span: float, steps: int = 1):
        row = _method(method)
        if not (isinstance(steps, numbers.Integral) and steps >= 1):
            raise ValueError(f"steps must be a positive integer, got steps = {steps!r}")
        dt = float(span) / steps
        if not math.isfinite(dt) or dt <= 0:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        admissible = row.ssp * scheme.admissible_dt_fe()
        if dt > admissible * (1.0 + 1e-9):
            raise CflError(dt, admissible, method)
        self.scheme = scheme
        self.method = method
        self.span, self.steps, self.dt = float(span), steps, dt
        self._window = window = max(row.tableau[0]) if row.tableau is not None else 1
        # rows interleave the coefficients of each slot's means and slope;
        # stage k's row covers stages 0 to k - 1
        self._stages = []
        times = [0.0]
        for stage in row.stages:
            coefs = [0.0] * (2 * len(times))
            tk = 0.0
            for j, a, b in stage:
                coefs[2 * j] += a
                coefs[2 * j + 1] += dt * b
                tk += a * times[j] + b
            times.append(tk)
            self._stages.append((np.array(coefs), tk * dt))
        # row k of _ms_rows is the multistep row of the step whose entry
        # lands in slot k: slot s then holds the entry (k - s - 1) % window + 1
        # steps back
        self._ms_rows = None
        if row.tableau is not None:
            alpha, beta = row.tableau
            by_lag = [(alpha.get(lag, 0.0), dt * beta.get(lag, 0.0))
                      for lag in range(1, window + 1)]
            self._ms_rows = np.array([
                [x for s in range(window) for x in by_lag[(k - s - 1) % window]]
                for k in range(window)])
        self._rows = None
        self.report = LimiterReport()

    def _entry(self, slot, u, t, means):
        """Write ``means`` and their slope at state ``u`` into ``slot``."""
        m = self._rows[slot, 0, ...]
        m[...] = means
        self._rows[slot, 1, ...] = self.scheme.rhs_means(u, t, means=m)

    def _recover(self, row, first, t):
        """Recover the state from the combination of the slots from ``first``
        on; return it and its means, which are the combination itself
        unless the limiter moved a point."""
        q = _combination(row, self._rows[first:first + row.size // 2])
        u, rep = self.scheme.recover(q, t)
        if not rep.modified_count:
            return u, q
        self.report = self.report.merge(rep)
        return u, self.scheme.means(u)

    def start(self, u0, t0=0.0):
        u0 = np.asarray(u0, dtype=float)
        m0 = self.scheme.means(u0)
        slots = self._window + len(self._stages) - 1
        self._rows = np.zeros((slots, 2) + np.shape(m0))
        self._t0 = t0
        self._k = 0
        self._entry(0, u0, t0, m0)
        self._u, self._t = u0, t0
        return self

    def _stage_step(self):
        start, base = self._k % self._window, self._window - 1
        if start != base:
            # a multistep priming step: the window is not full, so its last
            # slot is free until this step's entry
            self._rows[base] = self._rows[start]
        t = self._t
        last = len(self._stages)
        for j, (row, offset) in enumerate(self._stages, start=1):
            u, m = self._recover(row, base, t + offset)
            if j < last:
                self._entry(base + j, u, t + offset, m)
        return u, m

    def advance(self):
        """Advance one step and return the new state."""
        if self._rows is None:
            raise RuntimeError("integrator not started")
        k = self._k + 1
        slot = k % self._window
        if self._ms_rows is None or k < self._window:
            u, m = self._stage_step()
        else:
            u, m = self._recover(self._ms_rows[slot], 0, self._t + self.dt)
        self._k = k
        t = self.span * (k / self.steps) + self._t0
        self._entry(slot, u, t, m)
        self._u, self._t = u, t
        return u

    @property
    def state(self):
        return self._u

    @property
    def time(self) -> float:
        return self._t


def schedule_run(scheme, method: str, T: float, dt_fe: float | None = None):
    """The unstarted integrator of a run of ``T`` with ``method``.

    Its step is the largest that divides ``T`` and is at most the
    method's ``schedule`` share of ``dt_fe`` (up to round-off), which
    defaults to the scheme's admissible forward-Euler step.
    """
    row = _method(method)
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be positive and finite, got T = {T}")
    if dt_fe is None:
        dt_fe = scheme.admissible_dt_fe()
    elif not dt_fe > 0:  # NaN fails too; inf sets no limit
        raise ValueError(f"dt_fe must be positive, got dt_fe = {dt_fe}")
    steps = max(1, math.ceil(T / (row.schedule * dt_fe) * (1.0 - 1e-12)))
    return SspIntegrator(scheme, method, T, steps)
