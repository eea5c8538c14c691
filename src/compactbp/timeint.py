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

The limiter runs after every stage and once per multistep step;
per-stage limiting in Runge-Kutta methods may reduce the observed
convection order because inner stages are low-order approximations in
time.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .limiters import LimiterReport
from .schemes1d import check_dt


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


def step_count(T: float, dt: float) -> int:
    """Steps of at most ``dt`` (up to round-off) that cover ``T`` exactly."""
    return max(1, math.ceil(T / dt * (1.0 - 1e-12)))


def _combine(terms, entries):
    """Sum ``c * entries[j][k]`` over the ``(c, j, k)`` terms, in order.

    Accumulates in place into a fresh array, with the same round-off as
    ``0.0 + c_0 x_0 + c_1 x_1 + ...``: the final ``+ 0.0`` turns a sum
    of ``-0.0`` terms into ``+0.0``, as the leading ``0.0`` does.
    """
    (c, j, k), *rest = terms
    q = np.multiply(c, entries[j][k])
    term = np.empty_like(q)
    for c, j, k in rest:
        np.multiply(c, entries[j][k], out=term)
        q += term
    q += 0.0
    return q


class SspIntegrator:
    """Stateful driver: owns the time step, clock and history of one solve.

    The clock is exact: step ``k`` ends at ``t0 + span * (k / steps)``
    with ``dt = span / steps``.  ``SspIntegrator(scheme, method, dt)`` has
    ``span = dt`` and ``steps = 1``; :meth:`spanning` builds one that
    covers a given time in a given number of steps.
    """

    def __init__(self, scheme, method: str, dt: float):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        if not math.isfinite(dt) or dt <= 0:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        row = METHODS[method]
        self.scheme = scheme
        self.method = method
        self.dt = dt = float(dt)
        check_dt(dt, row.ssp * scheme.admissible_dt_fe(), method)
        # (coefficient, entry, field) terms over (state, means, rhs, t)
        # entries, with dt folded into the slope coefficients
        self._stages = []  # (terms, stage time offset)
        times = [0.0]
        for stage in row.stages:
            terms, parts = [], []
            for j, a, b in stage:
                terms += (a, j, 1), (dt * b, j, 2)
                parts.append(a * times[j] + b)
            times.append(sum(parts))
            self._stages.append((terms, times[-1] * dt))
        self._tableau, self._window = None, 1
        if row.tableau is not None:
            alpha, beta = row.tableau
            self._tableau = [(a, -lag, 1) for lag, a in alpha.items()]
            self._tableau += [(dt * b, -lag, 2) for lag, b in beta.items()]
            self._window = max(alpha)
        self._span = (dt, 1)
        self._hist: list[tuple] = []  # (state, means, rhs, t), newest last
        self.report = LimiterReport()

    @classmethod
    def spanning(cls, scheme, method: str, T: float, steps: int):
        """An integrator whose ``steps``-th step ends at ``t0 + T`` exactly."""
        integ = cls(scheme, method, T / steps)
        integ._span = (T, steps)
        return integ

    def _entry(self, u, t):
        m = self.scheme.means(u)
        return (u, m, self.scheme.rhs_means(u, t, means=m), t)

    def _recover(self, q, t):
        u, rep = self.scheme.recover(q, t)
        self.report = self.report.merge(rep)
        return u

    def start(self, u0, t0=0.0):
        self._t0 = t0
        self._k = 0
        self._hist = [self._entry(np.asarray(u0, dtype=float), t0)]
        return self

    def _stage_step(self):
        entries = [self._hist[-1]]
        t = entries[0][3]
        last = len(self._stages) - 1
        for k, (terms, offset) in enumerate(self._stages):
            t_stage = t + offset
            u = self._recover(_combine(terms, entries), t_stage)
            if k < last:
                entries.append(self._entry(u, t_stage))
        return u

    def advance(self):
        """Advance one step and return the new state."""
        if not self._hist:
            raise RuntimeError("integrator not started")
        if self._tableau is None or len(self._hist) < self._window:
            u_new = self._stage_step()
        else:
            u_new = self._recover(_combine(self._tableau, self._hist),
                                  self._hist[-1][3] + self.dt)
        self._k += 1
        span, steps = self._span
        self._hist.append(self._entry(u_new, span * (self._k / steps) + self._t0))
        if len(self._hist) > self._window:
            self._hist.pop(0)
        return u_new

    @property
    def state(self):
        return self._hist[-1][0]

    @property
    def time(self) -> float:
        return self._hist[-1][3]


def integrate_to(scheme, T: float, method: str, *, dt: float):
    """Integrate from the scheme problem's initial data to time T.

    The target step ``dt`` is reduced to the nearest divisor of T so the
    multistep history keeps a constant step and the final time is hit
    exactly.  Returns ``(state, step_log, report)`` where ``step_log``
    lists the step times.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if not math.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    nsteps = step_count(T, dt)
    u0, t0 = scheme.initial_state()
    integ = SspIntegrator.spanning(scheme, method, T, nsteps).start(u0, t0)
    log = []
    for _ in range(nsteps):
        integ.advance()
        log.append(integ.time)
    return integ.state, log, integ.report
