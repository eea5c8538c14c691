"""SSP time integration driving the mean-update / recovery schemes.

Provides forward Euler, the optimal six-step fourth-order SSP multistep
method and the five-stage fourth-order SSP Runge-Kutta method.  Both high
order methods are convex combinations of forward-Euler substeps, so every
property the Euler step guarantees for the weighted means (in particular
bound preservation under the CFL constraint) carries over when the time
step is shrunk by the method's SSP coefficient.

The limiter runs after every stage of the Runge-Kutta method and once per
step of the multistep method; per-stage limiting in Runge-Kutta methods
may reduce the observed convection order because inner stages are
low-order approximations in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .limiters import LimiterReport
from .schemes1d import check_dt

# Six-step fourth-order SSP multistep method (optimal nonnegative-beta
# tableau; its SSP coefficient is the real root of 100 x^3 + 25 x^2 + 66 x
# - 12, about 0.16476, quoted as 0.1648).  u^{n+1} combines the states and
# slopes at the given lags.
MS4_ALPHA = {
    1: 0.342460855717012075984103013045,
    4: 0.191798259434736072591570614134,
    5: 0.093562124939009442534449960677,
    6: 0.372178759909242408889876412145,
}
MS4_BETA = {
    1: 2.078553105578055306087676550430,
    4: 1.164112222279692927035746180770,
    5: 0.567871749748709799238471014632,
}
MS4_STEPS = 6
SSP_COEFF_MS4 = 0.1648

# Five-stage fourth-order SSP Runge-Kutta method in Shu-Osher form: each
# stage is sum_j alpha u^(j) + dt beta F(u^(j)); SSP coefficient 1.508.
RK54_STAGES = (
    ((0, 1.0, 0.391752226571890),),
    ((0, 0.444370493651235, 0.0), (1, 0.555629506348765, 0.368410593050371)),
    ((0, 0.620101851488403, 0.0), (2, 0.379898148511597, 0.251891774271694)),
    ((0, 0.178079954393132, 0.0), (3, 0.821920045606868, 0.544974750228521)),
    ((2, 0.517231671970585, 0.0), (3, 0.096059710526147, 0.063692468666290),
     (4, 0.386708617503269, 0.226007483236906)),
)
SSP_COEFF_RK4 = 1.508


def _stage_times(stages) -> tuple[float, ...]:
    """Time abscissae (in units of dt) of Shu-Osher stages."""
    c = [0.0]
    for terms in stages:
        c.append(sum(a * c[j] + b for j, a, b in terms))
    return tuple(c)


#: Time abscissae (in units of dt) of the RK54 stages, the last one 1.
RK54_TIMES = _stage_times(RK54_STAGES)


#: method -> (SSP coefficient, schedule factor).  The schedule factor is
#: the share of the admissible forward-Euler step a run takes: the full
#: step for forward Euler, the SSP coefficient for the multistep method,
#: and five times that for Runge-Kutta (the same number of spatial
#: operator evaluations per unit time; its SSP coefficient leaves margin).
METHODS = {
    "fe": (1.0, 1.0),
    "ms4": (SSP_COEFF_MS4, SSP_COEFF_MS4),
    "rk4": (SSP_COEFF_RK4, 5.0 * SSP_COEFF_MS4),
}


def step_count(T: float, dt: float) -> int:
    """Steps of at most ``dt`` (up to round-off) that cover ``T`` exactly."""
    return max(1, math.ceil(T / dt * (1.0 - 1e-12)))


@dataclass(frozen=True)
class IntegratorSpec:
    """Method selection.

    The multistep startup uses Runge-Kutta priming steps at the same dt,
    and the limiter runs after every Runge-Kutta stage.
    """

    method: str = "ms4"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def ssp_coefficient(self) -> float:
        return METHODS[self.method][0]

    @property
    def schedule_factor(self) -> float:
        return METHODS[self.method][1]


class SspIntegrator:
    """Stateful driver: owns the time step, clock and history of one solve.

    The clock is exact: step ``k`` ends at ``t0 + span * (k / steps)``
    with ``dt = span / steps``.  ``SspIntegrator(scheme, spec, dt)`` has
    ``span = dt`` and ``steps = 1``; :meth:`spanning` builds one that
    covers a given time in a given number of steps.
    """

    def __init__(self, scheme, spec: IntegratorSpec, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.scheme = scheme
        self.spec = spec
        self.dt = float(dt)
        check_dt(self.dt, spec.ssp_coefficient * scheme.admissible_dt_fe(), spec.method)
        self._span = (self.dt, 1)
        self._hist: list[tuple] = []  # (state, means, rhs, t), newest last
        self.report = LimiterReport()

    @classmethod
    def spanning(cls, scheme, spec: IntegratorSpec, T: float, steps: int):
        """An integrator whose ``steps``-th step ends at ``t0 + T`` exactly."""
        integ = cls(scheme, spec, T / steps)
        integ._span = (T, steps)
        return integ

    def _entry(self, u, t):
        m = self.scheme.means(u)
        return (u, m, self.scheme.rhs_means(u, t, means=m), t)

    def start(self, u0, t0=0.0):
        self._t0 = t0
        self._k = 0
        self._hist = [self._entry(np.asarray(u0, dtype=float), t0)]
        return self

    def _rk_step(self):
        u0, m0, r0, t = self._hist[-1]
        dt = self.dt
        stages = [(m0, r0)]
        u_stage = u0
        for k, terms in enumerate(RK54_STAGES, start=1):
            q = 0.0
            for j, a, b in terms:
                mj, rj = stages[j]
                q = q + a * mj + dt * b * rj
            t_stage = t + RK54_TIMES[k] * dt
            u_stage, rep = self.scheme.recover(q, t_stage)
            self.report = self.report.merge(rep)
            if k < len(RK54_STAGES):
                m = self.scheme.means(u_stage)
                stages.append((m, self.scheme.rhs_means(u_stage, t_stage, means=m)))
        return u_stage

    def _ms_step(self):
        dt = self.dt
        q = 0.0
        for lag, a in MS4_ALPHA.items():
            q = q + a * self._hist[-lag][1]
        for lag, b in MS4_BETA.items():
            q = q + dt * b * self._hist[-lag][2]
        u_new, rep = self.scheme.recover(q, self._hist[-1][3] + dt)
        self.report = self.report.merge(rep)
        return u_new

    def advance(self):
        """Advance one step and return the new state."""
        if not self._hist:
            raise RuntimeError("integrator not started")
        method = self.spec.method
        if method == "fe":
            u, m, r, t = self._hist[-1]
            u_new, rep = self.scheme.recover(m + self.dt * r, t + self.dt)
            self.report = self.report.merge(rep)
        elif method == "rk4" or len(self._hist) < MS4_STEPS:
            # the multistep method primes its history window with
            # Runge-Kutta steps at the same dt
            u_new = self._rk_step()
        else:
            u_new = self._ms_step()
        self._k += 1
        span, steps = self._span
        self._hist.append(self._entry(u_new, span * (self._k / steps) + self._t0))
        if len(self._hist) > MS4_STEPS:
            self._hist.pop(0)
        return u_new

    @property
    def state(self):
        return self._hist[-1][0]

    @property
    def time(self) -> float:
        return self._hist[-1][3]


def integrate_to(scheme, T: float, spec: IntegratorSpec, *, dt: float):
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
    integ = SspIntegrator.spanning(scheme, spec, T, nsteps).start(u0, t0)
    log = []
    for _ in range(nsteps):
        integ.advance()
        log.append(integ.time)
    return integ.state, log, integ.report
