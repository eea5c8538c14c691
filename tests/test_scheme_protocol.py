"""Every scheme class speaks one protocol.

A scheme has no stepping method of its own: forward Euler is the ``fe``
row of the integrator, which refuses an inadmissible ``dt`` however it
is built.  Every scheme's admissible step is its hand formula, and the
methods the benchmark's tracer wraps by name are defined on each traced
class itself, not only inherited from the shared base.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from compactbp.boundary import DirichletConvDiffScheme, InflowOutflowScheme
from compactbp.harness import RunConfig, build_scheme
from compactbp.limiters import Bounds
from compactbp.problems import builtin
from compactbp.schemes1d import PeriodicScheme1D, Problem1D, StepContext
from compactbp.schemes2d import PeriodicScheme2D, Problem2D, StepContext2D
from compactbp.timeint import CflError, SspIntegrator, schedule_run

SCHEMES = [
    ("linadv-sin4-half", 8, PeriodicScheme1D),
    ("2d-pme-m3", 4, PeriodicScheme2D),
    ("inflow-burgers", 4, InflowOutflowScheme),
    ("dirichlet-convdiff", 4, DirichletConvDiffScheme),
]
TRACED = (PeriodicScheme1D, PeriodicScheme2D, DirichletConvDiffScheme)


def _built(problem, order):
    config = RunConfig(problem=problem, order=order, integrator="fe", n=12, T=0.01,
                       bp_limiter=True)
    _, scheme, integ = build_scheme(config, config.n)
    return scheme, integ.dt


@pytest.mark.parametrize("problem, order, cls", SCHEMES)
def test_inadmissible_dt_is_refused_by_both(problem, order, cls):
    # both ways to build an integrator: directly, and scheduled for a run
    # from a forward-Euler step beyond the admissible one
    scheme, _ = _built(problem, order)
    assert type(scheme) is cls
    dt = scheme.admissible_dt_fe() * (1.0 + 1e-6)
    with pytest.raises(CflError):
        SspIntegrator(scheme, "fe", dt)
    with pytest.raises(CflError):
        schedule_run(scheme, "fe", 100 * dt, dt_fe=dt)


def test_rhs_means_takes_the_callers_means():
    # the TVB flux limits against the means it is given, and every caller
    # that has just weighted a state passes them on: one weighting per
    # forward-Euler step, Runge-Kutta stage and history entry
    config = RunConfig(problem="linadv-step", order=4, tvb=5.0, integrator="fe",
                       n=40, T=0.01, bp_limiter=True)
    _, scheme, integ = build_scheme(config, config.n)
    dt = integ.dt
    u0, _ = scheme.initial_state()
    m = scheme.means(u0)
    own = scheme.rhs_means(u0, 0.0)
    assert np.array_equal(scheme.rhs_means(u0, 0.0, means=m).view(np.int64), own.view(np.int64))
    assert not np.array_equal(scheme.rhs_means(u0, 0.0, means=np.roll(m, 3)), own)
    calls = []
    weigh = scheme.means
    scheme.means = lambda u: calls.append(1) or weigh(u)
    SspIntegrator(scheme, "fe", dt).start(u0).advance()
    assert len(calls) == 2  # the start entry; the new one, whose recovery moved points
    calls.clear()
    SspIntegrator(scheme, "rk4", dt).start(u0).advance()
    assert len(calls) == 6  # the start entry, four inner stages, the new entry


@pytest.mark.parametrize("cls", TRACED)
def test_traced_methods_are_defined_on_the_class(cls):
    for name in ("means", "rhs_means", "recover"):
        assert name in vars(cls)


# Weak-monotonicity constants of the periodic schemes at the default
# family parameters: convection dt max|f'|/dx and diffusion dt max a'/dx^2.
CONV_CFL = {4: F(1, 3), 6: F(6, 23), 8: F(6, 25)}
DIFF_CFL = {4: F(5, 12), 6: F(124, 237), 8: F(131, 265)}
MAXF, MAXA, DX = 1.5, 0.7, 0.05


def _periodic_1d(order, convection, diffusion):
    prob = Problem1D(name="p", x_lo=0.0, x_hi=1.0, bounds=Bounds(-1.0, 1.0),
                     initial=np.sin,
                     flux=(lambda u: u) if convection else None,
                     max_fprime=MAXF if convection else 0.0,
                     diffusion=(lambda u: u) if diffusion else None,
                     max_aprime=MAXA if diffusion else 0.0)
    return PeriodicScheme1D(prob, StepContext.create(DX, order))


def _periodic_2d(convection, diffusion):
    dx, dy = 0.1, 0.08
    prob = Problem2D(name="p2", x_lo=0.0, x_hi=1.0, y_lo=0.0, y_hi=1.0,
                     bounds=Bounds(-1.0, 1.0), initial=lambda x, y: x,
                     flux_x=(lambda u: u) if convection else None,
                     max_fprime=1.5 if convection else 0.0,
                     max_gprime=0.5 if convection else 0.0,
                     diffusion_x=(lambda u: u) if diffusion else None,
                     max_aprime=0.7 if diffusion else 0.0,
                     max_bprime=0.3 if diffusion else 0.0)
    return PeriodicScheme2D(prob, StepContext2D(dx, dy))


def _boundary(cls, problem, dx):
    return cls(builtin(problem), StepContext.create(dx, 4))


CONV_2D = float(F(1, 3)) / (1.5 / 0.1 + 0.5 / 0.08)
DIFF_2D = float(F(5, 12)) / (0.7 / 0.1 ** 2 + 0.3 / 0.08 ** 2)
DIRICHLET_CONV, DIRICHLET_DIFF = float(F(4, 19)), float(F(695, 1596))

# (id, scheme builder, hand formula of the admissible forward-Euler step)
ADMISSIBLE = [
    *[(f"periodic1d-o{k}-convection", lambda k=k: _periodic_1d(k, True, False),
       float(CONV_CFL[k]) * DX / MAXF) for k in (4, 6, 8)],
    *[(f"periodic1d-o{k}-diffusion", lambda k=k: _periodic_1d(k, False, True),
       float(DIFF_CFL[k]) * DX ** 2 / MAXA) for k in (4, 6, 8)],
    # both terms: the half-half split halves both constants
    *[(f"periodic1d-o{k}-convdiff", lambda k=k: _periodic_1d(k, True, True),
       0.5 * min(float(CONV_CFL[k]) * DX / MAXF, float(DIFF_CFL[k]) * DX ** 2 / MAXA))
      for k in (4, 6, 8)],
    ("2d-convection", lambda: _periodic_2d(True, False), CONV_2D),
    ("2d-diffusion", lambda: _periodic_2d(False, True), DIFF_2D),
    ("2d-convdiff", lambda: _periodic_2d(True, True), 0.5 * min(CONV_2D, DIFF_2D)),
    ("inflow-outflow", lambda: _boundary(InflowOutflowScheme, "inflow-burgers", 0.1),
     0.1 / (3 * 1.0)),
    # the Dirichlet constants hold jointly: a minimum, not halved; c = 1
    # and d = 0.01, so convection binds at dx = 0.1 and diffusion at 0.001
    ("dirichlet-convection-binds",
     lambda: _boundary(DirichletConvDiffScheme, "dirichlet-convdiff", 0.1),
     min(DIRICHLET_CONV * 0.1 / 1.0, DIRICHLET_DIFF * 0.1 ** 2 / 0.01)),
    ("dirichlet-diffusion-binds",
     lambda: _boundary(DirichletConvDiffScheme, "dirichlet-convdiff", 0.001),
     min(DIRICHLET_CONV * 0.001 / 1.0, DIRICHLET_DIFF * 0.001 ** 2 / 0.01)),
]


@pytest.mark.parametrize("build, expected", [case[1:] for case in ADMISSIBLE],
                         ids=[case[0] for case in ADMISSIBLE])
def test_admissible_dt_matches_hand_formula(build, expected):
    assert build().admissible_dt_fe() == pytest.approx(expected, rel=1e-15, abs=0)
