"""Every scheme class speaks one protocol.

``euler_step(u, dt, t)`` is one forward-Euler step of the integrator, the
scheme and the integrator refuse the same inadmissible ``dt``, and the
methods the benchmark's tracer wraps by name are defined on each traced
class itself, not only inherited from the shared base.
"""

import numpy as np
import pytest

from compactbp.boundary import DirichletConvDiffScheme, InflowOutflowScheme
from compactbp.harness import RunConfig, build_scheme
from compactbp.schemes1d import CflError, PeriodicScheme1D
from compactbp.schemes2d import PeriodicScheme2D
from compactbp.timeint import IntegratorSpec, SspIntegrator

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
    _, scheme, dt = build_scheme(config, config.n)
    return scheme, dt


@pytest.mark.parametrize("problem, order, cls", SCHEMES)
def test_euler_step_is_one_integrator_step(problem, order, cls):
    scheme, dt = _built(problem, order)
    assert type(scheme) is cls
    u0, t0 = scheme.initial_state()
    for t in (t0, t0 + 3 * dt):
        u_step, _, _ = scheme.euler_step(u0, dt, t)
        u_integ = SspIntegrator(scheme, IntegratorSpec("fe"), dt).start(u0, t).advance()
        assert np.array_equal(u_step.view(np.int64), u_integ.view(np.int64))


@pytest.mark.parametrize("problem, order, cls", SCHEMES)
def test_inadmissible_dt_is_refused_by_both(problem, order, cls):
    scheme, _ = _built(problem, order)
    u0, _ = scheme.initial_state()
    dt = scheme.admissible_dt_fe() * (1.0 + 1e-6)
    with pytest.raises(CflError):
        scheme.euler_step(u0, dt)
    with pytest.raises(CflError):
        SspIntegrator(scheme, IntegratorSpec("fe"), dt)


@pytest.mark.parametrize("cls", TRACED)
def test_traced_methods_are_defined_on_the_class(cls):
    for name in ("means", "rhs_means", "recover"):
        assert name in vars(cls)
