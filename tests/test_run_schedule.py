"""The step and step count of a run to T, pinned bit for bit.

A run's step is the largest step of at most the method's schedule share
of the admissible forward-Euler step (or of the dx^2 step for
``dt_scale="dx2"``) that divides T.  The table holds ``dt`` as a hex
float and the number of steps for each integrator on every scheme class,
plus the dx^2 configuration of acceptance criterion 2; any change to how
the step is scheduled changes a row.
"""

import pytest

from compactbp.harness import RunConfig, run_level

_CASES = [
    (dict(problem="linadv-sin4", order=4, n=40, T=0.37), "fe", 8, "0x1.7ae147ae147aep-5"),
    (dict(problem="linadv-sin4", order=4, n=40, T=0.37), "ms4", 43, "0x1.19f50bab38ea5p-7"),
    (dict(problem="linadv-sin4", order=4, n=40, T=0.37), "rk4", 9, "0x1.50c83fb72ea62p-5"),
    (dict(problem="linadv-sin4", order=8, n=40, T=0.37), "fe", 10, "0x1.2f1a9fbe76c8bp-5"),
    (dict(problem="linadv-sin4", order=8, n=40, T=0.37), "ms4", 60, "0x1.94237fa89e60fp-8"),
    (dict(problem="linadv-sin4", order=8, n=40, T=0.37), "rk4", 12, "0x1.f92c5f92c5f93p-6"),
    (dict(problem="convdiff-lin", order=6, n=40, T=0.37), "fe", 19, "0x1.3f0e8d3447242p-6"),
    (dict(problem="convdiff-lin", order=6, n=40, T=0.37), "ms4", 110, "0x1.b8e0e85adb528p-9"),
    (dict(problem="convdiff-lin", order=6, n=40, T=0.37), "rk4", 22, "0x1.138c9138c9139p-6"),
    (dict(problem="2d-pme-m3", n=12, T=0.02), "fe", 3, "0x1.b4e81b4e81b4fp-8"),
    (dict(problem="2d-pme-m3", n=12, T=0.02), "ms4", 16, "0x1.47ae147ae147bp-10"),
    (dict(problem="2d-pme-m3", n=12, T=0.02), "rk4", 4, "0x1.47ae147ae147bp-8"),
    (dict(problem="inflow-burgers", n=40, T=0.2), "fe", 4, "0x1.999999999999ap-5"),
    (dict(problem="inflow-burgers", n=40, T=0.2), "ms4", 24, "0x1.1111111111111p-7"),
    (dict(problem="inflow-burgers", n=40, T=0.2), "rk4", 5, "0x1.47ae147ae147bp-5"),
    (dict(problem="dirichlet-convdiff", n=40, T=0.2), "fe", 7, "0x1.d41d41d41d41ep-6"),
    (dict(problem="dirichlet-convdiff", n=40, T=0.2), "ms4", 38, "0x1.58ed2308158edp-8"),
    (dict(problem="dirichlet-convdiff", n=40, T=0.2), "rk4", 8, "0x1.999999999999ap-6"),
    # acceptance criterion 2: the convection step scaled with dx^2
    (dict(problem="linadv-sin4-half", order=8, n=20, T=10.0, dt_scale="dx2"), "ms4",
     2562, "0x1.ff99ae10631f6p-9"),
    (dict(problem="linadv-sin4-half", order=8, n=40, T=10.0, dt_scale="dx2"), "ms4",
     10247, "0x1.ffa67611bce55p-11"),
]


def _id(case):
    kwargs, method = case[:2]
    return "-".join(str(v) for k, v in kwargs.items() if k not in ("n", "T")) + f"-{method}"


@pytest.mark.parametrize("kwargs, method, steps, dt", _CASES, ids=[_id(c) for c in _CASES])
def test_run_step_is_pinned(kwargs, method, steps, dt):
    result = run_level(RunConfig(integrator=method, bp_limiter=True, **kwargs), kwargs["n"])
    assert result["steps"] == steps
    assert result["dt"].hex() == dt
