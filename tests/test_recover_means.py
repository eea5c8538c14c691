"""Recovery checks the right-hand side of each solve as the limiter's means.

Each level of a recovery solves ``W x = rhs``; the right-hand side is the
set of weighted means of ``x`` that weak monotonicity keeps inside the
bounds, so ``recover`` hands it to the limiter instead of re-weighting
``x``.  A mean pushed out of the bounds must still fail, naming its index,
and a multistep step must not weight anything twice.

The integrator relies on the same fact one level up: when a recovery
moves no point, ``means(recover(q))`` is ``q`` up to round-off, so it
keeps ``q`` as the new state's means and calls ``means`` only after a
recovery that moved points.
"""

import sys

import numpy as np
import pytest

from compactbp import operators
from compactbp.boundary import DirichletConvDiffScheme, InflowOutflowScheme
from compactbp.harness import RunConfig, build_scheme
from compactbp.limiters import WeakMonotonicityError
from compactbp.problems import builtin
from compactbp.schemes1d import PeriodicScheme1D, StepContext
from compactbp.schemes2d import PeriodicScheme2D, StepContext2D
from compactbp.timeint import METHODS

PUSH = 1e-9  # far beyond the bounds' default slack of 1e-12


def _pushed(q, index, bounds, side):
    q = np.array(q, dtype=float)
    q[index] = bounds.upper + PUSH if side == "upper" else bounds.lower - PUSH
    return q


def _check(scheme, q, index, side, t=0.0):
    bad = _pushed(q, index, scheme.bounds, side)
    scheme.bp_limit = True
    with pytest.raises(WeakMonotonicityError) as err:
        scheme.recover(bad, t)
    assert err.value.index == index
    assert err.value.value == bad[index]
    scheme.bp_limit = False
    scheme.recover(bad, t)  # unlimited recovery checks nothing


@pytest.mark.parametrize("side", ["upper", "lower"])
@pytest.mark.parametrize("order", [4, 8])
def test_periodic_1d(order, side):
    prob = builtin("linadv-sin4")
    n = 32
    dx = prob.length / n
    scheme = PeriodicScheme1D(prob, StepContext.create(dx, order), n=n)
    _check(scheme, scheme.means(scheme.initial_state()[0]), 11, side)


@pytest.mark.parametrize("side", ["upper", "lower"])
@pytest.mark.parametrize("sweep_order", ["xy", "yx"])
@pytest.mark.parametrize("problem", ["2d-linadv", "2d-pme-m3"])
def test_periodic_2d(problem, sweep_order, side):
    # "yx" recovers the transposed means, sweeping the original y axis
    # first; the index is in the layout handed to recover
    prob = builtin(problem)
    nx, ny = 12, 10
    dx, dy = (prob.x_hi - prob.x_lo) / nx, (prob.y_hi - prob.y_lo) / ny
    scheme = PeriodicScheme2D(prob, StepContext2D(dx, dy), nx=nx, ny=ny)
    q = scheme.means(scheme.initial_state()[0])
    if sweep_order == "xy":
        _check(scheme, q, (7, 3), side)
    else:
        _check(scheme, q.T, (3, 7), side)


@pytest.mark.parametrize("side", ["upper", "lower"])
@pytest.mark.parametrize("index", [0, 9, 23])
def test_inflow_outflow(index, side):
    # the end means include the fixed end values: q, not the solve's
    # boundary-adjusted right-hand side, are the limiter's means
    prob = builtin("inflow-burgers")
    n = 24
    dx = prob.length / (n + 1)
    scheme = InflowOutflowScheme(prob, StepContext.create(dx, 4), n=n)
    _check(scheme, scheme.means(scheme.initial_state()[0]), index, side)


@pytest.mark.parametrize("side", ["upper", "lower"])
@pytest.mark.parametrize("index", [1, 9, 22])
def test_dirichlet(index, side):
    # interior means enter the c = 10 level unchanged (only the two end
    # rows mix in the boundary values)
    prob = builtin("dirichlet-convdiff")
    n = 24
    dx = prob.length / (n + 1)
    scheme = DirichletConvDiffScheme(prob, StepContext.create(dx, 4), n=n)
    _check(scheme, scheme.means(scheme.initial_state()[0]), index, side)


# ---------------------------------------------------------------------------
# Weightings and solves per multistep step
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, names):
    """Count calls of ``operators`` functions in every namespace that binds them."""
    counts = dict.fromkeys(names, 0)
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "compactbp" or k.startswith("compactbp."))]
    for name in names:
        fn = getattr(operators, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    return counts


@pytest.mark.parametrize("kwargs, applies, solves", [
    # the limiter moves no point in these steps, so the combination is
    # handed on as the means: no weighting at all
    (dict(problem="linadv-sin4-half", order=8), 0, 2),
    # means(u), which the TVB flux reuses: one weighting
    (dict(problem="linadv-step", order=4, tvb=5.0), 1, 1),
])
def test_weightings_per_multistep_step(monkeypatch, kwargs, applies, solves):
    config = RunConfig(n=40, T=0.5, bp_limiter=True, integrator="ms4", **kwargs)
    _, scheme, integ = build_scheme(config, config.n)
    integ.start(*scheme.initial_state())
    window = max(METHODS["ms4"].tableau[0])
    for _ in range(window - 1):  # Runge-Kutta steps fill the history window
        integ.advance()
    counts = _count_calls(monkeypatch, ["apply_weighting", "solve_weighting"])
    steps = 3
    for _ in range(steps):
        integ.advance()
    assert counts == {"apply_weighting": applies * steps, "solve_weighting": solves * steps}


# ---------------------------------------------------------------------------
# Means handed on by the integrator
# ---------------------------------------------------------------------------

#: every scheme class: periodic 1D at orders 4, 6 and 8 (with and without
#: TVB, convection and convection-diffusion), 2D, inflow-outflow, Dirichlet
HANDON_CASES = [
    dict(problem="linadv-sin4", order=4),
    dict(problem="linadv-step", order=4, tvb=5.0),
    dict(problem="linadv-sin4", order=6),
    dict(problem="linadv-sin4-half", order=8),
    dict(problem="convdiff-lin", order=8),
    dict(problem="2d-linadv"),
    dict(problem="2d-pme-m3"),
    dict(problem="2d-convdiff"),
    dict(problem="inflow-burgers"),
    dict(problem="dirichlet-convdiff"),
]

#: ``|means(recover(q)) - q| <= HANDON_ULPS * eps * max|q|``: each level's
#: solve and weighting round once per point; the worst seen over 30
#: random states per case and N in (12, 17, 40) was 5.5 (2D)
HANDON_ULPS = 16


@pytest.mark.parametrize("kwargs", HANDON_CASES, ids=lambda kw: "-".join(map(str, kw.values())))
@pytest.mark.parametrize("n", [12, 17, 40])
def test_unmodified_recovery_returns_its_means(kwargs, n):
    # an Euler step from random admissible states, recovered without
    # limiting (so unmodified, whatever the data)
    config = RunConfig(n=n, T=0.5, bp_limiter=False, **kwargs)
    _, scheme, integ = build_scheme(config, n)
    dt = integ.dt
    u0, t = scheme.initial_state()
    lo, hi = scheme.bounds.span
    rng = np.random.default_rng(n)
    eps = np.finfo(float).eps
    for u in [u0] + [lo + (hi - lo) * rng.random(u0.shape) for _ in range(5)]:
        m = scheme.means(u)
        q = m + dt * scheme.rhs_means(u, t, means=m)
        v, report = scheme.recover(q, t + dt)
        assert report.modified_count == 0
        assert np.abs(scheme.means(v) - q).max() <= HANDON_ULPS * eps * np.abs(q).max()


def _spy_means(scheme):
    """Count ``scheme.means`` calls (on the instance only)."""
    calls = []
    means = scheme.means
    scheme.means = lambda u: calls.append(1) or means(u)
    return calls


@pytest.mark.parametrize("kwargs, moving_steps", [
    # the limiter is (nearly) idle: (almost) no weighting once the window
    # is full; at order 8 it moves a point at round-off in 1 of the 20
    (dict(problem="linadv-sin4-half", order=8), range(0, 3)),
    (dict(problem="dirichlet-convdiff"), range(0, 1)),
    # the limiter moves points every step: one weighting per step
    (dict(problem="linadv-step", order=4, tvb=5.0), range(20, 21)),
])
def test_means_calls_per_multistep_step(kwargs, moving_steps):
    # a multistep step weights its new state only when its recovery moved
    # points, and then the stored means are exactly means(u)
    config = RunConfig(n=40, T=0.5, bp_limiter=True, integrator="ms4", **kwargs)
    _, scheme, integ = build_scheme(config, config.n)
    integ.start(*scheme.initial_state())
    window = max(METHODS["ms4"].tableau[0])
    for _ in range(window - 1):
        integ.advance()
    calls = _spy_means(scheme)
    moving = 0
    for k in range(window, window + 20):
        calls.clear()
        before = integ.report.modified_count
        integ.advance()
        moved = integ.report.modified_count > before
        moving += moved
        assert len(calls) == moved
        if moved:
            assert np.array_equal(integ._rows[k % window, 0], scheme.means(integ.state))
    assert moving in moving_steps
