"""Recovery checks the right-hand side of each solve as the limiter's means.

Each level of a recovery solves ``W x = rhs``; the right-hand side is the
set of weighted means of ``x`` that weak monotonicity keeps inside the
bounds, so ``recover`` hands it to the limiter instead of re-weighting
``x``.  A mean pushed out of the bounds must still fail, naming its index,
and a multistep step must not weight anything twice.  Only the first
level's means are checked: a later level's means are the previous
level's limited output, so it calls the limiter only when its solution
leaves the bounds, with the same bits as limiting every level.

The integrator relies on the same fact one level up: when a recovery
moves no point, ``means(recover(q))`` is ``q`` up to round-off, so it
keeps ``q`` as the new state's means and calls ``means`` only after a
recovery that moved points.
"""

import sys

import numpy as np
import pytest

from compactbp import limiters, operators
from compactbp.boundary import CORNER_WEIGHT, DirichletConvDiffScheme, InflowOutflowScheme
from compactbp.harness import RunConfig, build_scheme
from compactbp.limiters import LimiterReport, WeakMonotonicityError
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

def _count_calls(monkeypatch, names, source=operators):
    """Count calls of ``source`` functions in every namespace that binds them."""
    counts = dict.fromkeys(names, 0)
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "compactbp" or k.startswith("compactbp."))]
    for name in names:
        fn = getattr(source, name)

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


@pytest.mark.parametrize("kwargs, n, calls", [
    # the first level checks the combination; the later level's solution
    # stays in the bounds, so it calls no limiter
    (dict(problem="linadv-sin4-half", order=8), 40, 1),
    (dict(problem="dirichlet-convdiff"), 40, 1),
    # one level, limited every step
    (dict(problem="linadv-step", order=4, tvb=5.0), 40, 1),
    # both levels move points every step
    (dict(problem="2d-pme-m3"), 16, 2),
], ids=["linadv-sin4-half-8", "dirichlet-convdiff", "linadv-step-tvb", "2d-pme-m3"])
def test_limiter_calls_per_multistep_step(monkeypatch, kwargs, n, calls):
    # each recovery checks its means once, at the first level; a later
    # level calls the limiter only when its solution leaves the bounds.
    # Every step calls it at least once, as the benchmark's trace needs.
    config = RunConfig(n=n, T=0.5, bp_limiter=True, integrator="ms4", **kwargs)
    _, scheme, integ = build_scheme(config, n)
    integ.start(*scheme.initial_state())
    window = max(METHODS["ms4"].tableau[0])
    for _ in range(window - 1):
        integ.advance()
    counts = _count_calls(monkeypatch, ["limit_bounds", "limit_bounds_segment"], limiters)
    moves = kwargs["problem"] in ("linadv-step", "2d-pme-m3")
    for _ in range(3):
        called, modified = sum(counts.values()), integ.report.modified_count
        integ.advance()
        assert sum(counts.values()) - called == calls
        assert (integ.report.modified_count > modified) == moves


# ---------------------------------------------------------------------------
# One check of the means per recovery, bit for bit the limit-every-level cascade
# ---------------------------------------------------------------------------

def _cascade(q, levels, bounds):
    """Recovery that limits after every level's solve; the state, the
    merged report, and per later level whether its solution was in range."""
    x = np.asarray(q, dtype=float)
    report, in_range = LimiterReport(), []
    lo, hi = bounds.span
    for level, (c, axis) in enumerate(levels):
        rhs = x
        x = operators.solve_weighting(c, rhs, axis=axis)
        if level:
            in_range.append(bool(lo <= x.min() and x.max() <= hi))
        x, rep = limiters.limit_bounds(x, bounds, c, axis=axis, means=rhs)
        report = report.merge(rep)
    return x, report, in_range


def _dirichlet_cascade(scheme, q):
    """The Dirichlet recovery with the limiter after both of its solves."""
    bounds, kappa = scheme.bounds, CORNER_WEIGHT
    u_left, u_right = scheme.problem.left_value(0.0), scheme.problem.right_value(0.0)
    w = q.copy()
    w[0] = kappa * w[0] + (1.0 - kappa) * u_left
    w[-1] = kappa * w[-1] + (1.0 - kappa) * u_right
    v = operators.solve_open_weighting(10.0, w, edge_rows=True)
    v, report = limiters.limit_bounds_segment(v, bounds, 10.0, edge_rows=True, means=w)
    rhs = v.copy()
    rhs[0] -= u_left / 6.0
    rhs[-1] -= u_right / 6.0
    x = operators.solve_open_weighting(4.0, rhs)
    in_range = [bool(bounds.lower <= x.min() and x.max() <= bounds.upper)]
    x, rep = limiters.limit_bounds_segment(x, bounds, 4.0, left=u_left, right=u_right, means=v)
    return np.concatenate(([u_left], x, [u_right])), report.merge(rep), in_range


#: periodic 1D at orders 4, 6 and 8 (convdiff-lin has four levels from
#: order 6 on), 2D, and Dirichlet (its c = 4 level follows the c = 10 one)
CASCADE_CASES = [
    dict(problem="convdiff-lin", order=4),
    dict(problem="linadv-sin4", order=6),
    dict(problem="convdiff-lin", order=6),
    dict(problem="linadv-sin4-half", order=8),
    dict(problem="convdiff-lin", order=8),
    dict(problem="2d-linadv"),
    dict(problem="2d-pme-m3"),
    dict(problem="2d-convdiff"),
    dict(problem="dirichlet-convdiff"),
]


@pytest.mark.parametrize("kwargs", CASCADE_CASES, ids=lambda kw: "-".join(map(str, kw.values())))
def test_recover_matches_limit_every_level(kwargs):
    # each q is a random convex combination of forward-Euler updates of
    # one state at fractions of the admissible step, so admissible.  Small
    # random perturbations of the middle of the bounds leave every later
    # level in range; random states across the bounds, and the initial
    # state (the porous medium's support edge), push some out
    n = 12 if kwargs["problem"].startswith("2d") else 24
    config = RunConfig(n=n, T=0.5, bp_limiter=True, **kwargs)
    _, scheme, _ = build_scheme(config, n)
    dt = scheme.admissible_dt_fe()
    u0 = scheme.initial_state()[0]
    lo, hi = scheme.bounds.span
    rng = np.random.default_rng(2)
    mid = np.full(u0.shape, (lo + hi) / 2)
    branches = set()
    for u in [u0, u0] + [mid + s * (hi - lo) * (rng.random(u0.shape) - 0.5)
                         for s in (0.1, 0.1) + (1,) * 10]:
        m = scheme.means(u)
        r = scheme.rhs_means(u, 0.0, means=m)
        weights = rng.random(3)
        q = sum(w * (m + rng.random() * dt * r) for w in weights / weights.sum())
        if isinstance(scheme, DirichletConvDiffScheme):
            ref, ref_report, in_range = _dirichlet_cascade(scheme, q)
        else:
            ref, ref_report, in_range = _cascade(q, scheme.levels, scheme.bounds)
        v, report = scheme.recover(q, 0.0)
        assert v.dtype == ref.dtype and v.shape == ref.shape
        assert v.tobytes() == ref.tobytes()
        assert report == ref_report
        branches.update(in_range)
    assert branches == {True, False}  # a later level skipped, and one limited


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
