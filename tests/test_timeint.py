"""Time integrator order conditions, SSP coefficients and driver behavior."""

import math
from fractions import Fraction

import numpy as np
import pytest

from compactbp.limiters import LimiterReport
from compactbp.schemes1d import PeriodicScheme1D, StepContext
from compactbp.problems import builtin
from compactbp.timeint import METHODS, CflError, SspIntegrator, _combination, schedule_run

#: the order of accuracy each METHODS row must reach
ORDERS = {"fe": 1, "rk4": 4, "ms4": 4}


class OdeScheme:
    """A plain ODE u' = f(u, t) on the scheme protocol: the means are the
    state itself, recovery is the identity and any step is admissible."""

    def __init__(self, f):
        self.f = f
        self.bp_limit = False

    def means(self, u):
        return u

    def rhs_means(self, u, t=0.0, means=None):
        return self.f(u, t)

    def recover(self, q, t=0.0):
        return q, LimiterReport()

    def admissible_dt_fe(self):
        return math.inf


def shu_osher_to_butcher(stages):
    """Expand the staged combinations into Butcher arrays (validation only)."""
    s = len(stages)
    A = np.zeros((s + 1, s))
    for i, terms in enumerate(stages, start=1):
        for j, a, b in terms:
            A[i] += a * A[j]
            A[i, j] += b
    return A[:s], A[s]  # stage rows (stage 0 is the step's start), final weights


def butcher_residuals(stages, order):
    """Residuals of the Runge-Kutta order conditions up to ``order`` <= 4."""
    A, b = shu_osher_to_butcher(stages)
    c = A.sum(axis=1)
    conds = {
        "p1": (1, b.sum() - 1.0),
        "p2": (2, b @ c - 1 / 2),
        "p3a": (3, b @ c ** 2 - 1 / 3),
        "p3b": (3, b @ (A @ c) - 1 / 6),
        "p4a": (4, b @ c ** 3 - 1 / 4),
        "p4b": (4, (b * c) @ (A @ c) - 1 / 8),
        "p4c": (4, b @ (A @ c ** 2) - 1 / 12),
        "p4d": (4, b @ (A @ (A @ c)) - 1 / 24),
    }
    return {name: res for name, (p, res) in conds.items() if p <= order}


def stage_times(stages):
    """Time abscissae (in units of dt) of Shu-Osher stages."""
    c = [0.0]
    for terms in stages:
        c.append(sum(a * c[j] + b for j, a, b in terms))
    return c


def ssp_ratio(row):
    """Smallest alpha/beta ratio over a row's stages and tableau."""
    pairs = [(a, b) for terms in row.stages for _, a, b in terms]
    if row.tableau is not None:
        alpha, beta = row.tableau
        pairs += [(alpha[lag], b) for lag, b in beta.items()]
    return min(a / b for a, b in pairs if b > 0)


class TestMultistepTableau:
    def test_consistency_and_order_conditions(self):
        # exactness on t^k, k = 0..p:
        # sum alpha_i (-i)^k + k beta_i (-i)^(k-1) = delta_{k0}
        alpha, beta = METHODS["ms4"].tableau
        for k in range(ORDERS["ms4"] + 1):
            res = sum(a * (-i) ** k for i, a in alpha.items())
            if k >= 1:
                res += sum(k * b * (-i) ** (k - 1) for i, b in beta.items())
            res -= 1.0 if k == 0 else 0.0
            assert abs(res) < 1e-12

    def test_nonnegative_and_ssp_coefficient(self):
        alpha, beta = METHODS["ms4"].tableau
        ratio = min(alpha[i] / beta[i] for i in beta)
        # the optimal six-step ratio rounds to the quoted 0.1648
        assert ratio == pytest.approx(0.164759, abs=1e-5)
        assert abs(METHODS["ms4"].ssp - 0.1648) < 1e-12


class TestRungeKuttaTableau:
    """Every METHODS row: its Shu-Osher stages, and its tableau if any."""

    def test_stage_consistency(self):
        for name, row in METHODS.items():
            for terms in row.stages:
                assert sum(a for _, a, _ in terms) == pytest.approx(1.0, abs=2e-15), name
            coeffs = [x for terms in row.stages for _, a, b in terms for x in (a, b)]
            if row.tableau is not None:
                coeffs += [x for part in row.tableau for x in part.values()]
            assert min(coeffs) >= 0, name

    def test_butcher_order_conditions(self):
        for name, row in METHODS.items():
            for cond, res in butcher_residuals(row.stages, ORDERS[name]).items():
                assert abs(res) < 1e-12, (name, cond)

    def test_ssp_coefficient(self):
        assert ssp_ratio(METHODS["rk4"]) == pytest.approx(1.50818, abs=1e-4)
        assert abs(METHODS["rk4"].ssp - 1.508) < 1e-12
        for name, row in METHODS.items():
            # the quoted ms4 constant exceeds the true ratio by no more than
            # round-off of its fourth digit
            slack = 1.0003 if name == "ms4" else 1.0
            assert row.ssp <= ssp_ratio(row) * slack, name
            # the step schedule_run schedules passes the integrator's check
            assert row.schedule <= row.ssp, name

    def test_stage_times_end_at_one(self):
        for name, row in METHODS.items():
            times = stage_times(row.stages)
            assert times[0] == 0.0
            assert times[-1] == pytest.approx(1.0, abs=1e-12), name


class TestOdeOrders:
    def _solve(self, method, f, u0, T, nsteps):
        scheme = OdeScheme(f)
        integ = SspIntegrator(scheme, method, T / nsteps).start(np.array(u0))
        for _ in range(nsteps):
            integ.advance()
        return float(integ.state)

    def test_zero_rhs_fixed_point(self):
        # multistep/stage recombination rounds at each add, so "unchanged"
        # means unchanged to accumulation-level round-off
        for method in METHODS:
            out = self._solve(method, lambda u, t: 0.0 * u, 0.7, 1.0, 12)
            assert out == pytest.approx(0.7, abs=5e-13)

    @pytest.mark.parametrize("method", ["rk4", "ms4"])
    def test_linear_decay_fourth_order(self, method):
        errs = []
        for nsteps in (40, 80):
            out = self._solve(method, lambda u, t: -u, 1.0, 1.0, nsteps)
            errs.append(abs(out - np.exp(-1.0)))
        assert 14 <= errs[0] / errs[1] <= 18

    @pytest.mark.parametrize("method", ["rk4", "ms4"])
    def test_nonlinear_fourth_order(self, method):
        errs = []
        for nsteps in (40, 80):
            out = self._solve(method, lambda u, t: u * u, 0.5, 1.0, nsteps)
            errs.append(abs(out - 1.0))
        assert 13 <= errs[0] / errs[1] <= 19

    def test_forward_euler_first_order(self):
        errs = []
        for nsteps in (64, 128):
            out = self._solve("fe", lambda u, t: -u, 1.0, 1.0, nsteps)
            errs.append(abs(out - np.exp(-1.0)))
        assert 1.9 <= errs[0] / errs[1] <= 2.1


class TestDriver:
    def _scheme(self, n=50, bp=True):
        problem = builtin("linadv-sin4")
        dx = problem.length / n
        dt = 0.1648 * dx / 3
        ctx = StepContext.create(dx, 4)
        return PeriodicScheme1D(problem, ctx, n=n, bp_limit=bp), dt

    @staticmethod
    def _times(integ):
        """Run ``integ`` from its scheme's initial data; the step end times."""
        integ.start(*integ.scheme.initial_state())
        times = []
        for _ in range(integ.steps):
            integ.advance()
            times.append(integ.time)
        return times

    def test_single_step_when_T_equals_dt(self):
        scheme, dt = self._scheme()
        integ = schedule_run(scheme, "ms4", dt)
        assert integ.steps == 1
        assert self._times(integ) == [dt]

    def test_log_times_hit_T_exactly(self):
        scheme, dt = self._scheme()
        T = 0.37
        integ = schedule_run(scheme, "ms4", T)
        times = self._times(integ)
        assert times[-1] == T  # exact, not approximate
        assert len(times) == integ.steps == int(np.ceil(T / dt))
        assert integ.dt == T / integ.steps

    def test_full_period_returns_to_initial(self):
        scheme, _ = self._scheme(n=100)
        T = 2 * np.pi  # one revolution at unit speed
        integ = schedule_run(scheme, "ms4", T)
        self._times(integ)
        u0, _ = scheme.initial_state()
        l1 = scheme.ctx.dx * np.abs(integ.state - u0).sum()
        assert l1 < 5e-4  # bounded by the discretization error

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_run_step_is_the_largest_divisor_of_T(self, method):
        # the step is at most the method's schedule share of the forward-
        # Euler step, and one step fewer would exceed it
        scheme, _ = self._scheme()
        T = 0.37
        for dt_fe in (None, 1e-3):
            target = METHODS[method].schedule * (dt_fe or scheme.admissible_dt_fe())
            integ = schedule_run(scheme, method, T, dt_fe)
            assert integ.dt <= target < T / (integ.steps - 1)

    def test_unlimited_step_takes_T_at_once(self):
        integ = schedule_run(OdeScheme(lambda u, t: -u), "rk4", 2.5)
        assert (integ.steps, integ.dt) == (1, 2.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_T_names_T(self, bad):
        scheme, _ = self._scheme()
        with pytest.raises(ValueError, match=f"T must be positive and finite, got T = {bad}"):
            schedule_run(scheme, "ms4", bad)

    def test_dt_too_large_raises(self):
        scheme, dt = self._scheme()
        with pytest.raises(CflError):
            SspIntegrator(scheme, "ms4", 10 * dt)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_dt_names_the_step(self, bad):
        scheme, _ = self._scheme()
        with pytest.raises(ValueError, match=f"dt must be positive and finite, got {bad}"):
            SspIntegrator(scheme, "ms4", bad)

    @pytest.mark.parametrize("bad", [0, -3, 2.5, 2.0, "2", None])
    def test_bad_steps_names_steps(self, bad):
        scheme, dt = self._scheme()
        with pytest.raises(ValueError, match=f"steps must be a positive integer, got steps = {bad!r}"):
            SspIntegrator(scheme, "fe", 3 * dt, steps=bad)

    def test_integer_steps_of_any_type(self):
        scheme, dt = self._scheme()
        integ = SspIntegrator(scheme, "ms4", 3 * dt, steps=np.int64(3))
        assert (integ.steps, integ.dt) == (3, 3 * dt / 3)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1e-3])
    def test_bad_dt_fe_names_dt_fe(self, bad):
        scheme, _ = self._scheme()
        with pytest.raises(ValueError, match=f"dt_fe must be positive, got dt_fe = {bad}"):
            schedule_run(scheme, "ms4", 1.0, dt_fe=bad)

    def test_unstarted_integrator(self):
        scheme, dt = self._scheme()
        with pytest.raises(RuntimeError):
            SspIntegrator(scheme, "ms4", dt).advance()

    def test_advance_function_fallback(self):
        # a bare state carries no history window: the multistep selection
        # falls back to the Runge-Kutta priming step
        scheme, dt = self._scheme()
        u0, _ = scheme.initial_state()
        out = SspIntegrator(scheme, "ms4", dt).start(u0).advance()
        assert out.shape == u0.shape
        assert np.isfinite(out).all()

    def test_unknown_method(self):
        scheme, dt = self._scheme()
        with pytest.raises(ValueError, match="unknown method 'rk9'"):
            SspIntegrator(scheme, "rk9", dt)
        with pytest.raises(ValueError, match="unknown method 'rk9'"):
            schedule_run(scheme, "rk9", 1.0)

    def test_ms_priming_window(self):
        # the history array holds one slot per history entry (ms4: its
        # six-step window) and one per inner Runge-Kutta stage; ms4 takes
        # Runge-Kutta steps until the window is full, then one recovery
        # per step
        scheme, dt = self._scheme()
        u0, _ = scheme.initial_state()
        windows = {"fe": 1, "rk4": 1, "ms4": 6}
        assert windows.keys() == METHODS.keys()
        calls = []
        recover = scheme.recover
        scheme.recover = lambda q, t: calls.append(t) or recover(q, t)
        for method, window in windows.items():
            stages = len(METHODS[method].stages)
            integ = SspIntegrator(scheme, method, dt).start(u0)
            assert integ._rows.shape == (window + stages - 1, 2) + u0.shape, method
            recovers = []
            for _ in range(8):
                calls.clear()
                integ.advance()
                recovers.append(len(calls))
            primed = window - 1 if METHODS[method].tableau else 8
            assert recovers == [stages] * primed + [1] * (8 - primed), method

    def test_stage_limited_states_stay_bounded(self):
        scheme, dt = self._scheme(n=64)
        bounds = scheme.bounds
        integ = SspIntegrator(scheme, "rk4", 5 * dt)
        u0, _ = scheme.initial_state()
        integ.start(u0)
        for _ in range(30):
            u = integ.advance()
            assert u.min() >= bounds.lower - 1e-13
            assert u.max() <= bounds.upper + 1e-13


class TestCombination:
    """One product of a coefficient row with a block of history slots."""

    @staticmethod
    def _slots(rng, rows, shape):
        x = rng.normal(size=(rows // 2, 2) + shape)
        flat = x.reshape(-1)
        flat[::3] = 0.0
        flat[1::4] = -0.0
        return x

    def test_matches_exact_sum(self):
        # against the exact rational sum: any summation order, with or
        # without fused multiply-adds, is within rows * eps * sum |c x|
        rng = np.random.default_rng(31)
        eps = np.finfo(float).eps
        for shape in ((40,), (8, 6), (6, 8), ()):
            for rows in (2, 4, 12):
                row = rng.uniform(-1, 1, rows)
                row[rng.random(rows) < 0.3] = 0.0
                slots = self._slots(rng, rows, shape)
                got = _combination(row, slots)
                assert got.shape == shape
                xs = slots.reshape(rows, -1)
                for i, value in enumerate(got.reshape(-1)):
                    exact = sum(Fraction(c) * Fraction(x) for c, x in zip(row, xs[:, i]))
                    scale = sum(abs(c * x) for c, x in zip(row, xs[:, i]))
                    assert abs(Fraction(value) - exact) <= rows * eps * scale

    def test_zero_terms_give_positive_zero(self):
        # every product is -0.0, and the sum +0.0, as 0.0 + c_0 x_0 + ... is
        for sign in (1.0, -1.0):
            row = sign * np.array([0.5, 2.0, 0.0, 3.0])
            slots = np.full((2, 2, 7), -0.0 * sign)
            assert np.signbit(row[:, None] * slots.reshape(4, -1)).all()
            got = _combination(row, slots)
            assert (got == 0.0).all() and not np.signbit(got).any()

    def test_leaves_slots_unchanged(self):
        rng = np.random.default_rng(4)
        slots = rng.normal(size=(3, 2, 5))
        before = slots.copy()
        _combination(rng.normal(size=6), slots)
        assert np.array_equal(slots, before)
