"""Time integrator order conditions, SSP coefficients and driver behavior."""

import math

import numpy as np
import pytest

from compactbp.limiters import LimiterReport
from compactbp.schemes1d import CflError, PeriodicScheme1D, StepContext
from compactbp.problems import builtin
from compactbp.timeint import (MS4_ALPHA, MS4_BETA, MS4_STEPS, RK54_STAGES,
                               SSP_COEFF_MS4, SSP_COEFF_RK4, IntegratorSpec,
                               RK54_TIMES, SspIntegrator, integrate_to)


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


def shu_osher_to_butcher():
    """Expand the staged combinations into Butcher arrays (validation only)."""
    s = len(RK54_STAGES)
    A = np.zeros((s + 1, s))
    for i, terms in enumerate(RK54_STAGES, start=1):
        for j, a, b in terms:
            A[i] += a * A[j]
            A[i, j] += b
    return A[1:s, :s - 1 + 1], A[s]  # stage rows, final weights


class TestMultistepTableau:
    def test_consistency_and_order_conditions(self):
        # exactness on t^k, k = 0..4:
        # sum alpha_i (-i)^k + k beta_i (-i)^(k-1) = delta_{k0}
        for k in range(5):
            res = sum(a * (-i) ** k for i, a in MS4_ALPHA.items())
            if k >= 1:
                res += sum(k * b * (-i) ** (k - 1) for i, b in MS4_BETA.items())
            res -= 1.0 if k == 0 else 0.0
            assert abs(res) < 1e-12

    def test_nonnegative_and_ssp_coefficient(self):
        assert all(a >= 0 for a in MS4_ALPHA.values())
        assert all(b >= 0 for b in MS4_BETA.values())
        ratio = min(MS4_ALPHA[i] / MS4_BETA[i] for i in MS4_BETA)
        # the optimal six-step ratio rounds to the quoted 0.1648
        assert ratio == pytest.approx(0.164759, abs=1e-5)
        assert abs(SSP_COEFF_MS4 - 0.1648) < 1e-12
        # the quoted schedule constant never exceeds the true ratio by more
        # than round-off of the fourth digit
        assert SSP_COEFF_MS4 <= ratio * 1.0003


class TestRungeKuttaTableau:
    def test_stage_consistency(self):
        for terms in RK54_STAGES:
            assert sum(a for _, a, _ in terms) == pytest.approx(1.0, abs=2e-15)

    def test_butcher_order_conditions(self):
        A_stage, b = shu_osher_to_butcher()
        s = len(b)
        A = np.zeros((s, s))
        A[1:, :] = A_stage[:, :s]
        c = A.sum(axis=1)
        e = np.ones(s)
        conds = {
            "p1": b @ e - 1.0,
            "p2": b @ c - 1 / 2,
            "p3a": b @ c ** 2 - 1 / 3,
            "p3b": b @ (A @ c) - 1 / 6,
            "p4a": b @ c ** 3 - 1 / 4,
            "p4b": (b * c) @ (A @ c) - 1 / 8,
            "p4c": b @ (A @ c ** 2) - 1 / 12,
            "p4d": b @ (A @ (A @ c)) - 1 / 24,
        }
        for name, res in conds.items():
            assert abs(res) < 1e-12, name

    def test_ssp_coefficient(self):
        ratios = [a / bb for terms in RK54_STAGES for _, a, bb in terms if bb > 0]
        assert min(ratios) == pytest.approx(1.50818, abs=1e-4)
        assert abs(SSP_COEFF_RK4 - 1.508) < 1e-12

    def test_stage_times_end_at_one(self):
        assert RK54_TIMES[0] == 0.0
        assert RK54_TIMES[-1] == pytest.approx(1.0, abs=1e-12)


class TestOdeOrders:
    def _solve(self, method, f, u0, T, nsteps):
        scheme = OdeScheme(f)
        spec = IntegratorSpec(method=method)
        integ = SspIntegrator(scheme, spec, T / nsteps).start(np.array(u0))
        for _ in range(nsteps):
            integ.advance()
        return float(integ.state)

    def test_zero_rhs_fixed_point(self):
        # multistep/stage recombination rounds at each add, so "unchanged"
        # means unchanged to accumulation-level round-off
        for method in ("fe", "rk4", "ms4"):
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

    def test_single_step_when_T_equals_dt(self):
        scheme, dt = self._scheme()
        state, log, _ = integrate_to(scheme, dt, IntegratorSpec("ms4"), dt=dt)
        assert len(log) == 1
        assert log[-1] == pytest.approx(dt, rel=1e-15)

    def test_log_times_hit_T_exactly(self):
        scheme, dt = self._scheme()
        T = 0.37
        state, log, _ = integrate_to(scheme, T, IntegratorSpec("ms4"), dt=dt)
        assert log[-1] == T  # exact, not approximate
        assert len(log) == int(np.ceil(T / dt))

    def test_full_period_returns_to_initial(self):
        scheme, dt = self._scheme(n=100)
        T = 2 * np.pi  # one revolution at unit speed
        state, log, _ = integrate_to(scheme, T, IntegratorSpec("ms4"), dt=dt)
        u0, _ = scheme.initial_state()
        l1 = scheme.ctx.dx * np.abs(state - u0).sum()
        assert l1 < 5e-4  # bounded by the discretization error

    def test_dt_too_large_raises(self):
        scheme, dt = self._scheme()
        with pytest.raises(CflError):
            SspIntegrator(scheme, IntegratorSpec("ms4"), 10 * dt)

    def test_unstarted_integrator(self):
        scheme, dt = self._scheme()
        with pytest.raises(RuntimeError):
            SspIntegrator(scheme, IntegratorSpec("ms4"), dt).advance()

    def test_advance_function_fallback(self):
        # a bare state carries no history window: the multistep selection
        # falls back to the Runge-Kutta priming step
        scheme, dt = self._scheme()
        u0, _ = scheme.initial_state()
        out = SspIntegrator(scheme, IntegratorSpec("ms4"), dt).start(u0).advance()
        assert out.shape == u0.shape
        assert np.isfinite(out).all()

    def test_ms_priming_window(self):
        scheme, dt = self._scheme()
        integ = SspIntegrator(scheme, IntegratorSpec("ms4"), dt)
        u0, _ = scheme.initial_state()
        integ.start(u0)
        for _ in range(MS4_STEPS + 2):
            integ.advance()
        assert len(integ._hist) == MS4_STEPS

    def test_stage_limited_states_stay_bounded(self):
        scheme, dt = self._scheme(n=64)
        bounds = scheme.bounds
        integ = SspIntegrator(scheme, IntegratorSpec("rk4"), 5 * dt)
        u0, _ = scheme.initial_state()
        integ.start(u0)
        for _ in range(30):
            u = integ.advance()
            assert u.min() >= bounds.lower - 1e-13
            assert u.max() <= bounds.upper + 1e-13
