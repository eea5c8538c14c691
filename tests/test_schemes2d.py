"""2D tensorized scheme contracts: oracles, symmetry, bound preservation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compactbp.limiters import Bounds
from compactbp.operators import WeightOperator, apply_weighting
from compactbp.problems import builtin
from compactbp.schemes1d import CflError, PeriodicScheme1D, Problem1D, StepContext
from compactbp.schemes2d import (PeriodicScheme2D, Problem2D, StepContext2D,
                                 _dx_central, _dxx_central,
                                 euler_step_2d_convection,
                                 euler_step_2d_convdiff, max_stable_dt_2d)


def circulant(row, n, offsets):
    A = np.zeros((n, n))
    for off, val in zip(offsets, row):
        for i in range(n):
            A[i, (i + off) % n] += val
    return A


def grid(n, lo=0.0, hi=2 * np.pi):
    dx = (hi - lo) / n
    axis = lo + dx * np.arange(1, n + 1)
    return np.meshgrid(axis, axis, indexing="ij"), dx


class TestConvection2D:
    def _problem(self):
        return builtin("2d-linadv")

    def test_constant_state(self):
        prob = self._problem()
        ctx = StepContext2D(0.3, 0.3, 1e-3)
        u = np.full((8, 8), 0.75)
        u_new, q, _ = euler_step_2d_convection(u, ctx, prob, bp_limit=False)
        assert_allclose(u_new, u, atol=1e-14)
        assert_allclose(q, u, atol=1e-14)

    def test_y_constant_reduces_to_1d(self):
        # g = 0 and data constant in y: every x-line advances exactly like
        # the 1D convection scheme
        prob2d = Problem2D(name="x-only", x_lo=0, x_hi=2 * np.pi,
                           y_lo=0, y_hi=2 * np.pi, bounds=Bounds(0.0, 2.0),
                           initial=lambda x, y: 1 + np.sin(x),
                           flux_x=lambda u: u, max_fprime=1.0)
        n = 16
        (xx, yy), dx = grid(n)
        u0 = 1 + np.sin(xx)
        dt = 1e-3
        ctx = StepContext2D(dx, dx, dt)
        u2, q2, _ = euler_step_2d_convection(u0, ctx, prob2d, bp_limit=False)
        prob1d = Problem1D(name="1d", x_lo=0, x_hi=2 * np.pi, bounds=Bounds(0.0, 2.0),
                           initial=lambda x: 1 + np.sin(x),
                           flux=lambda u: u, max_fprime=1.0)
        scheme1d = PeriodicScheme1D(prob1d, StepContext.create(dx, dt, 4),
                                    bp_limit=False)
        line = u0[:, 0]
        q1 = scheme1d.means(line) + dt * scheme1d.rhs_means(line)
        u1, _ = scheme1d.recover(q1, limiting=False)
        for j in range(n):
            assert_allclose(u2[:, j], u1, atol=1e-13)

    def test_random_means_stay_bounded(self):
        prob = self._problem()
        n = 12
        _, dx = grid(n)
        dt = max_stable_dt_2d(prob, dx, dx)  # CFL-tight forward Euler step
        ctx = StepContext2D(dx, dx, dt)
        scheme = PeriodicScheme2D(prob, ctx, bp_limit=False)
        rng = np.random.default_rng(31)
        for _ in range(300):
            u = rng.uniform(0.0, 1.0, (n, n))
            q = scheme.means(u) + dt * scheme.rhs_means(u)
            assert q.min() >= -1e-13
            assert q.max() <= 1 + 1e-13

    def test_cfl_error(self):
        prob = self._problem()
        dx = 0.1
        dt = 1.1 * max_stable_dt_2d(prob, dx, dx)
        with pytest.raises(CflError):
            euler_step_2d_convection(np.full((8, 8), 0.6),
                                     StepContext2D(dx, dx, dt), prob)


class TestConvDiff2D:
    def test_pure_diffusion_constant(self):
        prob = builtin("2d-pme-m3")
        ctx = StepContext2D(0.25, 0.25, 1e-4)
        u = np.full((10, 10), 0.5)
        u_new, q, _ = euler_step_2d_convdiff(u, ctx, prob, bp_limit=False)
        assert_allclose(u_new, u, atol=1e-13)

    def test_dense_operator_oracle(self):
        prob = builtin("2d-convdiff")
        n = 12
        (xx, yy), dx = grid(n)
        u0 = np.sin(xx) * np.sin(yy)
        ctx = StepContext2D(dx, dx, 1e-4)
        scheme = PeriodicScheme2D(prob, ctx, bp_limit=False)
        u1, q1, _ = scheme.euler_step(u0)
        W1 = circulant([1 / 6, 4 / 6, 1 / 6], n, [-1, 0, 1])
        W2 = circulant([1 / 12, 10 / 12, 1 / 12], n, [-1, 0, 1])
        Dx = circulant([-0.5, 0, 0.5], n, [-1, 0, 1])
        Dxx = circulant([1.0, -2.0, 1.0], n, [-1, 0, 1])
        c, d = 1.0, 0.001
        f = c * u0
        a = d * u0
        lam, mu = ctx.lam_x, ctx.mu_x
        dense = (u0 - lam * np.linalg.solve(W1, Dx @ f)
                 - lam * np.linalg.solve(W1, Dx @ f.T).T
                 + mu * np.linalg.solve(W2, Dxx @ a)
                 + mu * np.linalg.solve(W2, Dxx @ a.T).T)
        assert np.abs(u1 - dense).max() <= 1e-13
        q_dense = W1 @ dense
        q_dense = (W1 @ q_dense.T).T
        q_dense = W2 @ q_dense
        q_dense = (W2 @ q_dense.T).T
        assert np.abs(q1 - q_dense).max() <= 1e-13

    def test_transpose_symmetry(self):
        prob = builtin("2d-convdiff")
        n = 10
        (xx, yy), dx = grid(n)
        u0 = np.sin(xx) * np.cos(yy) * 0.5
        ctx = StepContext2D(dx, dx, 1e-4)
        scheme = PeriodicScheme2D(prob, ctx, bp_limit=False)
        u1, _, _ = scheme.euler_step(u0)
        u1t, _, _ = scheme.euler_step(u0.T.copy())
        assert np.abs(u1t - u1.T).max() <= 1e-13


class TestStructure:
    def test_weighting_commutation_2d(self):
        rng = np.random.default_rng(33)
        u = rng.normal(size=(9, 7))
        w4, w10 = WeightOperator(4.0), WeightOperator(10.0)
        left_then_right = apply_weighting(w10, apply_weighting(w4, u, axis=0), axis=1)
        right_then_left = apply_weighting(w4, apply_weighting(w10, u, axis=1), axis=0)
        assert np.abs(left_then_right - right_then_left).max() <= 1e-14

    def test_conservation_and_sweep_order(self):
        prob = builtin("2d-linadv")
        n = 16
        _, dx = grid(n)
        dt = 0.1648 * max_stable_dt_2d(prob, dx, dx)
        rng = np.random.default_rng(35)
        u0 = np.clip(0.75 + 0.24 * rng.normal(size=(n, n)), 0.5, 1.0)
        for order in ("xy", "yx"):
            scheme = PeriodicScheme2D(prob, StepContext2D(dx, dx, dt),
                                      bp_limit=True, sweep_order=order)
            u, q, rep = scheme.euler_step(u0)
            assert q.sum() == pytest.approx(scheme.means(u0).sum(), abs=1e-11)
            assert u.sum() == pytest.approx(q.sum(), abs=1e-11)
            assert u.min() >= 0.5 - 1e-13
            assert u.max() <= 1.0 + 1e-13

    def test_bound_preservation_table_scale(self):
        # 2D advection of the quartic profile on a 40^2 grid for a short
        # window: the limited field never leaves [0.5, 1]
        from compactbp.harness import RunConfig, run_level
        cfg = RunConfig(problem="2d-linadv", order=4, integrator="ms4", T=0.2,
                        bp_limiter=True)
        result = run_level(cfg, 40)
        assert result["min_u"] >= 0.5 - 1e-12
        assert result["max_u"] <= 1.0 + 1e-12
        assert result["conservation"] <= 1e-10 * 40 * 40

    def test_degenerate_diffusion_positivity(self):
        # square-profile porous medium stays nonnegative with the limiter
        # and dips negative without it
        from compactbp.harness import RunConfig, run_level
        cfg = RunConfig(problem="2d-pme-m5", order=4, integrator="ms4",
                        T=0.005, bp_limiter=True)
        assert run_level(cfg, 24)["min_u"] >= 0.0
        cfg_off = RunConfig(problem="2d-pme-m5", order=4, integrator="ms4",
                            T=0.005, bp_limiter=False)
        assert run_level(cfg_off, 24)["min_u"] < 0.0


def test_central_differences_match_roll_form():
    # slice forms give the bits and memory layout of the np.roll forms
    rng = np.random.default_rng(14)
    f = rng.normal(size=(9, 7))
    f[::3, ::2] = -0.0
    for arr in (f, f.T, np.asfortranarray(f)):
        for axis in (0, 1):
            dx_ref = 0.5 * (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis))
            dxx_ref = np.roll(arr, -1, axis=axis) - 2.0 * arr + np.roll(arr, 1, axis=axis)
            for out, ref in ((_dx_central(arr, axis), dx_ref), (_dxx_central(arr, axis), dxx_ref)):
                assert out.strides == ref.strides
                assert np.array_equal(out.view(np.int64), ref.view(np.int64))
