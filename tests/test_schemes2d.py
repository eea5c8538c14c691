"""2D tensorized scheme contracts: oracles, symmetry, bound preservation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compactbp.limiters import Bounds
from compactbp.operators import apply_weighting
from compactbp.problems import builtin
from compactbp.schemes1d import PeriodicScheme1D, Problem1D, StepContext
from compactbp.schemes2d import (PeriodicScheme2D, Problem2D, StepContext2D,
                                 _dx_central, _dxx_central)
from compactbp.timeint import CflError, SspIntegrator
from dense_march import check_dense_march


def admissible_dt(problem, dx):
    return PeriodicScheme2D(problem, StepContext2D(dx, dx)).admissible_dt_fe()


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
        scheme = PeriodicScheme2D(prob, StepContext2D(0.3, 0.3), bp_limit=False)
        u = np.full((8, 8), 0.75)
        u_new = SspIntegrator(scheme, "fe", 1e-3).start(u).advance()
        q = scheme.means(u) + 1e-3 * scheme.rhs_means(u)
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
        scheme2d = PeriodicScheme2D(prob2d, StepContext2D(dx, dx), bp_limit=False)
        u2 = SspIntegrator(scheme2d, "fe", dt).start(u0).advance()
        prob1d = Problem1D(name="1d", x_lo=0, x_hi=2 * np.pi, bounds=Bounds(0.0, 2.0),
                           initial=lambda x: 1 + np.sin(x),
                           flux=lambda u: u, max_fprime=1.0)
        scheme1d = PeriodicScheme1D(prob1d, StepContext.create(dx, 4),
                                    bp_limit=False)
        line = u0[:, 0]
        q1 = scheme1d.means(line) + dt * scheme1d.rhs_means(line)
        u1, _ = scheme1d.recover(q1)
        for j in range(n):
            assert_allclose(u2[:, j], u1, atol=1e-13)

    def test_random_means_stay_bounded(self):
        prob = self._problem()
        n = 12
        _, dx = grid(n)
        dt = admissible_dt(prob, dx)  # CFL-tight forward Euler step
        scheme = PeriodicScheme2D(prob, StepContext2D(dx, dx), bp_limit=False)
        rng = np.random.default_rng(31)
        for _ in range(300):
            u = rng.uniform(0.0, 1.0, (n, n))
            q = scheme.means(u) + dt * scheme.rhs_means(u)
            assert q.min() >= -1e-13
            assert q.max() <= 1 + 1e-13

    def test_cfl_error(self):
        prob = self._problem()
        dx = 0.1
        dt = 1.1 * admissible_dt(prob, dx)
        with pytest.raises(CflError):
            SspIntegrator(PeriodicScheme2D(prob, StepContext2D(dx, dx)), "fe", dt)


class TestConvDiff2D:
    def test_pure_diffusion_constant(self):
        prob = builtin("2d-pme-m3")
        scheme = PeriodicScheme2D(prob, StepContext2D(0.25, 0.25), bp_limit=False)
        u = np.full((10, 10), 0.5)
        u_new = SspIntegrator(scheme, "fe", 1e-4).start(u).advance()
        assert_allclose(u_new, u, atol=1e-13)

    def test_dense_operator_oracle(self):
        prob = builtin("2d-convdiff")
        n = 12
        (xx, yy), dx = grid(n)
        u0 = np.sin(xx) * np.sin(yy)
        dt = 1e-4
        scheme = PeriodicScheme2D(prob, StepContext2D(dx, dx), bp_limit=False)
        u1 = SspIntegrator(scheme, "fe", dt).start(u0).advance()
        q1 = scheme.means(u0) + dt * scheme.rhs_means(u0)
        W1 = circulant([1 / 6, 4 / 6, 1 / 6], n, [-1, 0, 1])
        W2 = circulant([1 / 12, 10 / 12, 1 / 12], n, [-1, 0, 1])
        Dx = circulant([-0.5, 0, 0.5], n, [-1, 0, 1])
        Dxx = circulant([1.0, -2.0, 1.0], n, [-1, 0, 1])
        c, d = 1.0, 0.001
        f = c * u0
        a = d * u0
        lam, mu = dt / dx, dt / dx ** 2
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
        # each direction's operator acts on axis 0 from the left, axis 1 from the right
        A1 = -np.linalg.solve(W1, Dx) * (c / dx)
        A2 = np.linalg.solve(W2, Dxx) * (d / dx ** 2)
        check_dense_march(scheme, lambda u: A1 @ u + u @ A1.T + A2 @ u + u @ A2.T, u0)

    def test_transpose_symmetry(self):
        prob = builtin("2d-convdiff")
        n = 10
        (xx, yy), dx = grid(n)
        u0 = np.sin(xx) * np.cos(yy) * 0.5
        scheme = PeriodicScheme2D(prob, StepContext2D(dx, dx), bp_limit=False)
        u1 = SspIntegrator(scheme, "fe", 1e-4).start(u0).advance()
        u1t = SspIntegrator(scheme, "fe", 1e-4).start(u0.T.copy()).advance()
        assert np.abs(u1t - u1.T).max() <= 1e-13


class TestStructure:
    def test_weighting_commutation_2d(self):
        rng = np.random.default_rng(33)
        u = rng.normal(size=(9, 7))
        left_then_right = apply_weighting(10.0, apply_weighting(4.0, u, axis=0), axis=1)
        right_then_left = apply_weighting(4.0, apply_weighting(10.0, u, axis=1), axis=0)
        assert np.abs(left_then_right - right_then_left).max() <= 1e-14

    def test_conservation_and_sweep_order(self):
        prob = builtin("2d-linadv")
        n = 16
        _, dx = grid(n)
        dt = 0.1648 * admissible_dt(prob, dx)
        rng = np.random.default_rng(35)
        u0 = np.clip(0.75 + 0.24 * rng.normal(size=(n, n)), 0.5, 1.0)
        scheme = PeriodicScheme2D(prob, StepContext2D(dx, dx), bp_limit=True)
        # the problem is symmetric in x and y, so stepping the transposed
        # state sweeps the original y axis first
        for start in (u0, u0.T):
            q = scheme.means(start) + dt * scheme.rhs_means(start)
            u = SspIntegrator(scheme, "fe", dt).start(start).advance()
            assert q.sum() == pytest.approx(scheme.means(start).sum(), abs=1e-11)
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


def _dx_sliced(f, axis):
    """``_dx_central`` through shifted slices of the swapped views."""
    out = np.empty_like(f)
    o, v = out.swapaxes(0, axis), f.swapaxes(0, axis)
    np.subtract(v[2:], v[:-2], out=o[1:-1])
    np.subtract(v[1], v[-1], out=o[0])
    np.subtract(v[0], v[-2], out=o[-1])
    o *= 0.5
    return out


def _dxx_sliced(f, axis):
    """``_dxx_central`` through shifted slices of the swapped views."""
    out = np.empty_like(f)
    o, v = out.swapaxes(0, axis), f.swapaxes(0, axis)
    twice = 2.0 * v
    np.subtract(v[1:], twice[:-1], out=o[:-1])
    np.subtract(v[0], twice[-1], out=o[-1])
    o[1:] += v[:-1]
    o[0] += v[-1]
    return out


@pytest.mark.parametrize("shape", [(3, 3), (3, 4), (4, 3), (3, 11), (10, 3), (8, 8), (13, 6)])
def test_central_differences_match_sliced_form(shape):
    # the flat memory-order shifts give the bits and memory layout of the
    # shifted slices of swapped views, along both axes of C- and F-ordered
    # (and non-contiguous) fields; signed zeros and subnormals included
    rng = np.random.default_rng(sum(shape))
    f = rng.normal(size=shape)
    f[::2, ::3] = -0.0
    f[1::3, ::2] = 0.0
    f[-1, 0], f[0, -1] = 5e-324, -1e-310
    wide = np.concatenate((f, f), axis=1)
    for arr in (f, np.asfortranarray(f), f.T, wide[:, ::2], wide[:, ::2].T):
        before = arr.copy()
        for axis in (0, 1):
            for out, ref in ((_dx_central(arr, axis), _dx_sliced(arr, axis)),
                             (_dxx_central(arr, axis), _dxx_sliced(arr, axis))):
                assert out.strides == ref.strides
                assert np.array_equal(out.view(np.int64), ref.view(np.int64))
        assert np.array_equal(arr.view(np.int64), before.view(np.int64))


class TestSharedCoefficients:
    """``rhs_means`` evaluates a function shared by both directions once."""

    @staticmethod
    def _counting(calls, name):
        def coefficient(u):
            calls.append(name)
            return np.maximum(u, 0.0) ** 3
        return coefficient

    def _scheme(self, **functions):
        prob = Problem2D(name="count", x_lo=0.0, x_hi=1.0, y_lo=0.0, y_hi=1.0,
                         bounds=Bounds(0.0, 1.0), initial=lambda x, y: 0.5 + 0 * x,
                         max_aprime=3.0, max_bprime=3.0, **functions)
        return PeriodicScheme2D(prob, StepContext2D(0.1, 0.1))

    def test_shared_function_is_evaluated_once(self):
        u = np.random.default_rng(22).uniform(0.0, 1.0, (10, 12))
        calls = []
        shared = self._counting(calls, "a")
        got = self._scheme(diffusion_x=shared, diffusion_y=shared).rhs_means(u)
        assert calls == ["a"]
        calls.clear()
        want = self._scheme(diffusion_x=self._counting(calls, "a"),
                            diffusion_y=self._counting(calls, "b")).rhs_means(u)
        assert sorted(calls) == ["a", "b"]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
