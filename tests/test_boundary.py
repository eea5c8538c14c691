"""Boundary treatments: extrapolation, end rows, limited recovery."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compactbp import boundary as rows
from compactbp.boundary import (DirichletConvDiffScheme, InflowOutflowScheme,
                                _banded_end_aware, outflow_extrapolate)
from compactbp.limiters import Bounds
from compactbp.schemes1d import Problem1D, StepContext
from compactbp.problems import builtin
from compactbp.timeint import CflError, SspIntegrator


class TestOutflowExtrapolate:
    def test_constant(self):
        assert outflow_extrapolate([0.4] * 4, Bounds(0, 1)) == pytest.approx(0.4, abs=1e-15)

    def test_linear_exactness(self):
        n = 23
        tail = np.array([n - 3, n - 2, n - 1, n], dtype=float)
        out = outflow_extrapolate(tail, Bounds(-100, 100))
        assert out == pytest.approx(n + 1, abs=1e-12)

    def test_clamp(self):
        # cubic growth beyond the upper bound is clipped onto it
        tail = np.array([0.7, 0.8, 0.9, 1.0])
        raw = np.dot([-2 / 3, 17 / 6, -14 / 3, 7 / 2], tail)
        assert raw > 1.0
        assert outflow_extrapolate(tail, Bounds(0, 1)) == 1.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            outflow_extrapolate([1.0, 2.0], Bounds(0, 1))


def constant_inflow_problem(value=0.5):
    return Problem1D(name="const", x_lo=0.0, x_hi=1.0, boundary="inflow-outflow",
                     bounds=Bounds(0.0, 1.0), initial=lambda x: value + 0 * x,
                     flux=lambda u: 0.5 * u * u, max_fprime=1.0, min_fprime=0.0,
                     left_value=lambda t: value)


class TestInflowOutflow:
    def test_constant_state(self):
        prob = constant_inflow_problem()
        n = 20
        scheme = InflowOutflowScheme(prob, StepContext.create(1.0 / (n + 1), 4))
        u0 = np.full(n + 2, 0.5)
        u1 = SspIntegrator(scheme, "fe", 1e-3).start(u0).advance()
        assert_allclose(u1, u0, atol=1e-14)

    def test_dense_assembly_oracle(self):
        prob = builtin("inflow-burgers")
        n = 24
        dx = prob.length / (n + 1)
        dt = 0.3 * dx / 3.0
        scheme = InflowOutflowScheme(prob, StepContext.create(dx, 4), n=n, bp_limit=False)
        (x,) = scheme.grid()
        u0 = prob.initial(x)
        u1 = SspIntegrator(scheme, "fe", dt).start(u0, 0.0).advance()
        # dense route: means update, boundary values, tridiagonal solve
        f = prob.flux(u0)
        q = (u0[:-2] + 4 * u0[1:-1] + u0[2:]) / 6 - dt / (2 * dx) * (f[2:] - f[:-2])
        left = prob.left_value(dt)
        right = float(np.dot([-2 / 3, 17 / 6, -14 / 3, 7 / 2], q[-4:]))
        right = min(max(right, 0.0), 1.0)
        W = np.zeros((n, n))
        for i in range(n):
            W[i, i] = 4 / 6
            if i > 0:
                W[i, i - 1] = 1 / 6
            if i < n - 1:
                W[i, i + 1] = 1 / 6
        rhs = q.copy()
        rhs[0] -= left / 6
        rhs[-1] -= right / 6
        interior = np.linalg.solve(W, rhs)
        assert np.abs(u1 - np.concatenate(([left], interior, [right]))).max() <= 1e-14

    def test_requires_nonnegative_wave_speed(self):
        prob = Problem1D(name="bad", x_lo=0, x_hi=1, boundary="inflow-outflow",
                         bounds=Bounds(-1.0, 1.0), initial=np.sin,
                         flux=lambda u: 0.5 * u * u, max_fprime=1.0, min_fprime=-1.0,
                         left_value=lambda t: 0.0)
        with pytest.raises(ValueError, match="f' >= 0"):
            InflowOutflowScheme(prob, StepContext.create(0.1, 4))

    def test_cfl_validation(self):
        prob = constant_inflow_problem()
        scheme = InflowOutflowScheme(prob, StepContext.create(0.1, 4))
        with pytest.raises(CflError):
            SspIntegrator(scheme, "fe", 0.2)

    def test_bounds_after_recovery(self):
        prob = builtin("inflow-burgers")
        n = 40
        dx = prob.length / (n + 1)
        dt = 0.1648 * dx / 3.0
        scheme = InflowOutflowScheme(prob, StepContext.create(dx, 4), n=n, bp_limit=True)
        integ = SspIntegrator(scheme, "fe", dt).start(prob.initial(scheme.grid()[0]))
        for _ in range(50):
            u = integ.advance()
            assert u.min() >= -1e-12
            assert u.max() <= 1 + 1e-12


class TestDirichletRows:
    def test_stencil_audit_frozen_values(self):
        # transcription guard: the end rows in their 1/72- and 1/24-scaled
        # forms, as printed
        assert_allclose(np.array(rows.MEAN_FIRST) * 72,
                        [24 / 5, 246 / 5, 84 / 5, 6 / 5], rtol=1e-15)
        assert_allclose(-np.array(rows.DX_FIRST) * 24,
                        [-38 / 5, -42 / 5, 78 / 5, 2 / 5], rtol=1e-15)
        assert_allclose(np.array(rows.DXX_FIRST) * 6,
                        [24 / 5, -42 / 5, 12 / 5, 6 / 5], rtol=1e-15)

    def test_row_sums(self):
        assert sum(rows.MEAN_FIRST) == pytest.approx(1.0, abs=1e-15)
        assert sum(rows.MEAN_INTERIOR) == pytest.approx(1.0, abs=1e-15)
        assert sum(rows.DX_FIRST) == pytest.approx(0.0, abs=1e-15)
        assert sum(rows.DX_INTERIOR) == pytest.approx(0.0, abs=1e-15)
        assert sum(rows.DXX_FIRST) == pytest.approx(0.0, abs=1e-15)
        assert sum(rows.DXX_INTERIOR) == pytest.approx(0.0, abs=1e-15)

    def test_cubic_consistency(self):
        # on polynomial data of degree <= 3 the one-sided closures are
        # exact: flux rows reproduce the weighted means of -p', diffusion
        # rows those of p''
        n = 12
        dx = 0.17
        x = dx * np.arange(n + 2)
        for k in range(4):
            p = x ** k
            dp = k * x ** (k - 1) if k > 0 else 0 * x
            ddp = k * (k - 1) * x ** (k - 2) if k > 1 else 0 * x
            conv = _banded_end_aware(rows.DX_FIRST, rows.DX_INTERIOR, p, -1.0) / dx
            target = -_banded_end_aware(rows.MEAN_FIRST, rows.MEAN_INTERIOR, dp, 1.0)
            assert np.abs(conv - target).max() <= 1e-12
            diff = _banded_end_aware(rows.DXX_FIRST, rows.DXX_INTERIOR, p, 1.0) / dx ** 2
            target = _banded_end_aware(rows.MEAN_FIRST, rows.MEAN_INTERIOR, ddp, 1.0)
            assert np.abs(diff - target).max() <= 1e-12


class TestDirichletScheme:
    def _constant_problem(self):
        return Problem1D(name="const", x_lo=0.0, x_hi=1.0, boundary="dirichlet",
                         bounds=Bounds(0.0, 1.0), initial=lambda x: 0.5 + 0 * x,
                         flux=lambda u: u, max_fprime=1.0,
                         diffusion=lambda u: 0.01 * u, max_aprime=0.01,
                         left_value=lambda t: 0.5, right_value=lambda t: 0.5)

    def test_constant_state(self):
        prob = self._constant_problem()
        n = 18
        scheme = DirichletConvDiffScheme(prob, StepContext.create(1.0 / (n + 1), 4))
        u0 = np.full(n + 2, 0.5)
        u1 = SspIntegrator(scheme, "fe", 1e-4).start(u0).advance()
        assert_allclose(u1, u0, atol=1e-14)

    def test_reconstruction_factorization(self):
        # corner-weighted means equal the corner-row tridiagonal applied to
        # the plain rectangular means, for several sizes
        prob = builtin("dirichlet-convdiff")
        rng = np.random.default_rng(41)
        for n in (6, 17, 40):
            ctx = StepContext.create(prob.length / (n + 1), 4)
            scheme = DirichletConvDiffScheme(prob, ctx, n=n)
            u = rng.uniform(-1, 1, n + 2)
            q = scheme.means(u)
            w = q.copy()
            w[0] = (10 * q[0] + u[0]) / 11
            w[-1] = (10 * q[-1] + u[-1]) / 11
            v1 = (u[:-2] + 4 * u[1:-1] + u[2:]) / 6
            w_ref = np.empty(n)
            w_ref[1:-1] = (v1[:-2] + 10 * v1[1:-1] + v1[2:]) / 12
            w_ref[0] = (10 * v1[0] + v1[1]) / 11
            w_ref[-1] = (v1[-2] + 10 * v1[-1]) / 11
            assert np.abs(w - w_ref).max() <= 1e-13

    def test_reconstruction_is_convex(self):
        # point values inside the bounds give reconstruction means inside
        prob = builtin("dirichlet-convdiff")
        rng = np.random.default_rng(42)
        n = 25
        ctx = StepContext.create(prob.length / (n + 1), 4)
        scheme = DirichletConvDiffScheme(prob, ctx, n=n)
        for _ in range(200):
            u = rng.uniform(-1, 1, n + 2)
            q = scheme.means(u)
            w = q.copy()
            w[0] = (10 * q[0] + u[0]) / 11
            w[-1] = (10 * q[-1] + u[-1]) / 11
            assert w.min() >= -1 - 1e-12
            assert w.max() <= 1 + 1e-12

    def test_dense_assembly_oracle(self):
        prob = builtin("dirichlet-convdiff")
        n = 20
        dx = prob.length / (n + 1)
        dt = 1e-4
        scheme = DirichletConvDiffScheme(prob, StepContext.create(dx, 4), n=n, bp_limit=False)
        u0 = prob.initial(scheme.grid()[0])
        u1 = SspIntegrator(scheme, "fe", dt).start(u0, 0.0).advance()
        q1 = scheme.means(u0) + dt * scheme.rhs_means(u0, 0.0)
        # dense mean update from the printed rows
        f, g = prob.flux(u0), prob.diffusion(u0)
        q = scheme.means(u0)
        rhs = np.empty(n)
        rhs[0] = (19 * f[0] + 21 * f[1] - 39 * f[2] - f[3]) / (60 * dx) \
            + (4 * g[0] - 7 * g[1] + 2 * g[2] + g[3]) / (5 * dx ** 2)
        for i in range(1, n - 1):
            j = i + 1  # grid index of the interior row
            rhs[i] = (f[j - 2] + 10 * f[j - 1] - 10 * f[j + 1] - f[j + 2]) / (24 * dx) \
                + (g[j - 2] + 2 * g[j - 1] - 6 * g[j] + 2 * g[j + 1] + g[j + 2]) / (6 * dx ** 2)
        rhs[-1] = (f[n - 2] + 39 * f[n - 1] - 21 * f[n] - 19 * f[n + 1]) / (60 * dx) \
            + (g[n - 2] + 2 * g[n - 1] - 7 * g[n] + 4 * g[n + 1]) / (5 * dx ** 2)
        q_ref = q + dt * rhs
        assert np.abs(q1 - q_ref).max() <= 1e-13
        # recovery: corner tridiagonal, then interior (1,4,1)/6 solve
        left, right = prob.left_value(dt), prob.right_value(dt)
        w = q_ref.copy()
        w[0] = (10 * w[0] + left) / 11
        w[-1] = (10 * w[-1] + right) / 11
        W2 = np.zeros((n, n))
        for i in range(n):
            W2[i, i] = 10 / 12
            if i > 0:
                W2[i, i - 1] = 1 / 12
            if i < n - 1:
                W2[i, i + 1] = 1 / 12
        W2[0, 0], W2[0, 1] = 10 / 11, 1 / 11
        W2[-1, -1], W2[-1, -2] = 10 / 11, 1 / 11
        v = np.linalg.solve(W2, w)
        W1 = np.zeros((n, n))
        for i in range(n):
            W1[i, i] = 4 / 6
            if i > 0:
                W1[i, i - 1] = 1 / 6
            if i < n - 1:
                W1[i, i + 1] = 1 / 6
        rhs2 = v.copy()
        rhs2[0] -= left / 6
        rhs2[-1] -= right / 6
        interior = np.linalg.solve(W1, rhs2)
        ref = np.concatenate(([left], interior, [right]))
        assert np.abs(u1 - ref).max() <= 1e-13

    def test_boundary_value_validation(self):
        prob = self._constant_problem()
        bad = Problem1D(name="bad", x_lo=0.0, x_hi=1.0, boundary="dirichlet",
                        bounds=Bounds(0.0, 1.0), initial=lambda x: 0.5 + 0 * x,
                        flux=prob.flux, max_fprime=1.0,
                        diffusion=prob.diffusion, max_aprime=0.01,
                        left_value=lambda t: 1.7, right_value=lambda t: 0.5)
        n = 10
        scheme = DirichletConvDiffScheme(bad, StepContext.create(1.0 / (n + 1), 4))
        with pytest.raises(ValueError, match="outside bounds"):
            SspIntegrator(scheme, "fe", 1e-5).start(np.full(n + 2, 0.5)).advance()

    def test_cfl_constants(self):
        prob = builtin("dirichlet-convdiff")
        n = 30
        dx = prob.length / (n + 1)
        scheme = DirichletConvDiffScheme(prob, StepContext.create(dx, 4), n=n)
        expect = min((4 / 19) * dx / 1.0, (695 / 1596) * dx ** 2 / 0.01)
        assert scheme.admissible_dt_fe() == pytest.approx(expect, rel=1e-14)

    def test_bounds_after_recovery(self):
        prob = builtin("dirichlet-convdiff")
        n = 30
        dx = prob.length / (n + 1)
        dt = 0.1648 * min((4 / 19) * dx, (695 / 1596) * dx ** 2 / 0.01)
        scheme = DirichletConvDiffScheme(prob, StepContext.create(dx, 4), n=n, bp_limit=True)
        integ = SspIntegrator(scheme, "fe", dt).start(prob.initial(scheme.grid()[0]))
        for _ in range(50):
            u = integ.advance()
            assert u.min() >= -1 - 1e-12
            assert u.max() <= 1 + 1e-12
