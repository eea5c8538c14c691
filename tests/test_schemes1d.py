"""1D periodic scheme contracts against dense-matrix and brute-force oracles."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compactbp.limiters import Bounds
from compactbp.operators import (first_derivative_coefficients,
                                 second_derivative_coefficients)
from compactbp.schemes1d import PeriodicScheme1D, Problem1D, StepContext, max_stable_dt
from compactbp.timeint import CflError, SspIntegrator
from dense_march import check_dense_march


def admissible_dt(problem, dx, order=4):
    return PeriodicScheme1D(problem, StepContext.create(dx, order)).admissible_dt_fe()

C_MS = 0.1648


def circulant(row, n, offsets):
    A = np.zeros((n, n))
    for off, val in zip(offsets, row):
        for i in range(n):
            A[i, (i + off) % n] += val
    return A


def linear_advection(lo=0.0, hi=1.0):
    return Problem1D(name="linadv", x_lo=0.0, x_hi=2 * np.pi,
                     bounds=Bounds(lo, hi), initial=lambda x: 0 * x,
                     flux=lambda u: u, max_fprime=1.0, min_fprime=1.0)


class TestEulerConvection:
    def test_constant_state(self):
        scheme = PeriodicScheme1D(linear_advection(), StepContext.create(0.5, 4),
                                  bp_limit=False)
        u = np.full(8, 0.7)
        u_new = SspIntegrator(scheme, "fe", 0.1).start(u).advance()
        q = scheme.means(u) + 0.1 * scheme.rhs_means(u)
        assert_allclose(u_new, u, atol=1e-14)
        assert_allclose(q, u, atol=1e-14)

    def test_unit_impulse_oracle(self):
        # direct arithmetic from the forward-Euler mean update at lam = 1/3:
        # means = (u_{i-1}+4u_i+u_{i+1})/6 - (u_{i+1}-u_{i-1})/6
        scheme = PeriodicScheme1D(linear_advection(), StepContext.create(1.0, 4),
                                  bp_limit=False)
        u = np.array([0.0, 1.0, 0.0, 0.0])
        q = scheme.means(u) + (1.0 / 3.0) * scheme.rhs_means(u)
        assert_allclose(q, [0.0, 2 / 3, 1 / 3, 0.0], atol=1e-15)
        assert q.sum() == pytest.approx(u.sum(), abs=1e-14)

    def test_random_means_stay_bounded(self):
        rng = np.random.default_rng(21)
        prob = linear_advection()
        n = 16
        dt = 1.0 / 3.0
        scheme = PeriodicScheme1D(prob, StepContext.create(1.0, 4), bp_limit=False)
        for _ in range(1000):
            u = rng.uniform(0.0, 1.0, n)
            q = scheme.means(u) + dt * scheme.rhs_means(u)
            assert q.min() >= -1e-13
            assert q.max() <= 1 + 1e-13

    def test_brute_force_weak_monotonicity(self):
        # every 5-point state on the 5-value lattice in [0, 1], at the
        # critical step lam = 1/3
        prob = linear_advection()
        dt = 1.0 / 3.0
        scheme = PeriodicScheme1D(prob, StepContext.create(1.0, 4), bp_limit=False)
        lattice = np.linspace(0.0, 1.0, 5)
        for combo in itertools.product(range(5), repeat=5):
            u = lattice[list(combo)]
            q = scheme.means(u) + dt * scheme.rhs_means(u)
            assert q.min() >= -1e-13
            assert q.max() <= 1 + 1e-13

    def test_cfl_error_carries_admissible_dt(self):
        scheme = PeriodicScheme1D(linear_advection(), StepContext.create(1.0, 4))
        with pytest.raises(CflError) as err:
            SspIntegrator(scheme, "fe", 0.4)
        assert err.value.admissible == pytest.approx(1 / 3, rel=1e-12)

    def test_non_finite_dt_names_the_step(self):
        # nan compares false with the admissible step, so it is checked apart
        scheme = PeriodicScheme1D(linear_advection(), StepContext.create(1.0, 4))
        with pytest.raises(ValueError, match="dt must be positive and finite, got nan"):
            SspIntegrator(scheme, "fe", np.nan)


class TestEulerConvDiff:
    def _problem(self, d=0.001):
        return Problem1D(name="cd", x_lo=0.0, x_hi=2 * np.pi, bounds=Bounds(-1, 1),
                         initial=np.sin, flux=lambda u: u, max_fprime=1.0,
                         diffusion=lambda u: d * u, max_aprime=d)

    def test_zero_diffusion_reduces_to_convection(self):
        # a convdiff problem whose diffusion bound is zero advances means
        # identically to the pure convection step at the same dt
        prob0 = Problem1D(name="cd0", x_lo=0.0, x_hi=2 * np.pi, bounds=Bounds(-1, 1),
                          initial=np.sin, flux=lambda u: u, max_fprime=1.0,
                          diffusion=lambda u: 0.0 * u, max_aprime=0.0)
        n = 16
        x = 2 * np.pi * np.arange(1, n + 1) / n
        u = np.sin(x)
        ctx, dt = StepContext.create(2 * np.pi / n, 4), 1e-3
        scheme_cd = PeriodicScheme1D(prob0, ctx, bp_limit=False)
        q_cd = scheme_cd.means(u) + dt * scheme_cd.rhs_means(u)
        conv = linear_advection(-1.0, 1.0)
        scheme = PeriodicScheme1D(conv, ctx, bp_limit=False)
        q_conv = scheme.means(u) + dt * scheme.rhs_means(u)
        # convdiff means carry the extra c=10 weighting level
        from compactbp.operators import apply_weighting
        assert_allclose(q_cd, apply_weighting(10.0, q_conv), atol=1e-14)
        # and the admissible dt halves when both terms are active
        full = admissible_dt(self._problem(), 0.1)
        pure = admissible_dt(conv, 0.1)
        assert full == pytest.approx(pure / 2, rel=1e-12)

    def test_heat_constant(self):
        prob = Problem1D(name="heat", x_lo=0, x_hi=1, bounds=Bounds(0, 1),
                         initial=lambda x: 0 * x, diffusion=lambda u: u, max_aprime=1.0)
        scheme = PeriodicScheme1D(prob, StepContext.create(0.1, 4), bp_limit=False)
        u = np.full(12, 0.5)
        u_new = SspIntegrator(scheme, "fe", 1e-3).start(u).advance()
        assert_allclose(u_new, u, atol=1e-14)

    def test_dense_matrix_oracle(self):
        prob = self._problem()
        n = 32
        x = 2 * np.pi * np.arange(1, n + 1) / n
        dx = 2 * np.pi / n
        dt = admissible_dt(prob, dx)
        scheme = PeriodicScheme1D(prob, StepContext.create(dx, 4), bp_limit=False)
        u0 = np.sin(x)
        u1 = SspIntegrator(scheme, "fe", dt).start(u0).advance()
        q1 = scheme.means(u0) + dt * scheme.rhs_means(u0)
        W1 = circulant([1 / 6, 4 / 6, 1 / 6], n, [-1, 0, 1])
        W2 = circulant([1 / 12, 10 / 12, 1 / 12], n, [-1, 0, 1])
        Dx = circulant([-0.5, 0, 0.5], n, [-1, 0, 1])
        Dxx = circulant([1.0, -2.0, 1.0], n, [-1, 0, 1])
        lam, mu = dt / dx, dt / dx ** 2
        dense = (u0 - lam * np.linalg.solve(W1, Dx @ u0)
                 + mu * np.linalg.solve(W2, Dxx @ (0.001 * u0)))
        assert np.abs(u1 - dense).max() <= 1e-14
        assert np.abs(q1 - W2 @ (W1 @ dense)).max() <= 1e-13
        L = (-np.linalg.solve(W1, Dx) / dx
             + np.linalg.solve(W2, Dxx) * (0.001 / dx ** 2))
        check_dense_march(scheme, lambda u: L @ u, u0)

    def test_dense_matrix_oracle_order8(self):
        # two weighting levels per family: the convection term is wrapped in
        # both diffusion levels and the diffusion term in both convection ones
        d = 0.05
        prob = self._problem(d)
        n = 32
        x = 2 * np.pi * np.arange(1, n + 1) / n
        dx = 2 * np.pi / n
        scheme = PeriodicScheme1D(prob, StepContext.create(dx, 8), bp_limit=False)
        dt = scheme.admissible_dt_fe()
        u0 = np.sin(x) + 0.3 * np.cos(3 * x)
        u1 = SspIntegrator(scheme, "fe", dt).start(u0).advance()
        q1 = scheme.means(u0) + dt * scheme.rhs_means(u0)
        cs1, cs2 = first_derivative_coefficients(8), second_derivative_coefficients(8)
        offsets = [-2, -1, 0, 1, 2]
        W1 = circulant(np.array([cs1.beta, cs1.alpha, 1, cs1.alpha, cs1.beta]) / cs1.scale,
                       n, offsets)
        W2 = circulant(np.array([cs2.beta, cs2.alpha, 1, cs2.alpha, cs2.beta]) / cs2.scale,
                       n, offsets)
        a1, b1 = cs1.a, cs1.b
        D1 = circulant(np.array([-b1 / 4, -a1 / 2, 0, a1 / 2, b1 / 4]) / cs1.scale, n, offsets)
        a2, b2 = cs2.a, cs2.b
        D2 = circulant(np.array([b2 / 4, a2, -2 * a2 - b2 / 2, a2, b2 / 4]) / cs2.scale,
                       n, offsets)
        lam, mu = dt / dx, dt / dx ** 2
        dense = (u0 - lam * np.linalg.solve(W1, D1 @ u0)
                 + mu * np.linalg.solve(W2, D2 @ (d * u0)))
        assert len(scheme.levels) == 4
        assert np.abs(u1 - dense).max() <= 1e-13
        assert np.abs(q1 - W2 @ (W1 @ dense)).max() <= 1e-13
        L = -np.linalg.solve(W1, D1) / dx + np.linalg.solve(W2, D2) * (d / dx ** 2)
        check_dense_march(scheme, lambda u: L @ u, u0)

    def test_convex_combination_identity(self):
        # the mean update equals the half/half split of a double-step
        # convection move and a double-step diffusion move
        prob = self._problem()
        n = 24
        x = 2 * np.pi * np.arange(1, n + 1) / n
        dx = 2 * np.pi / n
        dt = 1e-4
        scheme = PeriodicScheme1D(prob, StepContext.create(dx, 4), bp_limit=False)
        u0 = 0.3 + 0.5 * np.sin(x) ** 2
        q = scheme.means(u0) + dt * scheme.rhs_means(u0)
        W1 = circulant([1 / 6, 4 / 6, 1 / 6], n, [-1, 0, 1])
        W2 = circulant([1 / 12, 10 / 12, 1 / 12], n, [-1, 0, 1])
        Dx = circulant([-0.5, 0, 0.5], n, [-1, 0, 1])
        Dxx = circulant([1.0, -2.0, 1.0], n, [-1, 0, 1])
        lam, mu = dt / dx, dt / dx ** 2
        split = (0.5 * W2 @ (W1 @ u0 - 2 * lam * (Dx @ u0))
                 + 0.5 * W1 @ (W2 @ u0 + 2 * mu * (Dxx @ (0.001 * u0))))
        assert np.abs(q - split).max() <= 1e-13

    def test_per_step_conservation(self):
        prob = self._problem()
        n = 40
        x = 2 * np.pi * np.arange(1, n + 1) / n
        dx = 2 * np.pi / n
        dt = admissible_dt(prob, dx)
        scheme = PeriodicScheme1D(prob, StepContext.create(dx, 4), bp_limit=True)
        u = np.sin(x)
        integ = SspIntegrator(scheme, "fe", dt).start(u)
        for _ in range(20):
            q = scheme.means(u) + dt * scheme.rhs_means(u)
            u = integ.advance()
            assert q.sum() == pytest.approx(np.sin(x).sum(), abs=1e-12 * n)


class TestMaxStableDt:
    def test_order4_convection(self):
        dt = C_MS * admissible_dt(linear_advection(), 0.3)
        assert dt == pytest.approx(C_MS * 0.3 / 3, rel=1e-14)

    def test_order8_convection_factor(self):
        dt = admissible_dt(linear_advection(), 0.3, order=8)
        assert dt == pytest.approx((6 / 25) * 0.3, rel=1e-14)

    def test_order8_convdiff_factors(self):
        d = 0.37
        prob = Problem1D(name="cd8", x_lo=0, x_hi=1, bounds=Bounds(-1, 1),
                         initial=np.sin, flux=lambda u: u, max_fprime=1.0,
                         diffusion=lambda u: d * u, max_aprime=d)
        dx = 0.05
        scheme = PeriodicScheme1D(prob, StepContext.create(dx, 8))
        dt = C_MS * scheme.admissible_dt_fe()
        expect = C_MS * min((3 / 25) * dx, (131 / 530) * dx ** 2 / d)
        assert dt == pytest.approx(expect, rel=1e-13)
        # quadratic convection scaling for temporal-order verification:
        # the convection rate is max|f'|/dx^2
        dt2 = C_MS * max_stable_dt((1.0 / dx ** 2, scheme.cfl_rates()[1]), scheme.cfl)
        expect2 = C_MS * min((3 / 25) * dx ** 2, (131 / 530) * dx ** 2 / d)
        assert dt2 == pytest.approx(expect2, rel=1e-13)

    def test_no_constraint_returns_inf(self):
        prob = Problem1D(name="free", x_lo=0, x_hi=1, bounds=Bounds(0, 1),
                         initial=lambda x: 0 * x)
        assert admissible_dt(prob, 0.1) == np.inf
        assert max_stable_dt((0.0, 0.0), (1.0, 1.0)) == np.inf


class TestConvergence:
    def test_linadv_order4_ms(self):
        # smooth advection at T=1 shows at least order 3.8 from N=80 to 160
        from compactbp.harness import RunConfig, run_convergence_study
        cfg = RunConfig(problem="linadv-sin4", order=4, integrator="ms4", T=1.0,
                        bp_limiter=True, refine=(80, 160))
        rows, _ = run_convergence_study(cfg)
        assert rows[1].l1_order >= 3.8
