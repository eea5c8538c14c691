"""Registry contracts: profiles, bounds, exact solutions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compactbp.problems import BUILTIN_IDS, barenblatt, builtin
from compactbp.schemes2d import Problem2D


class TestBarenblatt:
    def test_center_value_one(self):
        for m in (2, 5, 8):
            assert barenblatt(0.0, 1.0, m) == pytest.approx(1.0, abs=1e-15)

    def test_support_edge(self):
        m = 5
        k = 1.0 / (m + 1)
        radius = np.sqrt(2 * m / (k * (m - 1)))
        assert barenblatt(radius, 1.0, m) == 0.0
        assert barenblatt(radius + 1.0, 1.0, m) == 0.0
        assert barenblatt(radius - 1e-3, 1.0, m) > 0.0

    def test_reference_value(self):
        # direct formula evaluation at m=5, x=1, t=1: (14/15)^(1/4)
        assert barenblatt(1.0, 1.0, 5) == pytest.approx((14 / 15) ** 0.25, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            barenblatt(0.0, 0.0, 5)
        with pytest.raises(ValueError):
            barenblatt(0.0, 1.0, 1)

    def test_self_similar_pde_residual(self):
        # spot-check u_t = (u^m)_xx by centered differences inside the support
        m = 5
        h = 1e-4
        for x, t in ((0.3, 1.5), (1.0, 2.0), (-0.7, 1.2)):
            ut = (barenblatt(x, t + h, m) - barenblatt(x, t - h, m)) / (2 * h)
            uxx = (barenblatt(x + h, t, m) ** m - 2 * barenblatt(x, t, m) ** m
                   + barenblatt(x - h, t, m) ** m) / h ** 2
            assert ut == pytest.approx(uxx, rel=2e-4, abs=2e-6)


class TestRegistry:
    def test_all_ids_construct(self):
        for pid in BUILTIN_IDS:
            prob = builtin(pid)
            assert prob.name
            assert prob.bounds.lower < prob.bounds.upper

    def test_unknown_id(self):
        # an exponent outside the registry, or none, names no problem either
        for pid in ("no-such-problem", "pme-1d-m7", "pme-1d-m1", "pme-1d-mx", "2d-pme-m9"):
            with pytest.raises(ValueError, match=f"unknown problem '{pid}'"):
                builtin(pid)

    def test_initial_ranges_within_bounds(self):
        rng = np.random.default_rng(51)
        for pid in BUILTIN_IDS:
            prob = builtin(pid)
            if isinstance(prob, Problem2D):
                x = rng.uniform(prob.x_lo, prob.x_hi, 10_000)
                y = rng.uniform(prob.y_lo, prob.y_hi, 10_000)
                u0 = prob.initial(x, y)
            else:
                x = rng.uniform(prob.x_lo, prob.x_hi, 10_000)
                u0 = prob.initial(x)
            assert u0.min() >= prob.bounds.lower - 1e-12, pid
            assert u0.max() <= prob.bounds.upper + 1e-12, pid

    def test_diffusion_monotone_on_bounds(self):
        for pid in BUILTIN_IDS:
            prob = builtin(pid)
            diff = getattr(prob, "diffusion", None) or getattr(prob, "diffusion_x", None)
            if diff is None:
                continue
            u = np.linspace(prob.bounds.lower, prob.bounds.upper, 2001)
            a = diff(u)
            assert (np.diff(a) >= -1e-14).all(), pid

    def test_pme_bounds_and_derivative_bound(self):
        prob = builtin("pme-1d")
        assert (prob.bounds.lower, prob.bounds.upper) == (0.0, 1.0)
        assert prob.max_aprime == 5.0  # m * upper^(m-1)
        # negative transients are guarded
        assert prob.diffusion(np.array([-0.5]))[0] == 0.0

    def test_step_profile_values(self):
        prob = builtin("linadv-step")
        x = np.linspace(0, 2 * np.pi, 500, endpoint=False) + 1e-3
        u0 = prob.initial(x)
        assert set(np.unique(u0)) <= {0.0, 1.0}

    def test_convdiff_exact_matches_initial(self):
        prob = builtin("convdiff-lin")
        x = np.linspace(0, 2 * np.pi, 100)
        assert_allclose(prob.exact(x, 0.0), prob.initial(x), atol=1e-15)

    def test_inflow_left_value_in_bounds(self):
        prob = builtin("inflow-burgers")
        for t in np.linspace(0, 1.5, 40):
            val = prob.left_value(float(t))
            assert 0.0 - 1e-12 <= val <= 1.0 + 1e-12


class TestExactSolutions:
    def _pde_residual_1d(self, prob, x, t, h):
        """Centered-difference residual of u_t + f(u)_x = a(u)_xx."""
        u = lambda xx, tt: prob.exact(np.asarray(xx, dtype=float), tt)
        ut = (u(x, t + h) - u(x, t - h)) / (2 * h)
        fx = (prob.flux(u(x + h, t)) - prob.flux(u(x - h, t))) / (2 * h)
        if prob.diffusion is not None:
            axx = (prob.diffusion(u(x + h, t)) - 2 * prob.diffusion(u(x, t))
                   + prob.diffusion(u(x - h, t))) / h ** 2
        else:
            axx = 0.0
        return ut + fx - axx

    @pytest.mark.parametrize("pid,t", [("linadv-sin4", 0.7), ("convdiff-lin", 0.5),
                                       ("burgers-sin", 0.4), ("inflow-burgers", 0.4)])
    def test_exact_satisfies_pde(self, pid, t):
        prob = builtin(pid)
        x = np.linspace(prob.x_lo + 0.3, prob.x_hi - 0.3, 11)
        res = self._pde_residual_1d(prob, x, t, 1e-5)
        assert np.abs(res).max() < 5e-5

    def test_burgers_exact_at_zero(self):
        prob = builtin("burgers-sin")
        x = np.linspace(-np.pi, np.pi, 64)
        assert_allclose(prob.exact(x, 0.0), prob.initial(x), atol=1e-14)

    def test_burgers_exact_rejects_post_shock(self):
        prob = builtin("burgers-sin")
        with pytest.raises(ValueError, match="characteristics"):
            prob.exact(np.zeros(4), 1.5)

    def test_2d_exacts_satisfy_advection(self):
        prob = builtin("2d-linadv")
        h = 1e-5
        x, y, t = 1.1, 2.3, 0.4
        u = lambda xx, yy, tt: prob.exact(np.array(xx), np.array(yy), tt)
        ut = (u(x, y, t + h) - u(x, y, t - h)) / (2 * h)
        ux = (u(x + h, y, t) - u(x - h, y, t)) / (2 * h)
        uy = (u(x, y + h, t) - u(x, y - h, t)) / (2 * h)
        assert abs(ut + ux + uy) < 1e-6
