"""Limiter contracts: hand-checked examples, invariants, property sweeps."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compactbp.limiters import (
    Bounds, WeakMonotonicityError, cascade_limit,
    classify_sets, limit_bounds, limit_bounds_segment, limit_lower,
    modified_minmod, tvb_euler_step, tvb_flux,
)
from compactbp.operators import WeightOperator, apply_weighting, solve_weighting
from compactbp.problems import builtin


def admissible_field(rng, n, bounds, c):
    """Draw point values whose c-weighted means lie inside the bounds."""
    means = rng.uniform(bounds.lower, bounds.upper, n)
    return solve_weighting(WeightOperator(c), means)


def conservation_budget(n, bounds):
    return 1e-12 * n * max(1.0, abs(bounds.lower), abs(bounds.upper))


class TestLimitLower:
    def test_identity_when_clean(self):
        u = np.array([0.3, 0.4, 0.5, 0.6])
        v, rep = limit_lower(u, 0.0, 4.0)
        assert_allclose(v, u, rtol=0, atol=0)
        assert rep.modified_count == 0

    def test_hand_example(self):
        # undershoot at index 1 splits evenly between equal neighbours
        u = np.array([0.5, -0.1, 0.5, 0.5])
        v, rep = limit_lower(u, 0.0, 4.0)
        assert_allclose(v, [0.45, 0.0, 0.45, 0.5], atol=1e-16)
        assert v.sum() == pytest.approx(1.4, abs=1e-15)
        assert rep.modified_count == 3

    def test_shift_equivariance(self):
        u = np.array([0.5, -0.1, 0.5, 0.5])
        base, _ = limit_lower(u, 0.0, 4.0)
        for k in range(1, 4):
            shifted, _ = limit_lower(np.roll(u, k), 0.0, 4.0)
            assert np.array_equal(shifted, np.roll(base, k))

    def test_precondition_violation(self):
        u = np.array([-1.0, -1.0, -1.0, 5.0])
        with pytest.raises(WeakMonotonicityError) as err:
            limit_lower(u, 0.0, 4.0)
        assert err.value.index in (0, 1)

    def test_c_validation(self):
        with pytest.raises(ValueError, match="c >= 2"):
            limit_lower(np.zeros(4), 0.0, 1.5)


class TestLimitBounds:
    def test_hand_example_upper(self):
        u = np.array([0.5, 1.2, 0.5, 0.5])
        v, rep = limit_bounds(u, Bounds(0.0, 1.0), 4.0)
        assert_allclose(v, [0.6, 1.0, 0.6, 0.5], atol=1e-16)
        assert v.sum() == pytest.approx(2.7, abs=1e-15)

    def test_identity_inside(self):
        u = np.array([0.1, 0.9, 0.5, 0.2, 0.99])
        v, rep = limit_bounds(u, Bounds(0.0, 1.0), 4.0)
        assert np.array_equal(v, u)
        assert rep.modified_count == 0

    def test_alternating_whole_circle(self):
        # no point is in range; clamp-and-rebalance covers the circle
        u = np.array([1.1, -0.1, 1.1, -0.1])
        v, rep = limit_bounds(u, Bounds(0.0, 1.0), 4.0)
        assert_allclose(v, [1.0, 0.0, 1.0, 0.0], atol=1e-15)
        assert v.sum() == pytest.approx(2.0, abs=1e-15)
        assert rep.whole_circle_fallback
        assert rep.rebalance_used

    def test_single_in_range_point(self):
        # the mixed run covers all but one point: that point is the only
        # flank and the rebalance spans the whole circle.  Hand execution:
        # clamp to [0.5, 1, 0, 1] (sum 2.5, deficit 0.1), then add back
        # proportionally to the upper headroom [0.5, 0, 1, 0].
        u = np.array([0.5, 1.1, -0.1, 1.1])
        v, rep = limit_bounds(u, Bounds(0.0, 1.0), 4.0)
        assert_allclose(v, [0.5 + 1 / 30, 1.0, 1 / 15, 1.0], atol=1e-15)
        assert v.sum() == pytest.approx(u.sum(), abs=1e-14)
        assert rep.rebalance_used
        assert not rep.whole_circle_fallback

    def test_precondition_error_indexed(self):
        u = np.array([2.0, 2.0, 0.5, 0.5, 0.5])
        with pytest.raises(WeakMonotonicityError):
            limit_bounds(u, Bounds(0.0, 1.0), 4.0)


class TestClassifySets:
    def test_no_excursions(self):
        cls = classify_sets(np.full(6, 0.4), Bounds(0.0, 1.0))
        assert cls.sawtooth_sets == ()
        assert cls.plain_sets == ((0, 6),)

    def test_adjacent_mixed_pair(self):
        u = np.array([0.5, 1.2, -0.1, 0.5, 0.5])
        cls = classify_sets(u, Bounds(0.0, 1.0))
        assert cls.sawtooth_sets == ((0, 4),)
        assert not cls.whole_circle

    def test_isolated_undershoot_is_plain(self):
        u = np.array([0.5, -0.1, 0.5, 0.5])
        cls = classify_sets(u, Bounds(0.0, 1.0))
        assert cls.sawtooth_sets == ()

    def test_whole_circle_flag(self):
        cls = classify_sets(np.array([1.1, -0.1, 1.1, -0.1]), Bounds(0.0, 1.0))
        assert cls.whole_circle
        assert cls.sawtooth_sets == ((0, 4),)

    def test_wraparound_run(self):
        u = np.array([1.2, 0.5, 0.5, 0.5, -0.1])
        cls = classify_sets(u, Bounds(0.0, 1.0))
        # the out-of-range run wraps {4, 0}; flanks are 3 and 1
        assert cls.sawtooth_sets == ((3, 4),)


class TestCascade:
    def test_single_level_matches_limit_bounds(self):
        rng = np.random.default_rng(0)
        bounds = Bounds(0.0, 1.0)
        u = admissible_field(rng, 16, bounds, 4.0)
        via_cascade, _ = cascade_limit(u, bounds, [("periodic", 4.0)])
        direct, _ = limit_bounds(u, bounds, 4.0)
        assert_allclose(via_cascade, direct, rtol=0, atol=0)

    def test_identity_inside(self):
        u = np.full(10, 0.5)
        v, rep = cascade_limit(u, Bounds(0.0, 1.0), [10.0, 4.0])
        assert_allclose(v, u, atol=1e-13)
        assert rep.modified_count == 0

    def test_two_level_hand_composition(self):
        rng = np.random.default_rng(1)
        bounds = Bounds(0.0, 1.0)
        q = rng.uniform(0, 1, 24)
        w4, w10 = WeightOperator(4.0), WeightOperator(10.0)
        u = solve_weighting(w4, solve_weighting(w10, q))
        got, rep = cascade_limit(u, bounds, [("periodic", 10.0), ("periodic", 4.0)])
        # sequential hand application: solve/limit at c=10, then c=4
        stage1 = solve_weighting(w10, q)
        stage1, _ = limit_bounds(stage1, bounds, 10.0)
        stage2 = solve_weighting(w4, stage1)
        expected, _ = limit_bounds(stage2, bounds, 4.0)
        assert_allclose(got, expected, atol=1e-13)
        assert got.min() >= bounds.lower - 1e-13
        assert got.max() <= bounds.upper + 1e-13
        assert got.sum() == pytest.approx(u.sum(), abs=conservation_budget(24, bounds))

    def test_rejects_non_periodic(self):
        with pytest.raises(ValueError):
            cascade_limit(np.zeros(8), Bounds(0, 1), [("dirichlet", 4.0)])


class TestRandomizedProperties:
    """Bounds, conservation, locality, idempotence, order independence."""

    CASES = [(8, 4.0, Bounds(0.0, 1.0)), (16, 10.0, Bounds(0.0, 1.0)),
             (33, 2.5, Bounds(-0.5, 1.5)), (12, 4.0, Bounds(-2.0, -1.0))]

    def test_sweep(self):
        rng = np.random.default_rng(42)
        trials_per_case = 500
        for n, c, bounds in self.CASES:
            budget = conservation_budget(n, bounds)
            for _ in range(trials_per_case):
                u = admissible_field(rng, n, bounds, c)
                v, rep = limit_bounds(u, bounds, c)
                assert v.min() >= bounds.lower - 1e-13
                assert v.max() <= bounds.upper + 1e-13
                assert abs(v.sum() - u.sum()) <= budget
                # locality: in-range points away from excursions are untouched
                out = (u < bounds.lower) | (u > bounds.upper)
                shielded = ~(out | np.roll(out, 1) | np.roll(out, -1))
                assert np.array_equal(v[shielded], u[shielded])
                if rep.sawtooth_count == 0:
                    # transfer ratios are frozen on the input, so sweep
                    # direction cannot matter and a second pass is a no-op
                    # (sawtooth sets sharing a flank are processed in index
                    # order and carry no such promise)
                    v_flip, _ = limit_bounds(u[::-1].copy(), bounds, c)
                    assert_allclose(v_flip[::-1], v, rtol=0, atol=1e-15)
                    v2, rep2 = limit_bounds(v, bounds, c)
                    assert np.array_equal(v2, v)
                    assert rep2.modified_count == 0

    def test_translation_equivariance(self):
        rng = np.random.default_rng(7)
        bounds = Bounds(0.0, 1.0)
        done = 0
        while done < 200:
            u = admissible_field(rng, 17, bounds, 4.0)
            v, rep = limit_bounds(u, bounds, 4.0)
            if rep.sawtooth_count:
                continue
            k = int(rng.integers(1, 17))
            v_roll, _ = limit_bounds(np.roll(u, k), bounds, 4.0)
            assert_allclose(v_roll, np.roll(v, k), rtol=0, atol=1e-15)
            done += 1

    def test_accuracy_displacement_bound(self):
        # point values recovered from smooth in-range weighted means carry
        # O(dx^4) excursions at the flat extrema; no point moves farther
        # than the worst excursion magnitude
        bounds = Bounds(0.5, 1.0)
        for n in (64, 128, 256):
            x = 2 * np.pi * np.arange(n) / n
            means = 0.5 + 0.5 * np.sin(x) ** 4
            u = solve_weighting(WeightOperator(4.0), means)
            excess = np.maximum(u - bounds.upper, 0) + np.maximum(bounds.lower - u, 0)
            assert excess.max() > 0  # the fixture must actually trigger
            v, rep = limit_bounds(u, bounds, 4.0)
            assert rep.max_displacement <= excess.max() * (1 + 1e-12)


class TestExhaustiveLattice:
    def test_five_point_enumeration(self):
        lo, hi, delta = 0.0, 1.0, 0.25
        bounds = Bounds(lo, hi)
        lattice = np.array([lo - delta, lo, 0.5 * (lo + hi), hi, hi + delta])
        c = 4.0
        w = WeightOperator(c)
        admissible = checked = 0
        for combo in itertools.product(range(5), repeat=5):
            u = lattice[list(combo)]
            means = apply_weighting(w, u)
            if means.min() < lo or means.max() > hi:
                continue
            admissible += 1
            v, rep = limit_bounds(u, bounds, c)
            assert v.min() >= lo - 1e-13
            assert v.max() <= hi + 1e-13
            assert abs(v.sum() - u.sum()) <= conservation_budget(5, bounds)
            checked += 1
        assert admissible == checked
        assert admissible > 100  # the filter kept a meaningful family


class TestSegmentVariants:
    def test_edge_rows_conserve_exactly(self):
        rng = np.random.default_rng(3)
        bounds = Bounds(0.0, 1.0)
        c = 10.0
        for _ in range(300):
            n = 9
            means = rng.uniform(0, 1, n)
            # invert the edge-row weighting by dense solve to build data
            A = np.zeros((n, n))
            for i in range(1, n - 1):
                A[i, i - 1:i + 2] = np.array([1, c, 1]) / (c + 2)
            A[0, :2] = [c / (c + 1), 1 / (c + 1)]
            A[-1, -2:] = [1 / (c + 1), c / (c + 1)]
            u = np.linalg.solve(A, means)
            v, rep = limit_bounds_segment(u, bounds, c, edge_rows=True)
            assert v.min() >= -1e-13 and v.max() <= 1 + 1e-13
            assert abs(v.sum() - u.sum()) <= conservation_budget(n, bounds)
            assert rep.boundary_exchange == 0.0

    def test_fixed_ends_drop_shares(self):
        bounds = Bounds(0.0, 1.0)
        # undershoot at the first interior point; the prescribed left value
        # holds headroom whose share leaves the segment
        u = np.array([-0.1, 0.8, 0.4, 0.5])
        v, rep = limit_bounds_segment(u, bounds, 4.0, left=0.9, right=0.5)
        assert v.min() >= -1e-14
        assert v.max() <= 1 + 1e-14
        assert rep.boundary_exchange > 0
        # interior sum change equals the dropped boundary share
        assert (v.sum() - u.sum()) == pytest.approx(rep.boundary_exchange, abs=1e-14)

    def test_fixed_ends_random(self):
        rng = np.random.default_rng(4)
        bounds = Bounds(0.0, 1.0)
        c = 4.0
        for _ in range(300):
            n = 10
            left, right = rng.uniform(0, 1, 2)
            means = rng.uniform(0, 1, n)
            ext_rows = np.zeros((n, n))
            rhs = means.copy()
            for i in range(n):
                if i > 0:
                    ext_rows[i, i - 1] = 1 / (c + 2)
                else:
                    rhs[i] -= left / (c + 2)
                ext_rows[i, i] = c / (c + 2)
                if i < n - 1:
                    ext_rows[i, i + 1] = 1 / (c + 2)
                else:
                    rhs[i] -= right / (c + 2)
            u = np.linalg.solve(ext_rows, rhs)
            v, rep = limit_bounds_segment(u, bounds, c, left=left, right=right)
            assert v.min() >= -1e-13 and v.max() <= 1 + 1e-13
            assert (v.sum() - u.sum()) == pytest.approx(rep.boundary_exchange,
                                                        abs=conservation_budget(n, bounds))

    def test_segment_sawtooth(self):
        bounds = Bounds(0.0, 1.0)
        u = np.array([0.5, 1.05, -0.02, 0.5, 0.5, 0.5])
        v, rep = limit_bounds_segment(u, bounds, 4.0, left=0.5, right=0.5)
        assert rep.sawtooth_count == 1
        assert v.min() >= -1e-14 and v.max() <= 1 + 1e-14
        assert v.sum() == pytest.approx(u.sum(), abs=1e-13)


class TestModifiedMinmod:
    def test_common_sign_minimum(self):
        assert modified_minmod([0.5, 1.0, 2.0], 5.0, 0.01) == 0.5

    def test_sign_disagreement(self):
        assert modified_minmod([0.5, -1.0, 2.0], 5.0, 0.01) == 0.0

    def test_threshold_branch(self):
        # |a1| <= p dx^2 returns a1 regardless of the rest
        assert modified_minmod([3e-4, -1.0, 2.0], 5.0, 0.01) == 3e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            modified_minmod([], 5.0, 0.01)
        with pytest.raises(ValueError):
            modified_minmod([1.0], -1.0, 0.01)


class TestTvbEulerStep:
    def setup_method(self):
        self.problem = builtin("linadv-step")
        self.n = 100
        self.x = 2 * np.pi * np.arange(1, self.n + 1) / self.n
        self.dx = 2 * np.pi / self.n
        self.w = WeightOperator(4.0)

    def test_constant_state(self):
        u = np.full(self.n, 0.5)
        q = tvb_euler_step(u, apply_weighting(self.w, u), self.problem,
                           1 / 12, 5.0, self.problem.bounds, self.dx)
        assert_allclose(q, u, atol=1e-15)

    def test_smooth_resolved_matches_plain_flux(self):
        u = 0.5 + 0.25 * np.sin(self.x)
        ubar = apply_weighting(self.w, u)
        q = tvb_euler_step(u, ubar, self.problem, 1 / 12, 5.0,
                           self.problem.bounds, self.dx)
        fhat = 0.5 * (u + np.roll(u, -1))
        plain = ubar - (1 / 12) * (fhat - np.roll(fhat, 1))
        assert_allclose(q, plain, rtol=0, atol=0)

    def test_step_data_means_bounded(self):
        u = self.problem.initial(self.x)
        ubar = apply_weighting(self.w, u)
        q = tvb_euler_step(u, ubar, self.problem, 1 / 12, 5.0,
                           self.problem.bounds, self.dx)
        assert q.min() >= -1e-12
        assert q.max() <= 1 + 1e-12

    def test_cfl_guard(self):
        u = self.problem.initial(self.x)
        ubar = apply_weighting(self.w, u)
        with pytest.raises(ValueError, match="1/12"):
            tvb_euler_step(u, ubar, self.problem, 0.2, 5.0,
                           self.problem.bounds, self.dx)
        # the driver escape hatch skips the check
        tvb_euler_step(u, ubar, self.problem, 0.2, 5.0,
                       self.problem.bounds, self.dx, enforce_cfl=False)

    def test_scalar_matches_vector_minmod(self):
        rng = np.random.default_rng(12)
        u = rng.uniform(0, 1, 32)
        ubar = apply_weighting(self.w, u)
        dx = 0.05
        fhat = tvb_flux(u, ubar, self.problem, dx, 5.0)
        # recompute one interface with the scalar modified minmod
        speed = self.problem.max_fprime
        fp = lambda w: 0.5 * (self.problem.flux(w) + speed * w)
        fm = lambda w: 0.5 * (self.problem.flux(w) - speed * w)
        i = 7
        dplus = lambda g, j: g[(j + 1) % 32] - g[j]
        fpb, fmb = fp(ubar), fm(ubar)
        dfp = 0.5 * (fp(u)[i] + fp(u)[(i + 1) % 32]) - fpb[i]
        dfm = fmb[(i + 1) % 32] - 0.5 * (fm(u)[i] + fm(u)[(i + 1) % 32])
        dfp_l = modified_minmod([dfp, dplus(fpb, i), dplus(fpb, i - 1)], 5.0, dx)
        dfm_l = modified_minmod([dfm, dplus(fmb, i), dplus(fmb, (i + 1) % 32)], 5.0, dx)
        expected = fpb[i] + dfp_l + fmb[(i + 1) % 32] - dfm_l
        assert fhat[i] == pytest.approx(expected, abs=1e-15)

    def test_flux_matches_roll_form(self):
        # the slice form gives the bits of the np.roll form, signed zeros included
        from compactbp.limiters import _minmod_rows

        def roll_tvb_flux(u, ubar, problem, dx, p):
            speed = problem.max_fprime
            f_u, f_ub = problem.flux(u), problem.flux(ubar)
            fp_u, fm_u = 0.5 * (f_u + speed * u), 0.5 * (f_u - speed * u)
            fp_b, fm_b = 0.5 * (f_ub + speed * ubar), 0.5 * (f_ub - speed * ubar)
            fhat_p = 0.5 * (fp_u + np.roll(fp_u, -1))
            fhat_m = 0.5 * (fm_u + np.roll(fm_u, -1))
            dplus_p = np.roll(fp_b, -1) - fp_b
            dplus_m = np.roll(fm_b, -1) - fm_b
            dfp_lim = _minmod_rows(fhat_p - fp_b, dplus_p, np.roll(dplus_p, 1), p, dx)
            dfm_lim = _minmod_rows(np.roll(fm_b, -1) - fhat_m, dplus_m,
                                   np.roll(dplus_m, -1), p, dx)
            return (fp_b + dfp_lim) + (np.roll(fm_b, -1) - dfm_lim)

        rng = np.random.default_rng(13)
        for n in (3, 8, 100):
            u = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0, 1, n))
            ubar = apply_weighting(self.w, u)
            for p in (0.0, 5.0):
                fhat = tvb_flux(u, ubar, self.problem, self.dx, p)
                ref = roll_tvb_flux(u, ubar, self.problem, self.dx, p)
                assert np.array_equal(fhat.view(np.int64), ref.view(np.int64))
                q = tvb_euler_step(u, ubar, self.problem, 1 / 12, p,
                                   self.problem.bounds, self.dx)
                q_ref = ubar - (1 / 12) * (ref - np.roll(ref, 1))
                assert np.array_equal(q.view(np.int64), q_ref.view(np.int64))
