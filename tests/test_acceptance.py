"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Each criterion pins its tolerances explicitly.  Periodic runs register
their start/end sums so the conservation criterion can audit every run
performed by the suite.
"""

import itertools
import time

import numpy as np
import pytest

from compactbp.harness import RunConfig, build_scheme, run_convergence_study, run_level
from compactbp.limiters import Bounds, limit_bounds
from compactbp.operators import (apply_weighting,
                                 first_derivative_coefficients, recovery_chain,
                                 second_derivative_coefficients, solve_weighting)
from compactbp.schemes1d import PeriodicScheme1D, StepContext
from compactbp.timeint import METHODS

_conservation_log: list[tuple[str, int, float, float, float]] = []


def _register_conservation(tag, n, u0, uT, upper):
    _conservation_log.append((tag, n, float(u0.sum()), float(uT.sum()), upper))


def _report(num, text):
    print(f"\n[criterion {num:2d}] PASS  {text}")


class TestCriterion1:
    def test_fourth_order_linear_advection(self):
        t0 = time.perf_counter()
        cfg = RunConfig(problem="linadv-sin4", order=4, integrator="ms4",
                        T=10.0, bp_limiter=True, refine=(80, 160, 320))
        rows, _ = run_convergence_study(cfg)
        assert rows[1].l1_order >= 3.9
        assert rows[2].l1_order >= 3.9
        anchor = 1.10e-5
        assert abs(rows[1].l1_error - anchor) <= 0.25 * anchor
        for r in rows:
            # harness conservation column: |sum(uT) - sum(u0)| * dx
            assert r.conservation <= 1e-10
            _conservation_log.append(("c1", r.n, 0.0, r.conservation / (2 * np.pi / r.n), 1.5))
        elapsed = time.perf_counter() - t0
        assert elapsed <= 30.0
        _report(1, f"orders {rows[1].l1_order:.2f}/{rows[2].l1_order:.2f} >= 3.9, "
                   f"L1(160)={rows[1].l1_error:.3e} vs {anchor:.2e} +-25%, "
                   f"{elapsed:.1f}s <= 30s")


class TestCriterion2:
    def test_eighth_order_linear_advection(self):
        t0 = time.perf_counter()
        cfg = RunConfig(problem="linadv-sin4-half", order=8, integrator="ms4",
                        T=10.0, bp_limiter=True, dt_scale="dx2", refine=(20, 40))
        rows, _ = run_convergence_study(cfg)
        assert rows[1].l1_order >= 7.5
        for r in rows:
            assert r.conservation <= 1e-10
            _conservation_log.append(("c2", r.n, 0.0, r.conservation / (2 * np.pi / r.n), 1.0))
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60.0
        _report(2, f"L1 order 20->40 = {rows[1].l1_order:.2f} >= 7.5, "
                   f"{elapsed:.1f}s <= 60s")


class TestCriterion3:
    def test_runge_kutta_order_reduction(self):
        t0 = time.perf_counter()
        cfg = RunConfig(problem="linadv-sin4", order=4, integrator="rk4",
                        T=10.0, bp_limiter=True, refine=(160, 320))
        rows, _ = run_convergence_study(cfg)
        # expected-behavior check: per-stage limiting at 5x the multistep
        # step loses full temporal order on pure convection
        assert rows[1].linf_order < 3.5
        elapsed = time.perf_counter() - t0
        _report(3, f"RK4 per-stage limiting Linf order at N=320 = "
                   f"{rows[1].linf_order:.2f} < 3.5 ({elapsed:.1f}s)")


class TestCriterion4:
    def test_convection_diffusion(self):
        t0 = time.perf_counter()
        cfg = RunConfig(problem="convdiff-lin", order=4, integrator="ms4",
                        T=1.0, bp_limiter=True, refine=(80, 160))
        rows, _ = run_convergence_study(cfg)
        assert rows[1].l1_order >= 3.9
        anchor = 8.36e-9
        assert abs(rows[1].l1_error - anchor) <= 0.25 * anchor
        for r in rows:
            assert r.conservation <= 1e-10
            _conservation_log.append(("c4", r.n, 0.0, r.conservation / (2 * np.pi / r.n), 1.0))
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60.0
        _report(4, f"L1 order {rows[1].l1_order:.2f} >= 3.9, "
                   f"L1(160)={rows[1].l1_error:.3e} vs {anchor:.2e} +-25%, "
                   f"{elapsed:.1f}s <= 60s")


class TestCriterion5:
    def test_discontinuous_bound_preservation(self):
        t0 = time.perf_counter()
        cfg = RunConfig(problem="linadv-step", order=4, integrator="ms4",
                        T=10.0, n=100, bp_limiter=True, tvb=5.0)
        problem, scheme, integ = build_scheme(cfg, 100)
        integ.start(*scheme.initial_state())
        u0 = integ.state.copy()
        lo = hi = 0.0
        for _ in range(integ.steps):
            u = integ.advance()
            lo = min(lo, u.min())
            hi = max(hi, u.max())
        assert lo >= -1e-12
        assert hi <= 1 + 1e-12
        _register_conservation("c5", 100, u0, integ.state, 1.0)
        # the TVB limiter alone cannot restore the bounds
        cfg_tvb = RunConfig(problem="linadv-step", order=4, integrator="ms4",
                            T=10.0, n=100, bp_limiter=False, tvb=5.0)
        result = run_level(cfg_tvb, 100)
        assert result["min_u"] < 0.0 or result["max_u"] > 1.0
        elapsed = time.perf_counter() - t0
        _report(5, f"both limiters: global range [{lo:.2e}, 1+{hi - 1:.2e}] within "
                   f"[0,1]+-1e-12 at every step; TVB-only min={result['min_u']:.2e} < 0 "
                   f"({elapsed:.1f}s)")


class TestCriterion6:
    def test_conservation_of_registered_runs(self):
        # every periodic run registered by the other criteria, plus a
        # representative pair if this test runs in isolation
        if not _conservation_log:
            for pid, n in (("linadv-sin4", 80), ("convdiff-lin", 80)):
                cfg = RunConfig(problem=pid, order=4, integrator="ms4",
                                T=0.5, bp_limiter=True)
                result = run_level(cfg, n)
                scheme = result["scheme"]
                u0 = scheme.initial_state()[0]
                _register_conservation(pid, n, u0, result["state"],
                                       scheme.bounds.upper)
        worst = 0.0
        for tag, n, s0, sT, upper in _conservation_log:
            budget = 1e-10 * n * max(1.0, upper)
            drift = abs(sT - s0)
            assert drift <= budget, (tag, n)
            worst = max(worst, drift / budget)
        _report(6, f"{len(_conservation_log)} periodic runs audited, worst "
                   f"drift at {100 * worst:.2f}% of the 1e-10*N*max(1,M) budget")


class TestCriterion7:
    @pytest.mark.parametrize("m", [5, 8])
    def test_porous_medium_positivity(self, m):
        t0 = time.perf_counter()
        cfg = RunConfig(problem=f"pme-1d-m{m}", order=4, integrator="ms4",
                        T=1.0, n=100, bp_limiter=True)
        result = run_level(cfg, 100)
        assert result["min_u"] >= 0.0
        scheme = result["scheme"]
        _register_conservation(f"c7-m{m}", 100, scheme.initial_state()[0],
                               result["state"], 1.0)
        cfg_off = RunConfig(problem=f"pme-1d-m{m}", order=4, integrator="ms4",
                            T=1.0, n=100, bp_limiter=False)
        unlimited = run_level(cfg_off, 100)
        assert unlimited["min_u"] < 0.0
        elapsed = time.perf_counter() - t0
        _report(7, f"m={m}: limited min={result['min_u']:.2e} >= 0, unlimited "
                   f"min={unlimited['min_u']:.2e} < 0 ({elapsed:.1f}s)")


class TestCriterion8:
    def test_inflow_outflow_burgers(self):
        t0 = time.perf_counter()
        cfg = RunConfig(problem="inflow-burgers", order=4, integrator="ms4",
                        T=0.5, bp_limiter=True, refine=(80, 160))
        rows, _ = run_convergence_study(cfg)
        assert rows[1].linf_order >= 3.7
        _report(8, f"inflow-outflow Linf order {rows[1].linf_order:.2f} >= 3.7 "
                   f"({time.perf_counter() - t0:.1f}s)")

    def test_dirichlet_convection_diffusion(self):
        t0 = time.perf_counter()
        cfg = RunConfig(problem="dirichlet-convdiff", order=4, integrator="ms4",
                        T=1.0, bp_limiter=True, refine=(40, 80))
        rows, _ = run_convergence_study(cfg)
        assert rows[1].linf_order >= 3.7
        _report(8, f"dirichlet Linf order {rows[1].linf_order:.2f} >= 3.7 "
                   f"({time.perf_counter() - t0:.1f}s)")


class TestCriterion9:
    def test_two_dimensional_advection(self):
        t0 = time.perf_counter()
        cfg = RunConfig(problem="2d-linadv", order=4, integrator="ms4",
                        T=1.0, bp_limiter=True, refine=(40, 80))
        rows, _ = run_convergence_study(cfg)
        assert rows[1].l1_order >= 3.8
        for r in rows:
            assert r.min_u >= 0.5 - 1e-12
            assert r.max_u <= 1.0 + 1e-12
            dxdy = (2 * np.pi / r.n) ** 2
            _conservation_log.append(("c9", r.n * r.n, 0.0,
                                      r.conservation / dxdy, 1.0))
        elapsed = time.perf_counter() - t0
        assert elapsed <= 300.0
        _report(9, f"2D L1 order {rows[1].l1_order:.2f} >= 3.8, bounds held to "
                   f"1e-12, {elapsed:.1f}s <= 300s")


class TestCriterion10:
    """PDE-free property suites."""

    def test_limiter_property_sweep(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        cases = [(8, 4.0, Bounds(0.0, 1.0)), (16, 10.0, Bounds(0.0, 1.0)),
                 (33, 2.5, Bounds(-0.5, 1.5)), (21, 4.0, Bounds(-1.0, 1.0))]
        total = 10_000
        per_case = total // len(cases)
        checked = idem = 0
        for n, c, bounds in cases:
            budget = 1e-12 * n * max(1.0, abs(bounds.lower), abs(bounds.upper))
            for _ in range(per_case):
                means = rng.uniform(bounds.lower, bounds.upper, n)
                u = solve_weighting(c, means)
                v, rep = limit_bounds(u, bounds, c)
                assert v.min() >= bounds.lower - 1e-13
                assert v.max() <= bounds.upper + 1e-13
                assert abs(v.sum() - u.sum()) <= budget
                checked += 1
                if rep.sawtooth_count == 0:
                    v2, _ = limit_bounds(v, bounds, c)
                    assert np.array_equal(v2, v)
                    v_flip, _ = limit_bounds(u[::-1].copy(), bounds, c)
                    assert np.abs(v_flip[::-1] - v).max() <= 1e-15
                    idem += 1
        _report(10, f"limiter sweep: {checked} fixtures (bounds+conservation), "
                    f"{idem} idempotence/order-independence checks "
                    f"({time.perf_counter() - t0:.1f}s)")

    def test_limiter_exhaustive_lattice(self):
        lo, hi, delta = 0.0, 1.0, 0.25
        bounds = Bounds(lo, hi)
        lattice = np.array([lo - delta, lo, 0.5 * (lo + hi), hi, hi + delta])
        admissible = 0
        for combo in itertools.product(range(5), repeat=5):
            u = lattice[list(combo)]
            means = apply_weighting(4.0, u)
            if means.min() < lo or means.max() > hi:
                continue
            admissible += 1
            v, _ = limit_bounds(u, bounds, 4.0)
            assert v.min() >= lo - 1e-13
            assert v.max() <= hi + 1e-13
            assert abs(v.sum() - u.sum()) <= 1e-12 * 5
        _report(10, f"exhaustive 5-point lattice: {admissible} admissible "
                    f"states of {5 ** 5} all bounded and conservative")

    def test_factorization_reconstruction(self):
        def dense(cfun, alpha, order):
            cs = cfun(order, alpha)
            c_big, c_small = recovery_chain(cs)
            row = np.array([cs.beta, cs.alpha, 1.0, cs.alpha, cs.beta]) / cs.scale
            for n in (8, 16, 33):
                W = np.zeros((n, n))
                for i in range(n):
                    for k, coef in enumerate(row, start=-2):
                        W[i, (i + k) % n] += coef
                eye = np.eye(n)
                F1 = np.column_stack([apply_weighting(c_small, col)
                                      for col in eye])
                F2 = np.column_stack([apply_weighting(c_big, col)
                                      for col in eye])
                assert np.abs(W - F1 @ F2).max() <= 1e-13

        for alpha in (0.35, 0.4, 4 / 9, 0.5, 5 / 9):
            dense(first_derivative_coefficients, alpha,
                  8 if alpha == 4 / 9 else 6)
        for alpha in (0.2, 344 / 1179, 0.4, 60 / 113):
            dense(second_derivative_coefficients, alpha,
                  8 if alpha == 344 / 1179 else 6)
        _report(10, "factorization reconstruction <= 1e-13 on N in {8,16,33}")

    def test_weighting_round_trips(self):
        rng = np.random.default_rng(77)
        for n in (8, 33, 128):
            for c in (2.5, 4.0, 10.0, 13.5):
                u = rng.normal(size=n)
                assert np.abs(solve_weighting(c, apply_weighting(c, u)) - u).max() <= 1e-12
        _report(10, "weighting round trips <= 1e-12")

    def test_integrator_order_conditions(self):
        orders = {"fe": 1, "rk4": 4, "ms4": 4}
        assert orders.keys() == METHODS.keys()
        for name, row in METHODS.items():
            p = orders[name]
            if row.tableau is not None:
                alpha, beta = row.tableau
                for k in range(p + 1):
                    res = sum(a * (-i) ** k for i, a in alpha.items())
                    if k >= 1:
                        res += sum(k * b * (-i) ** (k - 1) for i, b in beta.items())
                    res -= 1.0 if k == 0 else 0.0
                    assert abs(res) < 1e-12, name
            s = len(row.stages)
            stage_vals = np.zeros((s + 1, s))
            for i, terms in enumerate(row.stages, start=1):
                for j, a, b in terms:
                    stage_vals[i] += a * stage_vals[j]
                    stage_vals[i, j] += b
            A, b = stage_vals[:s], stage_vals[s]
            c = A.sum(axis=1)
            conds = [(1, b.sum() - 1.0), (2, b @ c - 0.5),
                     (3, b @ c ** 2 - 1 / 3), (3, b @ (A @ c) - 1 / 6),
                     (4, b @ c ** 3 - 1 / 4), (4, (b * c) @ (A @ c) - 1 / 8),
                     (4, b @ (A @ c ** 2) - 1 / 12), (4, b @ (A @ (A @ c)) - 1 / 24)]
            assert all(abs(res) < 1e-12 for q, res in conds if q <= p), name
        _report(10, "order conditions of every METHODS row (fe 1, rk4 4, ms4 4) "
                    "hold to 1e-12")

    def test_weak_monotonicity_brute_force(self):
        from compactbp.limiters import Bounds as B
        from compactbp.schemes1d import Problem1D
        prob = Problem1D(name="bf", x_lo=0.0, x_hi=5.0, bounds=B(0.0, 1.0),
                         initial=lambda x: 0 * x, flux=lambda u: u,
                         max_fprime=1.0)
        dt = 1.0 / 3.0
        scheme = PeriodicScheme1D(prob, StepContext.create(1.0, 4), bp_limit=False)
        lattice = np.linspace(0.0, 1.0, 5)
        for combo in itertools.product(range(5), repeat=5):
            u = lattice[list(combo)]
            q = scheme.means(u) + dt * scheme.rhs_means(u)
            assert q.min() >= -1e-13
            assert q.max() <= 1 + 1e-13
        _report(10, f"weak monotonicity brute force: {5 ** 5} states at the "
                    f"critical step, all means in [0,1]")
