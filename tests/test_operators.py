"""Operator algebra: coefficient families, weightings, solves, stencils."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy.linalg import solve_banded

from compactbp.operators import (
    CoefficientDomainError, WeightOperator, apply_weighting,
    apply_weighting_chain, compact_derivative, difference_stencil,
    factor_first_weighting, factor_second_weighting,
    first_derivative_coefficients, recovery_chain,
    second_derivative_coefficients, solve_open_weighting, solve_weighting,
    weighting_row, _cyclic_workspace, _tridiag_workspace,
)


def dense_circulant(row, n):
    """Dense circulant from a symmetric 5-point row (validation only)."""
    A = np.zeros((n, n))
    for i in range(n):
        for k, coef in enumerate(row, start=-(len(row) // 2)):
            A[i, (i + k) % n] += coef
    return A


def dense_weighting(w: WeightOperator, n):
    return np.column_stack([apply_weighting(w, col) for col in np.eye(n)])


class TestFirstDerivativeCoefficients:
    def test_order4(self):
        cs = first_derivative_coefficients(4)
        # normalized weighting row (1, 4, 1)/6 and stencil (-1/2, 0, 1/2)
        assert_allclose(weighting_row(cs)[1:4], [1 / 6, 4 / 6, 1 / 6], rtol=0, atol=0)
        assert difference_stencil(cs).row == (-0.5, 0.0, 0.5)
        assert cs.cfl_factor == pytest.approx(1 / 3, abs=0)
        assert cs.beta == 0.0

    def test_order6_family_closed_forms(self):
        # substitute alpha1 = 1/2 into the closed forms
        cs = first_derivative_coefficients(6, 0.5)
        assert cs.alpha == 0.5
        assert cs.beta == pytest.approx(1 / 24, abs=1e-16)
        assert cs.a == pytest.approx(13 / 9, abs=1e-15)
        assert cs.b == pytest.approx(23 / 36, abs=1e-15)

    def test_order8_pins_parameter(self):
        cs = first_derivative_coefficients(8, alpha1=0.5)  # ignored
        assert cs.alpha == pytest.approx(4 / 9, abs=1e-16)
        assert cs.beta == pytest.approx(1 / 36, abs=1e-16)
        assert cs.a == pytest.approx(40 / 27, abs=1e-15)
        assert cs.b == pytest.approx(25 / 54, abs=1e-15)
        assert cs.cfl_factor == pytest.approx(6 / 25, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(CoefficientDomainError, match="1/3, 5/9"):
            first_derivative_coefficients(6, 1 / 3)
        with pytest.raises(CoefficientDomainError, match="1/3, 5/9"):
            first_derivative_coefficients(6, 0.57)
        with pytest.raises(CoefficientDomainError):
            first_derivative_coefficients(5)

    def test_endpoint_accepted(self):
        cs = first_derivative_coefficients(6, 5 / 9)
        assert cs.alpha == pytest.approx(5 / 9, abs=1e-15)


class TestSecondDerivativeCoefficients:
    def test_order4(self):
        cs = second_derivative_coefficients(4)
        assert (cs.alpha, cs.beta, cs.a, cs.b) == (0.1, 0.0, 1.2, 0.0)
        assert cs.cfl_factor == pytest.approx(5 / 12, abs=1e-16)
        assert difference_stencil(cs).row == pytest.approx((1.0, -2.0, 1.0), abs=1e-15)

    def test_order6_family_closed_forms(self):
        cs = second_derivative_coefficients(6, 1 / 3)
        assert cs.beta == pytest.approx(5 / 372, abs=1e-16)
        assert cs.a == pytest.approx(22 / 31, abs=1e-15)
        assert cs.b == pytest.approx(61 / 62, abs=1e-15)

    def test_order8(self):
        cs = second_derivative_coefficients(8)
        assert cs.alpha == pytest.approx(344 / 1179, abs=1e-16)
        assert cs.beta == pytest.approx(23 / 2358, abs=1e-16)
        assert cs.a == pytest.approx(320 / 393, abs=1e-15)
        assert cs.b == pytest.approx(310 / 393, abs=1e-15)
        assert cs.cfl_factor == pytest.approx(131 / 265, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(CoefficientDomainError, match="2/11, 60/113"):
            second_derivative_coefficients(6, 60 / 113 + 1e-3)

    def test_consistency_sum(self):
        # a + b = 1 + 2 alpha + 2 beta for every member of both families
        for order, alpha in ((4, None), (6, 0.45), (8, None)):
            cs = first_derivative_coefficients(order, alpha)
            assert cs.a + cs.b == pytest.approx(cs.scale, rel=1e-14)
        for order, alpha in ((4, None), (6, 0.3), (8, None)):
            cs = second_derivative_coefficients(order, alpha)
            assert cs.a + cs.b == pytest.approx(cs.scale, rel=1e-14)


class TestFactorization:
    def test_first_endpoint(self):
        fac = factor_first_weighting(first_derivative_coefficients(6, 5 / 9))
        assert fac.first.c == pytest.approx(2.0, abs=1e-12)
        assert fac.second.c == pytest.approx(8.0, abs=1e-12)

    def test_first_order8(self):
        fac = factor_first_weighting(first_derivative_coefficients(8))
        assert fac.first.c == pytest.approx(8 - np.sqrt(30), rel=1e-14)
        assert fac.second.c == pytest.approx(8 + np.sqrt(30), rel=1e-14)
        # corner entry of the composed pentadiagonal: 1/((c1+2)(c2+2))
        cs = first_derivative_coefficients(8)
        corner = cs.beta / cs.scale
        assert (fac.first.c + 2) * (fac.second.c + 2) == pytest.approx(1 / corner, rel=1e-13)

    def test_second_endpoint(self):
        fac = factor_second_weighting(second_derivative_coefficients(6, 60 / 113))
        assert min(fac.first.c, fac.second.c) == pytest.approx(2.0, abs=1e-12)

    def test_second_order8_factors(self):
        fac = factor_second_weighting(second_derivative_coefficients(8))
        assert min(fac.first.c, fac.second.c) >= 2.0

    def test_wrong_derivative_order(self):
        with pytest.raises(CoefficientDomainError):
            factor_first_weighting(second_derivative_coefficients(8))
        with pytest.raises(CoefficientDomainError):
            factor_second_weighting(first_derivative_coefficients(8))

    @pytest.mark.parametrize("alpha", [0.35, 0.4, 4 / 9, 0.5, 5 / 9])
    def test_composition_first(self, alpha):
        cs = first_derivative_coefficients(6 if alpha != 4 / 9 else 8, alpha)
        fac = factor_first_weighting(cs)
        for n in (8, 16, 33):
            W = dense_circulant(weighting_row(cs), n)
            prod = dense_weighting(fac.first, n) @ dense_weighting(fac.second, n)
            assert np.abs(W - prod).max() <= 1e-13

    @pytest.mark.parametrize("alpha", [0.2, 0.3, 344 / 1179, 0.5, 60 / 113])
    def test_composition_second(self, alpha):
        cs = second_derivative_coefficients(6 if alpha != 344 / 1179 else 8, alpha)
        fac = factor_second_weighting(cs)
        for n in (8, 16, 33):
            W = dense_circulant(weighting_row(cs), n)
            prod = dense_weighting(fac.first, n) @ dense_weighting(fac.second, n)
            assert np.abs(W - prod).max() <= 1e-13

    def test_chain_order(self):
        fac = factor_first_weighting(first_derivative_coefficients(8))
        assert fac.chain == (fac.second.c, fac.first.c)
        assert recovery_chain(first_derivative_coefficients(4)) == (4,)
        assert recovery_chain(second_derivative_coefficients(4)) == (10,)


class TestApplyAndSolve:
    def test_constant_fixed_point(self):
        for c in (2.0, 4.0, 10.0):
            u = np.full(9, 1.0)
            assert_allclose(apply_weighting(WeightOperator(c), u), u, rtol=0, atol=0)

    def test_unit_impulse(self):
        u = np.array([0.0, 1.0, 0.0, 0.0])
        out = apply_weighting(WeightOperator(4.0), u)
        assert_allclose(out, [1 / 6, 2 / 3, 1 / 6, 0.0], rtol=0, atol=1e-16)

    def test_mean_preservation(self):
        rng = np.random.default_rng(11)
        u = rng.normal(size=33)
        w = WeightOperator(4.0)
        assert apply_weighting(w, u).sum() == pytest.approx(u.sum(), rel=1e-14)
        assert solve_weighting(w, u).sum() == pytest.approx(u.sum(), rel=1e-13)

    def test_size_mismatch(self):
        w = WeightOperator(4.0, n=8)
        with pytest.raises(ValueError, match="length 8"):
            apply_weighting(w, np.zeros(9))

    def test_rectangular_apply(self):
        u = np.arange(7.0)
        out = apply_weighting(WeightOperator(4.0, topology="dirichlet"), u)
        assert out.shape == (5,)
        assert_allclose(out, np.arange(1.0, 6.0), rtol=1e-15)

    def test_solve_roundtrip(self):
        rng = np.random.default_rng(5)
        for n in (4, 17, 100):
            for c in (3.0, 4.0, 10.0):
                u = rng.normal(size=n)
                w = WeightOperator(c)
                back = solve_weighting(w, apply_weighting(w, u))
                assert np.abs(back - u).max() <= 1e-12

    def test_solve_constant(self):
        w = WeightOperator(10.0)
        assert_allclose(solve_weighting(w, np.full(6, 3.5)), np.full(6, 3.5), rtol=1e-13)

    def test_solve_inverse_example(self):
        out = solve_weighting(WeightOperator(4.0), np.array([1 / 6, 2 / 3, 1 / 6, 0.0]))
        assert_allclose(out, [0.0, 1.0, 0.0, 0.0], atol=1e-14)

    def test_residual_contract(self):
        rng = np.random.default_rng(6)
        for n in (8, 57, 256):
            rhs = rng.normal(size=n)
            w = WeightOperator(4.0)
            x = solve_weighting(w, rhs)
            res = np.abs(apply_weighting(w, x) - rhs).max()
            assert res <= 1e-12 * np.abs(rhs).max()

    def test_solve_2d_axis_matches_columns(self):
        rng = np.random.default_rng(8)
        Q = rng.normal(size=(12, 5))
        w = WeightOperator(10.0)
        X = solve_weighting(w, Q, axis=0)
        for j in range(5):
            assert_allclose(X[:, j], solve_weighting(w, Q[:, j]), rtol=1e-14)
        Y = solve_weighting(w, Q.T, axis=1)
        assert_allclose(Y.T, X, rtol=1e-14)

    def test_singular_endpoint_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solve_weighting(WeightOperator(2.0), np.zeros(8))

    def test_commutation(self):
        rng = np.random.default_rng(9)
        u = rng.normal(size=23)
        w4, w10 = WeightOperator(4.0), WeightOperator(10.0)
        ab = apply_weighting(w4, apply_weighting(w10, u))
        ba = apply_weighting(w10, apply_weighting(w4, u))
        assert np.abs(ab - ba).max() <= 1e-13

    def test_chain_apply(self):
        rng = np.random.default_rng(10)
        u = rng.normal(size=16)
        out = apply_weighting_chain((10.0, 4.0), u)
        ref = apply_weighting(WeightOperator(4.0), apply_weighting(WeightOperator(10.0), u))
        assert_allclose(out, ref, rtol=1e-15)


class TestDiffStencil:
    @pytest.mark.parametrize("order,alpha", [(4, None), (6, 0.5), (8, None)])
    def test_first_antisymmetric_zero_sum(self, order, alpha):
        row = np.array(difference_stencil(first_derivative_coefficients(order, alpha)).row)
        assert abs(row.sum()) < 1e-16
        assert_allclose(row, -row[::-1], rtol=0, atol=1e-16)

    @pytest.mark.parametrize("order,alpha", [(4, None), (6, 0.3), (8, None)])
    def test_second_symmetric_zero_sum(self, order, alpha):
        row = np.array(difference_stencil(second_derivative_coefficients(order, alpha)).row)
        assert abs(row.sum()) < 1e-14
        assert_allclose(row, row[::-1], rtol=0, atol=1e-16)


class TestCompactDerivative:
    def test_constant_maps_to_zero(self):
        for make, order in ((first_derivative_coefficients, 4),
                            (first_derivative_coefficients, 8),
                            (second_derivative_coefficients, 4),
                            (second_derivative_coefficients, 8)):
            cs = make(order)
            out = compact_derivative(cs, np.full(24, 2.5), 0.1)
            assert np.abs(out).max() < 1e-13

    def _error(self, cs, n, deriv):
        x = 2 * np.pi * np.arange(1, n + 1) / n
        dx = 2 * np.pi / n
        num = compact_derivative(cs, np.sin(x), dx)
        exact = np.cos(x) if deriv == 1 else -np.sin(x)
        return np.abs(num - exact).max()

    def test_order4_ratio(self):
        cs = first_derivative_coefficients(4)
        ratio = self._error(cs, 40, 1) / self._error(cs, 80, 1)
        assert 14 <= ratio <= 18

    def test_order6_ratio(self):
        cs = first_derivative_coefficients(6, 0.5)
        ratio = self._error(cs, 20, 1) / self._error(cs, 40, 1)
        assert 50 <= ratio <= 80

    def test_order8_ratio(self):
        cs = first_derivative_coefficients(8)
        ratio = self._error(cs, 20, 1) / self._error(cs, 40, 1)
        assert 200 <= ratio <= 320

    def test_second_derivative_ratios(self):
        cs = second_derivative_coefficients(4)
        ratio = self._error(cs, 40, 2) / self._error(cs, 80, 2)
        assert 14 <= ratio <= 18
        cs = second_derivative_coefficients(8)
        ratio = self._error(cs, 16, 2) / self._error(cs, 32, 2)
        assert 200 <= ratio <= 330

    def test_resolved_exactness(self):
        # fine enough grids push the lowest mode under 1e-11
        for cs, n in ((first_derivative_coefficients(4), 2000),
                      (first_derivative_coefficients(6, 0.5), 500),
                      (first_derivative_coefficients(8), 160)):
            assert self._error(cs, n, 1) <= 1e-11

    def test_dx_validation(self):
        with pytest.raises(ValueError):
            compact_derivative(first_derivative_coefficients(4), np.zeros(8), -1.0)


# ---------------------------------------------------------------------------
# Kernel equivalence: the slice kernels and the cached LAPACK factors give
# the same bits (signed zeros included) as the np.roll / solve_banded forms
# ---------------------------------------------------------------------------

def bits_equal(a, b):
    """Equal values bit for bit, signed zeros included, and equal memory layout."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and a.strides == b.strides
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


def roll_weighting(c, u, axis=0):
    return (np.roll(u, 1, axis=axis) + c * u + np.roll(u, -1, axis=axis)) / (c + 2.0)


def roll_stencil(stencil, f, axis=0):
    out = np.zeros_like(f)
    for k, coef in enumerate(stencil.row, start=-stencil.half_width):
        if coef != 0.0:
            out += coef * np.roll(f, -k, axis=axis)
    return out


def banded_cyclic_solve(c, rhs, axis=0):
    """Sherman-Morrison on scipy's banded solve, rebuilt on every call."""
    moved = np.moveaxis(rhs, axis, 0)
    n = moved.shape[0]
    d, off = c / (c + 2.0), 1.0 / (c + 2.0)
    gamma = -d
    ab = np.zeros((3, n))
    ab[0, 1:] = off
    ab[1] = d
    ab[1, 0] = d - gamma
    ab[1, -1] = d - off * off / gamma
    ab[2, :-1] = off
    uvec, vvec = np.zeros(n), np.zeros(n)
    uvec[0], uvec[-1] = gamma, off
    vvec[0], vvec[-1] = 1.0, off / gamma
    z = solve_banded((1, 1), ab, uvec)
    y = solve_banded((1, 1), ab, moved.reshape(n, -1))
    corr = (vvec @ y) / (1.0 + vvec @ z)
    x = y - z[:, None] * corr[None, :]
    return np.moveaxis(x.reshape(moved.shape), 0, axis)


def banded_open_solve(c, rhs, edge_rows=False):
    n = rhs.shape[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = ab[2, :-1] = 1.0 / (c + 2.0)
    ab[1] = c / (c + 2.0)
    if edge_rows:
        ab[1, 0] = ab[1, -1] = c / (c + 1.0)
        ab[0, 1] = ab[2, -2] = 1.0 / (c + 1.0)
    return solve_banded((1, 1), ab, rhs)


def awkward(rng, shape):
    """Random data of mixed scale with signed zeros and subnormals mixed in."""
    u = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    flat = u.reshape(-1)
    flat[::7] = 0.0
    flat[3::11] = -0.0
    flat[5::13] = 5e-324
    return u


FACTOR_CS = sorted({c for cs in (first_derivative_coefficients(6), first_derivative_coefficients(8),
                                 second_derivative_coefficients(6), second_derivative_coefficients(8))
                    for c in recovery_chain(cs)})
STENCILS = [difference_stencil(make(order))
            for make in (first_derivative_coefficients, second_derivative_coefficients)
            for order in (4, 8)]


class TestKernelEquivalence:
    @pytest.mark.parametrize("c", [2.0, 4.0, 10.0, 12.3])
    def test_weighting_matches_roll(self, c):
        rng = np.random.default_rng(21)
        w = WeightOperator(c)
        for n in (3, 4, 7, 320):
            u = awkward(rng, n)
            assert bits_equal(apply_weighting(w, u), roll_weighting(c, u))
        U = awkward(rng, (9, 6))
        for axis in (0, 1):
            assert bits_equal(apply_weighting(w, U, axis=axis), roll_weighting(c, U, axis))
            assert bits_equal(apply_weighting(w, U.T, axis=axis), roll_weighting(c, U.T, axis))

    @pytest.mark.parametrize("stencil", STENCILS,
                             ids=lambda s: f"d{s.derivative_order}-hw{s.half_width}")
    def test_stencil_matches_roll(self, stencil):
        assert stencil.half_width in (1, 2)
        rng = np.random.default_rng(22)
        for n in (2, 3, 5, 320):
            f = awkward(rng, n)
            assert bits_equal(stencil.apply(f), roll_stencil(stencil, f))
        F = awkward(rng, (8, 11))
        for axis in (0, 1):
            assert bits_equal(stencil.apply(F, axis=axis), roll_stencil(stencil, F, axis))
            assert bits_equal(stencil.apply(F.T, axis=axis), roll_stencil(stencil, F.T, axis))

    def test_stencil_signed_zero_start(self):
        # the first term is added onto +0, so a -0 product comes out as +0
        stencil = difference_stencil(first_derivative_coefficients(4))
        out = stencil.apply(np.array([-0.0, -0.0, -0.0, -0.0]))
        assert bits_equal(out, np.zeros(4))

    @pytest.mark.parametrize("c", [4.0, 10.0] + FACTOR_CS)
    @pytest.mark.parametrize("n", [3, 4, 7, 320])
    def test_cyclic_solve_matches_banded(self, c, n):
        rng = np.random.default_rng(n)
        w = WeightOperator(c)
        for _ in range(20):
            rhs = awkward(rng, n)
            assert bits_equal(solve_weighting(w, rhs), banded_cyclic_solve(c, rhs))
        R = awkward(rng, (n, 5))
        for axis, arr in ((0, R), (1, R.T), (1, np.ascontiguousarray(R.T))):
            assert bits_equal(solve_weighting(w, arr, axis=axis),
                              banded_cyclic_solve(c, arr, axis))

    @pytest.mark.parametrize("c", [4.0, 10.0, 12.3])
    @pytest.mark.parametrize("edge_rows", [False, True])
    def test_open_solve_matches_banded(self, c, edge_rows):
        rng = np.random.default_rng(23)
        for n in (3, 4, 7, 200):
            for _ in range(10):
                rhs = awkward(rng, n)
                assert bits_equal(solve_open_weighting(c, rhs, edge_rows=edge_rows),
                                  banded_open_solve(c, rhs, edge_rows))

    def test_open_solve_edge_rows_residual(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=12)
        w = np.empty(12)
        w[1:-1] = (x[:-2] + 10.0 * x[1:-1] + x[2:]) / 12.0
        w[0] = (10.0 * x[0] + x[1]) / 11.0
        w[-1] = (x[-2] + 10.0 * x[-1]) / 11.0
        assert_allclose(solve_open_weighting(10.0, w, edge_rows=True), x, rtol=0, atol=1e-14)

    def test_open_solve_needs_three_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            solve_open_weighting(4.0, np.ones(2))

    def test_cached_workspaces_are_read_only(self):
        # every caller shares the cached arrays, so none may change them
        factors, z, vvec, _ = _cyclic_workspace(9, 4.0)
        for arr in (*factors, z, vvec, *_tridiag_workspace(9, 10.0, True)):
            assert not arr.flags.writeable


class TestSolveNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cyclic_names_index(self, bad):
        rhs = np.ones(10)
        rhs[6] = bad
        with pytest.raises(ValueError, match=r"non-finite value .* at index 6$"):
            solve_weighting(WeightOperator(4.0), rhs)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_cyclic_2d_index_in_caller_layout(self, axis):
        rhs = np.ones((6, 8))
        rhs[4, 2] = np.nan
        rhs[5, 1] = np.inf
        with pytest.raises(ValueError, match=r"at index \(4, 2\)"):
            solve_weighting(WeightOperator(10.0), rhs, axis=axis)

    @pytest.mark.parametrize("edge_rows", [False, True])
    def test_open_names_index(self, edge_rows):
        rhs = np.ones(9)
        rhs[0] = -np.inf
        with pytest.raises(ValueError, match="non-finite value -inf at index 0"):
            solve_open_weighting(10.0, rhs, edge_rows=edge_rows)
