"""The batched limiter core against the per-point loop oracle, and its
properties on admissible data.

Admissible data is built as ``W^{-1}(means in bounds)``: point values
whose c-weighted means lie inside the bounds, which is exactly the
limiter's precondition.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limiter_oracle as oracle
from compactbp.limiters import (Bounds, RedistributionError, WeakMonotonicityError,
                                classify_sets, limit_bounds, limit_bounds_segment)
from compactbp.operators import apply_weighting, solve_weighting
from compactbp.problems import builtin
from compactbp.schemes2d import PeriodicScheme2D, Problem2D, StepContext2D

UNIT = Bounds(0.0, 1.0)


def admissible_with_means(rng, shape, bounds, c, axis=0):
    """Admissible point values and the means they were solved from."""
    means = rng.uniform(bounds.lower, bounds.upper, shape)
    return solve_weighting(c, means, axis=axis), means


def admissible(rng, shape, bounds, c, axis=0):
    return admissible_with_means(rng, shape, bounds, c, axis)[0]


def same_bits(a, b):
    """Equal values and equal signs of zero: the arrays are bit for bit equal."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def out_of_range(u, bounds):
    return (u < bounds.lower) | (u > bounds.upper)


def limiter_and_oracle(ends):
    """The core limiter, its oracle and their keywords for one end treatment:
    ``ends`` None (periodic), ``"edge"`` or the pair of fixed end values."""
    if ends is None:
        return limit_bounds, oracle.limit_bounds, {}
    kw = dict(edge_rows=True) if ends == "edge" else dict(left=ends[0], right=ends[1])
    return limit_bounds_segment, oracle.limit_bounds_segment, kw


def _segment_matrix(n, c, edge_rows):
    """The c-weighting of a segment: two-point end rows, or three-point rows
    completed by fixed end values (whose terms the caller adds)."""
    A = (np.diag(np.full(n, c)) + np.diag(np.ones(n - 1), 1)
         + np.diag(np.ones(n - 1), -1)) / (c + 2)
    if edge_rows:
        A[0, :2] = [c / (c + 1), 1 / (c + 1)]
        A[-1, -2:] = [1 / (c + 1), c / (c + 1)]
    return A


def edge_row_field_with_means(rng, n, c):
    """Point values whose two-point end rows and interior means are in [0, 1],
    and those means."""
    means = rng.uniform(0, 1, n)
    return np.linalg.solve(_segment_matrix(n, c, edge_rows=True), means), means


def edge_row_field(rng, n, c):
    return edge_row_field_with_means(rng, n, c)[0]


def fixed_end_field_with_means(rng, n, c, ends=None):
    """Point values whose means, completed by two fixed end values, are in
    [0, 1], the end values, and those means."""
    left, right = rng.uniform(0, 1, 2) if ends is None else ends
    means = rng.uniform(0, 1, n)
    rhs = means.copy()
    rhs[0] -= left / (c + 2)
    rhs[-1] -= right / (c + 2)
    return np.linalg.solve(_segment_matrix(n, c, edge_rows=False), rhs), left, right, means


def fixed_end_field(rng, n, c, ends=None):
    return fixed_end_field_with_means(rng, n, c, ends)[:3]


class TestMatchesOracle:
    CASES = [(8, 4.0, UNIT), (16, 10.0, UNIT), (33, 2.5, Bounds(-0.5, 1.5)),
             (12, 4.0, Bounds(-2.0, -1.0)), (5, 2.5, UNIT)]

    def test_periodic_lines(self):
        rng = np.random.default_rng(11)
        sawtooth = 0
        for n, c, bounds in self.CASES:
            for _ in range(300):
                u = admissible(rng, n, bounds, c)
                want, want_rep = oracle.limit_bounds(u, bounds, c)
                got, rep = limit_bounds(u, bounds, c)
                assert same_bits(got, want)
                assert rep.modified_count == want_rep.modified_count
                assert rep.sawtooth_count == want_rep.sawtooth_count
                assert rep.whole_circle_fallback == want_rep.whole_circle_fallback
                assert rep.max_displacement == want_rep.max_displacement
                sawtooth += rep.sawtooth_count
        assert sawtooth > 0  # the sets path was exercised

    def test_lattice_with_sawtooth_and_whole_circle(self):
        lattice = np.array([-0.25, 0.0, 0.5, 1.0, 1.25])
        whole = sets = 0
        for combo in itertools.product(range(5), repeat=5):
            u = lattice[list(combo)]
            means = apply_weighting(4.0, u)
            if means.min() < 0.0 or means.max() > 1.0:
                continue
            want, want_rep = oracle.limit_bounds(u, UNIT, 4.0)
            got, rep = limit_bounds(u, UNIT, 4.0)
            assert same_bits(got, want)
            assert rep.sawtooth_count == want_rep.sawtooth_count
            whole += rep.whole_circle_fallback
            sets += rep.sawtooth_count
        assert whole > 0 and sets > whole

    @pytest.mark.parametrize("axis", [0, 1])
    def test_batched_columns(self, axis):
        rng = np.random.default_rng(12 + axis)
        for c in (2.5, 4.0, 10.0):
            for _ in range(40):
                shape = tuple(int(k) for k in rng.integers(3, 24, 2))
                u = admissible(rng, shape, UNIT, c, axis=axis)
                want, want_rep = oracle.limit_lines(u, UNIT, c, axis)
                got, rep = limit_bounds(u, UNIT, c, axis=axis)
                assert same_bits(got, want)
                assert got.flags.f_contiguous == u.flags.f_contiguous
                assert rep.modified_count == want_rep.modified_count
                assert rep.sawtooth_count == want_rep.sawtooth_count
                assert rep.max_displacement == want_rep.max_displacement

    def test_keeps_memory_order(self):
        # sums over the result add in the same order as over the input
        rng = np.random.default_rng(19)
        for u in (np.full((6, 5), 0.5), admissible(rng, (6, 5), UNIT, 2.5)):
            got, rep = limit_bounds(np.asfortranarray(u), UNIT, 2.5)
            assert got.flags.f_contiguous

    def test_wrap_row_sources(self):
        # rows 0 and n-1 take shares from sources on both sides, one of
        # them across the wrap: the sweep order there differs from the
        # interior rows
        rng = np.random.default_rng(13)
        hit = 0
        for _ in range(3000):
            n = int(rng.integers(4, 9))
            u = admissible(rng, n, UNIT, 2.5)
            out = out_of_range(u, UNIT)
            if not ((out[1] and out[-1] and not out[0])
                    or (out[0] and out[-2] and not out[-1])):
                continue
            hit += 1
            want, _ = oracle.limit_bounds(u, UNIT, 2.5)
            got, _ = limit_bounds(u, UNIT, 2.5)
            assert same_bits(got, want)
        assert hit > 20

    def test_zero_headroom_neighbour_keeps_its_sign(self):
        # the upper bound is 0 and the source 0.1 has a -0.0 neighbour: that
        # neighbour has no headroom, takes no share and stays -0.0
        u = np.array([-0.5, -0.0, 0.1, -0.5])
        for ends in (None, "edge", (-0.5, -0.5)):
            core, reference, kw = limiter_and_oracle(ends)
            want, _ = reference(u, Bounds(-1.0, 0.0), 4.0, **kw)
            got, _ = core(u, Bounds(-1.0, 0.0), 4.0, **kw)
            assert np.signbit(want[1]) and same_bits(got, want)

    def test_source_without_headroom(self):
        # an excursion just past the slack between two points on the bound:
        # the means are admissible, but no neighbour can take it
        u = np.array([0.5, 0.0, -1.2e-12, 0.0, 0.5])
        message = "no headroom to repair excursion of 1.200e-12 at index 2"
        assert _outcome(limit_bounds, u, UNIT, 4.0)[1] == message
        assert _outcome(oracle.limit_bounds, u, UNIT, 4.0)[1] == message
        field = np.full((3, 5), 0.5)
        field[1] = u
        with pytest.raises(RedistributionError, match=r"at index \(1, 2\)"):
            limit_bounds(field, UNIT, 4.0, axis=1)

    def test_as_many_excursions_as_line_points(self):
        # n out-of-range points spread over several lines: no line is
        # without an in-range point
        rng = np.random.default_rng(20)
        n, c = 8, 2.5
        lines = []
        while len(lines) < 4:
            line = admissible(rng, n, UNIT, c)
            if out_of_range(line, UNIT).sum() == 2:
                lines.append(line)
        u = np.stack(lines + [np.full(n, 0.5)], axis=1)
        assert out_of_range(u, UNIT).sum() == n
        for axis, field in ((0, u), (1, u.T)):
            want, want_rep = oracle.limit_lines(field, UNIT, c, axis)
            got, rep = limit_bounds(field, UNIT, c, axis=axis)
            assert same_bits(got, want)
            assert rep.modified_count == want_rep.modified_count
            assert rep.sawtooth_count == want_rep.sawtooth_count
            assert not (rep.whole_circle_fallback or want_rep.whole_circle_fallback)

    def test_one_line_out_of_range_everywhere(self):
        # alternating 1.1/-0.1 has c=4 means 0.7/0.3: one whole-circle line
        rng = np.random.default_rng(21)
        u = admissible(rng, (8, 5), UNIT, 4.0)
        u[:, 2] = np.tile([1.1, -0.1], 4)
        for axis, field in ((0, u), (1, u.T)):
            want, want_rep = oracle.limit_lines(field, UNIT, 4.0, axis)
            got, rep = limit_bounds(field, UNIT, 4.0, axis=axis)
            assert same_bits(got, want)
            assert rep.modified_count == want_rep.modified_count
            assert rep.sawtooth_count == want_rep.sawtooth_count
            assert rep.whole_circle_fallback and want_rep.whole_circle_fallback

    def test_edge_row_segments(self):
        rng = np.random.default_rng(14)
        for c in (4.0, 10.0):
            for _ in range(300):
                u = edge_row_field(rng, int(rng.integers(2, 12)), c)
                want, want_rep = oracle.limit_bounds_segment(u, UNIT, c, edge_rows=True)
                got, rep = limit_bounds_segment(u, UNIT, c, edge_rows=True)
                assert same_bits(got, want)
                assert rep.modified_count == want_rep.modified_count
                assert rep.boundary_exchange == 0.0

    def test_fixed_end_segments(self):
        rng = np.random.default_rng(15)
        exchanged = 0
        for c in (4.0, 10.0):
            for _ in range(300):
                u, left, right = fixed_end_field(rng, int(rng.integers(1, 12)), c)
                want, want_rep = oracle.limit_bounds_segment(u, UNIT, c, left=left, right=right)
                got, rep = limit_bounds_segment(u, UNIT, c, left=left, right=right)
                assert same_bits(got, want)
                assert rep.boundary_exchange == want_rep.boundary_exchange
                exchanged += rep.boundary_exchange != 0.0
        assert exchanged > 0

    def test_segment_columns(self):
        # n-d input limits each column as its own segment
        rng = np.random.default_rng(16)
        lines = [fixed_end_field(rng, 9, 4.0, ends=(0.3, 0.8))[0] for _ in range(30)]
        got, rep = limit_bounds_segment(np.stack(lines, axis=1), UNIT, 4.0,
                                        left=0.3, right=0.8)
        exchange = 0.0
        for k, line in enumerate(lines):
            want, want_rep = oracle.limit_bounds_segment(line, UNIT, 4.0, left=0.3, right=0.8)
            assert same_bits(got[:, k], want)
            exchange += want_rep.boundary_exchange
        assert exchange != 0.0
        assert rep.boundary_exchange == pytest.approx(exchange, abs=1e-15)
        edge = [edge_row_field(rng, 7, 10.0) for _ in range(20)]
        got, _ = limit_bounds_segment(np.stack(edge, axis=1), UNIT, 10.0, edge_rows=True)
        for k, line in enumerate(edge):
            want, _ = oracle.limit_bounds_segment(line, UNIT, 10.0, edge_rows=True)
            assert same_bits(got[:, k], want)

    @pytest.mark.parametrize("problem, order", [("2d-pme-m3", "xy"), ("2d-convdiff", "yx")])
    def test_2d_recovery(self, problem, order):
        prob = builtin(problem)
        scheme = PeriodicScheme2D(prob, StepContext2D(0.1, 0.1))
        rng = np.random.default_rng(17)
        q = rng.uniform(prob.bounds.lower, prob.bounds.upper, (20, 24))
        q = oriented(q, order)
        want = q
        for c, axis in scheme.levels:
            want = solve_weighting(c, want, axis=axis)
            want, _ = oracle.limit_lines(want, prob.bounds, c, axis)
        got, rep = scheme.recover(q)
        assert same_bits(got, want)
        assert rep.modified_count > 0
        # same memory order as limiting in place, so sums add up alike
        assert got.sum() == want.sum()


def oriented(q, order):
    """``q`` for an x-first sweep ("xy"), or its transpose, whose recovery
    sweeps the original y axis first ("yx")."""
    return q if order == "xy" else q.T


def convection_scheme(bounds=UNIT):
    prob = Problem2D(name="unit-adv", x_lo=0.0, x_hi=1.0, y_lo=0.0, y_hi=1.0,
                     bounds=bounds, initial=lambda x, y: 0.5 + 0 * x,
                     flux_x=lambda u: u, max_fprime=1.0)
    return PeriodicScheme2D(prob, StepContext2D(0.1, 0.1))


class TestReports2D:
    def test_whole_circle_line_is_reported(self):
        # one grid line has no in-range point at all (alternating
        # 1.1/-0.1 has c=4 means 0.3/0.7); recovery must say so
        field = np.full((8, 6), 0.5)
        field[:, 3] = np.tile([1.1, -0.1], 4)
        q = apply_weighting(4.0, field, axis=0)
        u, rep = convection_scheme().recover(q)
        assert rep.whole_circle_fallback
        assert rep.rebalance_used
        assert u.min() >= 0.0 and u.max() <= 1.0
        assert u.sum() == pytest.approx(field.sum(), abs=1e-12)

    def test_one_call_matches_line_reports(self):
        rng = np.random.default_rng(18)
        u = admissible(rng, (16, 12), UNIT, 2.5, axis=1)
        _, want = oracle.limit_lines(u, UNIT, 2.5, 1)
        _, rep = limit_bounds(u, UNIT, 2.5, axis=1)
        assert rep.modified_count == want.modified_count
        assert rep.sawtooth_count == want.sawtooth_count
        assert rep.rebalance_used == want.rebalance_used
        assert rep.whole_circle_fallback == want.whole_circle_fallback
        assert rep.conservation_residual == pytest.approx(want.conservation_residual,
                                                          abs=1e-14)


class TestGivenMeans:
    """``means=`` (the solve's right-hand side) changes no output bit.

    The cases and seeds are those of ``TestMatchesOracle``.
    """

    def test_periodic_lines(self):
        rng = np.random.default_rng(11)
        for n, c, bounds in TestMatchesOracle.CASES:
            for _ in range(300):
                u, means = admissible_with_means(rng, n, bounds, c)
                want, want_rep = limit_bounds(u, bounds, c)
                got, rep = limit_bounds(u, bounds, c, means=means)
                assert same_bits(got, want)
                assert rep == want_rep

    def test_lattice(self):
        lattice = np.array([-0.25, 0.0, 0.5, 1.0, 1.25])
        for combo in itertools.product(range(5), repeat=5):
            u = lattice[list(combo)]
            means = apply_weighting(4.0, u)
            if means.min() < 0.0 or means.max() > 1.0:
                continue
            want, want_rep = limit_bounds(u, UNIT, 4.0)
            got, rep = limit_bounds(u, UNIT, 4.0, means=means)
            assert same_bits(got, want)
            assert rep == want_rep

    @pytest.mark.parametrize("axis", [0, 1])
    def test_batched_columns(self, axis):
        rng = np.random.default_rng(12 + axis)
        for c in (2.5, 4.0, 10.0):
            for _ in range(40):
                shape = tuple(int(k) for k in rng.integers(3, 24, 2))
                u, means = admissible_with_means(rng, shape, UNIT, c, axis=axis)
                want, want_rep = limit_bounds(u, UNIT, c, axis=axis)
                got, rep = limit_bounds(u, UNIT, c, axis=axis, means=means)
                assert same_bits(got, want)
                assert got.flags.f_contiguous == want.flags.f_contiguous
                assert rep == want_rep

    def test_edge_row_segments(self):
        rng = np.random.default_rng(14)
        for c in (4.0, 10.0):
            for _ in range(300):
                u, means = edge_row_field_with_means(rng, int(rng.integers(2, 12)), c)
                want, want_rep = limit_bounds_segment(u, UNIT, c, edge_rows=True)
                got, rep = limit_bounds_segment(u, UNIT, c, edge_rows=True, means=means)
                assert same_bits(got, want)
                assert rep == want_rep

    def test_fixed_end_segments(self):
        rng = np.random.default_rng(15)
        for c in (4.0, 10.0):
            for _ in range(300):
                u, left, right, means = fixed_end_field_with_means(
                    rng, int(rng.integers(1, 12)), c)
                want, want_rep = limit_bounds_segment(u, UNIT, c, left=left, right=right)
                got, rep = limit_bounds_segment(u, UNIT, c, left=left, right=right,
                                                means=means)
                assert same_bits(got, want)
                assert rep == want_rep


class TestBadMeans:
    @pytest.mark.parametrize("bad", [1.0 + 1e-9, -1e-9, np.nan, np.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_out_of_range_names_caller_index(self, bad, axis):
        u = np.full((6, 7), 0.5)
        means = u.copy()
        means[2, 5] = bad
        with pytest.raises(WeakMonotonicityError) as err:
            limit_bounds(u, UNIT, 4.0, axis=axis, means=means)
        assert err.value.index == (2, 5)

    @pytest.mark.parametrize("bad", [1.0 + 1e-9, -1e-9, np.nan])
    def test_out_of_range_segment(self, bad):
        u = np.full(9, 0.5)
        means = u.copy()
        means[3] = bad
        for kwargs in (dict(edge_rows=True), dict(left=0.5, right=0.5)):
            with pytest.raises(WeakMonotonicityError) as err:
                limit_bounds_segment(u, UNIT, 4.0, means=means, **kwargs)
            assert err.value.index == 3

    def test_wrong_shape(self):
        u = np.full((6, 7), 0.5)
        for means in (u.T, u[:-1], u.ravel()):
            with pytest.raises(ValueError, match="shape"):
                limit_bounds(u, UNIT, 4.0, means=means)
        line = np.full(9, 0.5)
        with pytest.raises(ValueError, match="shape"):
            limit_bounds_segment(line, UNIT, 4.0, edge_rows=True, means=line[1:])
        with pytest.raises(ValueError, match="shape"):
            limit_bounds_segment(line, UNIT, 4.0, left=0.5, right=0.5,
                                 means=line[:, None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("given", [True, False])
    def test_non_finite_end_value(self, bad, given):
        # given means cannot show a bad end value, so it is checked itself,
        # with the same error whether or not the means are given
        line = np.full(5, 0.5)
        means = line if given else None
        with pytest.raises(ValueError, match="non-finite end value"):
            limit_bounds_segment(line, UNIT, 4.0, left=0.5, right=bad, means=means)
        with pytest.raises(ValueError, match="non-finite end value"):
            limit_bounds_segment(line, UNIT, 4.0, left=bad, right=0.5, means=means)

    def test_mixed_segment_modes(self):
        # two-point end rows leave no place for fixed end values
        line = np.full(5, 0.5)
        for ends in (dict(left=0.2, right=0.3), dict(left=0.2), dict(right=0.3)):
            with pytest.raises(ValueError, match="edge_rows=True takes no fixed"):
                limit_bounds_segment(line, UNIT, 4.0, edge_rows=True, **ends)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_1d(self, bad):
        u = np.full(9, 0.5)
        u[3] = bad
        with pytest.raises(ValueError, match="non-finite.*index 3"):
            limit_bounds(u, UNIT, 4.0)
        with pytest.raises(ValueError, match="non-finite.*index 3"):
            limit_bounds_segment(u, UNIT, 4.0, edge_rows=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fixed_end_value(self, bad):
        with pytest.raises(ValueError):
            limit_bounds_segment(np.full(5, 0.5), UNIT, 4.0, left=bad, right=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_2d(self, bad, axis):
        u = np.full((6, 7), 0.5)
        u[2, 5] = bad
        with pytest.raises(ValueError, match=r"non-finite.*index \(2, 5\)"):
            limit_bounds(u, UNIT, 4.0, axis=axis)


# ---------------------------------------------------------------------------
# Properties on admissible data
# ---------------------------------------------------------------------------

BOUNDS = [UNIT, Bounds(-0.5, 1.5), Bounds(-2.0, -1.0)]


@st.composite
def admissible_lines(draw):
    n = draw(st.integers(3, 24))
    c = draw(st.sampled_from([2.5, 4.0, 10.0]))
    bounds = draw(st.sampled_from(BOUNDS))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    means = bounds.lower + (bounds.upper - bounds.lower) * np.array(fractions)
    return solve_weighting(c, means), bounds, c


def scale(bounds):
    return max(1.0, abs(bounds.lower), abs(bounds.upper))


@settings(max_examples=300, deadline=None)
@given(admissible_lines())
def test_bounds_sum_and_locality(case):
    u, bounds, c = case
    v, _ = limit_bounds(u, bounds, c)
    assert v.min() >= bounds.lower and v.max() <= bounds.upper
    assert abs(v.sum() - u.sum()) <= 1e-13 * u.size * scale(bounds)
    out = out_of_range(u, bounds)
    shielded = ~(out | np.roll(out, 1) | np.roll(out, -1))
    assert np.array_equal(v[shielded], u[shielded])


@settings(max_examples=300, deadline=None)
@given(admissible_lines(), st.integers(1, 23))
def test_commutes_with_shifts(case, k):
    u, bounds, c = case
    v, rep = limit_bounds(u, bounds, c)
    shifted, _ = limit_bounds(np.roll(u, k), bounds, c)
    if rep.sawtooth_count == 0:
        # shares reach a point in another order only at the wrap rows
        assert np.allclose(shifted, np.roll(v, k), rtol=0, atol=1e-15 * scale(bounds))
    else:
        # sets sharing an end point are rebalanced in index order
        assert shifted.min() >= bounds.lower and shifted.max() <= bounds.upper
        assert abs(shifted.sum() - v.sum()) <= 1e-13 * u.size * scale(bounds)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 12), st.integers(3, 12), st.sampled_from(BOUNDS),
       st.integers(0, 2 ** 32 - 1))
def test_2d_sweep_order(nx, ny, bounds, seed):
    q = np.random.default_rng(seed).uniform(bounds.lower, bounds.upper, (nx, ny))
    for order in ("xy", "yx"):
        u, _ = convection_scheme(bounds).recover(oriented(q, order))
        assert u.min() >= bounds.lower and u.max() <= bounds.upper
        assert abs(u.sum() - q.sum()) <= 1e-13 * q.size * scale(bounds)


@st.composite
def lines_with_signed_zeros(draw):
    """An admissible line under one end treatment, with +0.0 or -0.0 put at
    some in-range points: (u, bounds, c, ends), ``ends`` None (periodic),
    ``"edge"`` or the pair of fixed end values."""
    c = draw(st.sampled_from([2.5, 4.0, 10.0]))
    bounds = draw(st.sampled_from([UNIT, Bounds(-1.0, 0.0)]))
    lo, hi = bounds.span
    ends = draw(st.sampled_from([None, "edge", "fixed"]))
    n = draw(st.integers(3 if ends is None else 2, 16))
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(lo, hi))
    if ends == "fixed":
        ends = (draw(value), draw(value))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    means = lo + (hi - lo) * np.array(fractions)
    if ends is None:
        def means_of(x):
            return apply_weighting(c, x)
        u = solve_weighting(c, means)
    else:
        A = _segment_matrix(n, c, edge_rows=ends == "edge")
        beyond = np.zeros(n)
        if ends != "edge":
            beyond[0], beyond[-1] = ends[0] / (c + 2), ends[-1] / (c + 2)

        def means_of(x):
            return A @ x + beyond
        u = np.linalg.solve(A, means - beyond)
    slack = bounds.tol / 2
    for i, negative in draw(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()),
                                     max_size=n)):
        trial = u.copy()
        trial[i] = -0.0 if negative else 0.0
        m = means_of(trial)
        if lo <= u[i] <= hi and m.min() >= lo - slack and m.max() <= hi + slack:
            u = trial
    return u, bounds, c, ends


def _outcome(limit, *args, **kwargs):
    """``limit``'s result, or the message of its RedistributionError."""
    try:
        return limit(*args, **kwargs), None
    except RedistributionError as exc:
        return None, str(exc)


@settings(max_examples=400, deadline=None)
@given(lines_with_signed_zeros())
def test_matches_oracle_with_signed_zeros(case):
    u, bounds, c, ends = case
    core, reference, kw = limiter_and_oracle(ends)
    want, want_error = _outcome(reference, u, bounds, c, **kw)
    got, error = _outcome(core, u, bounds, c, **kw)
    # a sawtooth run with the fixed end values beyond it can hold more mass
    # than its members can take: both limiters refuse it alike
    assert error == want_error
    if want is not None:
        (v, rep), (want_v, want_rep) = got, want
        assert same_bits(v, want_v)
        assert rep.modified_count == want_rep.modified_count
        assert rep.sawtooth_count == want_rep.sawtooth_count


@st.composite
def lines_around_bounds(draw):
    """A line of 1 to 24 values below, on, inside and above the bounds."""
    bounds = draw(st.sampled_from(BOUNDS))
    lo, hi = bounds.span
    value = st.one_of(st.sampled_from([lo - 0.5, lo, hi, hi + 0.5]),
                      st.floats(lo - 1.0, hi + 1.0))
    return np.array(draw(st.lists(value, min_size=1, max_size=24))), bounds


@settings(max_examples=400, deadline=None)
@given(lines_around_bounds(), st.booleans())
def test_classify_sets_matches_oracle(case, periodic):
    u, bounds = case
    cls = classify_sets(u, bounds, periodic)
    assert (cls.sawtooth_sets, cls.whole_circle) == oracle.classify(u, bounds, periodic)
