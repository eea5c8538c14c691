"""Rules and derived facts that have one source each.

* the c >= 2 refusal: the weightings and both limiter entry points raise
  the same ``CoefficientDomainError``;
* the derivative-bound check shared by ``Problem1D`` and ``Problem2D``;
* the problem table, and with it ``BUILTIN_IDS`` and the aliases;
* the derived ``LimiterReport.rebalance_used`` and
  ``StepContext.accuracy_order``;
* the fixed-end sawtooth refusal of ``limit_bounds_segment``, which is
  pinned here, and a lattice at c = 4, the only c-value the open schemes
  limit with fixed ends, which the limiter repairs without refusing.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import limiter_oracle as oracle
from compactbp.limiters import (Bounds, LimiterReport, RedistributionError, limit_bounds,
                                limit_bounds_segment)
from compactbp.operators import CoefficientDomainError, apply_weighting, solve_weighting
from compactbp.problems import BUILTIN_IDS, builtin
from compactbp.schemes1d import StepContext

UNIT = Bounds(0.0, 1.0)


def _segment_matrix(n, c):
    """Three-point rows of the c-weighting on a segment; the fixed end
    values complete the first and last row."""
    return (np.diag(np.full(n, c)) + np.diag(np.ones(n - 1), 1)
            + np.diag(np.ones(n - 1), -1)) / (c + 2)


class TestCRefusal:
    @pytest.mark.parametrize("entry", ["periodic", "edge", "fixed"])
    def test_limiter_refuses_like_the_weightings(self, entry):
        u = np.full(6, 0.5)
        kwargs = {"periodic": {}, "edge": dict(edge_rows=True),
                  "fixed": dict(left=0.5, right=0.5)}[entry]
        limit = limit_bounds if entry == "periodic" else limit_bounds_segment
        with pytest.raises(CoefficientDomainError, match="requires c >= 2, got 1.9") as err:
            limit(u, UNIT, 1.9, **kwargs)
        with pytest.raises(CoefficientDomainError) as want:
            apply_weighting(1.9, u)
        assert str(err.value) == str(want.value)

    def test_short_segment_takes_the_c_check_only(self):
        # a segment shorter than a periodic line's 3 points is limited at
        # c >= 2 and refused below it, without the periodic length rule
        v, _ = limit_bounds_segment(np.array([0.5, 0.5]), UNIT, 4.0, left=0.5, right=0.5)
        assert v.tolist() == [0.5, 0.5]
        with pytest.raises(CoefficientDomainError):
            limit_bounds_segment(np.array([0.5, 0.5]), UNIT, 1.9, left=0.5, right=0.5)
        with pytest.raises(ValueError, match="at least 3 points"):
            solve_weighting(4.0, np.array([0.5, 0.5]))


# (builtin id, bound field) for every derivative bound of both problem types
BOUND_FIELDS = [("convdiff-lin", name) for name in ("max_fprime", "min_fprime", "max_aprime")]
BOUND_FIELDS += [("2d-convdiff", name)
                 for name in ("max_fprime", "max_gprime", "max_aprime", "max_bprime")]
# every bound must be finite, and every maximum nonnegative
BAD_BOUNDS = [(pid, name, bad) for pid, name in BOUND_FIELDS
              for bad in (np.nan, np.inf, -np.inf) + ((-1.0,) if name[:4] == "max_" else ())]


class TestDerivativeBounds:
    @pytest.mark.parametrize("pid,name,bad", BAD_BOUNDS)
    def test_bad_bound_names_its_field(self, pid, name, bad):
        with pytest.raises(ValueError, match=f"derivative bound {name} must be"):
            dataclasses.replace(builtin(pid), **{name: bad})

    @pytest.mark.parametrize("pid,name", BOUND_FIELDS)
    def test_finite_bounds_are_kept(self, pid, name):
        value = -0.5 if name.startswith("min_") else 0.0
        assert getattr(dataclasses.replace(builtin(pid), **{name: value}), name) == value

    def test_unset_minimum_is_not_checked(self):
        assert dataclasses.replace(builtin("convdiff-lin"), min_fprime=None).min_fprime is None


class TestProblemTable:
    def test_ids_in_order(self):
        assert BUILTIN_IDS == (
            "linadv-sin4", "linadv-sin4-half", "linadv-step", "burgers-sin",
            "convdiff-lin", "pme-1d", "pme-1d-m5", "pme-1d-m8", "inflow-burgers",
            "dirichlet-convdiff", "2d-linadv", "2d-burgers", "2d-convdiff",
            "2d-pme", "2d-pme-m3", "2d-pme-m4", "2d-pme-m5",
        )

    @pytest.mark.parametrize("alias,name", [("pme-1d", "pme-1d-m5"), ("2d-pme", "2d-pme-m3")])
    def test_alias_builds_its_problem(self, alias, name):
        assert builtin(alias).name == name
        assert builtin(alias).max_aprime == builtin(name).max_aprime

    def test_names_are_ids(self):
        for pid in BUILTIN_IDS:
            assert builtin(pid).name in BUILTIN_IDS


class TestDerivedFields:
    def test_rebalance_used_follows_sawtooth_count(self):
        assert not LimiterReport().rebalance_used
        assert LimiterReport(sawtooth_count=2).rebalance_used
        merged = LimiterReport().merge(LimiterReport(sawtooth_count=1))
        assert merged.rebalance_used and merged.sawtooth_count == 1

    def test_rebalance_used_is_not_stored(self):
        with pytest.raises(TypeError):
            LimiterReport(rebalance_used=True)
        with pytest.raises(AttributeError):
            LimiterReport().rebalance_used = True

    @pytest.mark.parametrize("order", [4, 6, 8])
    def test_accuracy_order_is_the_coefficients(self, order):
        ctx = StepContext.create(0.1, order)
        assert ctx.accuracy_order == ctx.cs1.accuracy_order == order
        assert "accuracy_order" not in {f.name for f in dataclasses.fields(StepContext)}


class TestFixedEndSawtooth:
    def test_run_spanning_the_segment_is_refused(self):
        # every c = 2.5 mean is in [-1, 0] with both ends 0, but all three
        # points are out of range, so the sawtooth set has no in-range
        # member and its sum lies below the feasible band
        u = np.linalg.solve(_segment_matrix(3, 2.5), [-1.0, 0.0, -1.0])
        for limit in (limit_bounds_segment, oracle.limit_bounds_segment):
            with pytest.raises(RedistributionError, match="outside feasible band"):
                limit(u, Bounds(-1.0, 0.0), 2.5, left=0.0, right=0.0)

    def test_c4_lattice_is_limited(self):
        # means and end values on {0, 1/2, 1}; all lines of one segment
        # length and one pair of ends are limited in one call
        levels = (0.0, 0.5, 1.0)
        for n in range(3, 7):
            means = np.array(list(itertools.product(levels, repeat=n))).T
            for left, right in itertools.product(levels, repeat=2):
                rhs = means.copy()
                rhs[0] -= left / 6.0
                rhs[-1] -= right / 6.0
                u = np.linalg.solve(_segment_matrix(n, 4.0), rhs)
                v, _ = limit_bounds_segment(u, UNIT, 4.0, left=left, right=right,
                                            means=means)
                assert v.min() >= 0.0 and v.max() <= 1.0
