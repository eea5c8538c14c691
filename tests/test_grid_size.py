"""Grids too small for a scheme are rejected when the scheme is built.

Periodic 1D and 2D schemes need 3 points per direction (the periodic
weighting solve), inflow-outflow needs 4 interior points (the outflow
value extrapolates the last four means) and Dirichlet needs 3 interior
points.  One point less fails before the first step, naming the problem
and the minimum; the minimum itself runs.
"""

import numpy as np
import pytest

from compactbp.cli import main
from compactbp.harness import RunConfig, build_scheme, run_level
from compactbp.problems import builtin
from compactbp.schemes2d import PeriodicScheme2D, StepContext2D

MINIMUM = [
    ("linadv-sin4", dict(order=4), 3),
    ("linadv-sin4-half", dict(order=8), 3),
    ("2d-linadv", {}, 3),
    ("inflow-burgers", {}, 4),
    ("dirichlet-convdiff", {}, 3),
]


@pytest.mark.parametrize("problem, kwargs, minimum", MINIMUM)
def test_below_minimum_is_rejected(problem, kwargs, minimum):
    n = minimum - 1
    config = RunConfig(problem=problem, n=n, T=0.01, bp_limiter=True, **kwargs)
    with pytest.raises(ValueError, match=f"{problem} needs (N|nx) >= {minimum} grid points"):
        build_scheme(config, n)


@pytest.mark.parametrize("problem, kwargs, minimum", MINIMUM)
def test_minimum_runs(problem, kwargs, minimum):
    config = RunConfig(problem=problem, n=minimum, T=0.01, bp_limiter=True, **kwargs)
    result = run_level(config, minimum)
    bounds = builtin(problem).bounds
    assert result["steps"] >= 1
    assert np.isfinite(result["state"]).all()
    assert bounds.lower <= result["min_u"] and result["max_u"] <= bounds.upper


def test_2d_checks_each_direction():
    prob = builtin("2d-linadv")
    ctx = StepContext2D(0.1, 0.1)
    with pytest.raises(ValueError, match="ny >= 3"):
        PeriodicScheme2D(prob, ctx, nx=3, ny=2)
    PeriodicScheme2D(prob, ctx, nx=3, ny=3)


def test_cli_rejects_before_the_first_step(capsys):
    # a single interior point used to fail inside the step on a broadcast
    assert main(["solve", "--problem", "dirichlet-convdiff", "--N", "1", "--T", "0.01"]) == 2
    assert "dirichlet-convdiff needs N >= 3" in capsys.readouterr().err
