"""Non-finite weighted means fail loudly in every scheme's recovery.

The tridiagonal solves run on LAPACK, which has no finite check, so the
solve path checks its right-hand side itself and names the first bad index
in the caller's layout (the index of the means passed to ``recover``).
"""

import numpy as np
import pytest

from compactbp.boundary import DirichletConvDiffScheme, InflowOutflowScheme
from compactbp.problems import builtin
from compactbp.schemes1d import PeriodicScheme1D, StepContext
from compactbp.schemes2d import PeriodicScheme2D, StepContext2D

BAD_VALUES = [np.nan, np.inf, -np.inf]


def _with_bad(q, index, bad):
    q = np.array(q, dtype=float)
    q[index] = bad
    return q


def _expect(index):
    label = index if isinstance(index, int) else f"\\({index[0]}, {index[1]}\\)"
    return rf"non-finite value .* at index {label}$"


@pytest.mark.parametrize("limiting", [False, True])
@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("order", [4, 8])
def test_periodic_1d(order, bad, limiting):
    prob = builtin("linadv-sin4")
    n = 32
    dx = prob.length / n
    scheme = PeriodicScheme1D(prob, StepContext.create(dx, 0.1 * dx, order), n=n)
    q = scheme.means(scheme.initial_state()[0])
    with pytest.raises(ValueError, match=_expect(11)):
        scheme.recover(_with_bad(q, 11, bad), 0.0, limiting)


@pytest.mark.parametrize("limiting", [False, True])
@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("sweep_order", ["xy", "yx"])
@pytest.mark.parametrize("problem", ["2d-linadv", "2d-pme-m3"])
def test_periodic_2d(problem, sweep_order, bad, limiting):
    # "xy" solves along axis 0 first, "yx" along axis 1
    prob = builtin(problem)
    nx, ny = 12, 10
    dx, dy = (prob.x_hi - prob.x_lo) / nx, (prob.y_hi - prob.y_lo) / ny
    scheme = PeriodicScheme2D(prob, StepContext2D(dx, dy, 1e-5), nx=nx, ny=ny,
                              sweep_order=sweep_order)
    q = scheme.means(scheme.initial_state()[0])
    q = _with_bad(q, (7, 3), bad)
    q[9, 1] = np.nan  # later in C order than (7, 3)
    with pytest.raises(ValueError, match=_expect((7, 3))):
        scheme.recover(q, 0.0, limiting)


@pytest.mark.parametrize("limiting", [False, True])
@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("index", [0, 9, 21])
def test_inflow_outflow(index, bad, limiting):
    prob = builtin("inflow-burgers")
    n = 24
    dx = prob.length / (n + 1)
    scheme = InflowOutflowScheme(prob, StepContext.create(dx, 0.1 * dx, 4), n=n)
    q = scheme.means(scheme.initial_state()[0])
    with pytest.raises(ValueError, match=_expect(index)):
        scheme.recover(_with_bad(q, index, bad), 0.0, limiting)


@pytest.mark.parametrize("limiting", [False, True])
@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("index", [0, 9, 23])
def test_dirichlet(index, bad, limiting):
    prob = builtin("dirichlet-convdiff")
    n = 24
    dx = prob.length / (n + 1)
    scheme = DirichletConvDiffScheme(prob, StepContext.create(dx, 0.01 * dx * dx, 4), n=n)
    q = scheme.means(scheme.initial_state()[0])
    with pytest.raises(ValueError, match=_expect(index)):
        scheme.recover(_with_bad(q, index, bad), 0.0, limiting)
