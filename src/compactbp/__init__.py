"""Bound-preserving compact finite-difference solvers.

High-order implicit (Pade-type) finite differences on uniform grids whose
tridiagonal weighted means are monotone functions of the point values
under a CFL constraint; a conservative three-point limiter then keeps the
point values inside the invariant interval of the initial data without
losing accuracy or the global sum.
"""

from .limiters import (Bounds, LimiterReport, RedistributionError,
                       SetClassification, WeakMonotonicityError, classify_sets,
                       limit_bounds, limit_bounds_segment)
from .operators import (CoefficientDomainError, CoefficientSet, DiffStencil,
                        apply_weighting, difference_stencil,
                        first_derivative_coefficients, recovery_chain,
                        second_derivative_coefficients, solve_weighting)
from .schemes1d import (PeriodicScheme1D, Problem1D, Scheme, StepContext,
                        max_stable_dt)
from .schemes2d import PeriodicScheme2D, Problem2D, StepContext2D
from .boundary import (DirichletConvDiffScheme, InflowOutflowScheme,
                       outflow_extrapolate)
from .problems import BUILTIN_IDS, barenblatt, builtin
from .timeint import METHODS, CflError, SspIntegrator, schedule_run
from .harness import (ConfigError, ErrorRow, RunConfig, error_norms,
                      run_convergence_study, run_single)

__version__ = "0.1.0"
