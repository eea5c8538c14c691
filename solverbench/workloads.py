"""Workload table, seed-to-input mapping and the output check.

Every workload runs ``harness.run_single`` with the ``ms4`` integrator and
the bound-preserving limiter.  The seed picks the grid size N from a band
of at most +-5% around the nominal N (seed 0 is the nominal N).  The final time
is scaled with the time step, ``T = T_nom * (h(N) / h(N_nom)) ** dt_power``,
so every seed of a workload takes the same number of steps and its
per-solve numbers stay comparable.

This module imports nothing from the solver and no numpy: the parent
process of the benchmark uses it, and the bounds it checks against are
written down here rather than taken from the program under test.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

#: ``l1_error`` and the state probes must match the values recorded at the
#: seed commit within REF_RTOL relative plus ``steps * eps * (upper - lower)``
#: absolute, a bound on the round-off that reordered arithmetic adds over a
#: run.  Four reorderings (the sum order in the weighting and in the
#: stencil, an FFT circulant solve, a Cholesky banded solve) moved these
#: values by at most 4.4% of that absolute slack on the full-size workloads.
REF_RTOL = 1e-8

#: Allowed ``|sum u_T - sum u_0| * cell`` on periodic workloads, times
#: ``(upper - lower) * |domain|``.  Seed-commit drifts are at most 2.2e-13.
MASS_TOL = 1e-11


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    order: int
    tvb: float | None
    sizes: dict          # profile -> (nominal N, final time at nominal N)
    band: float          # seeds pick N within nominal N * (1 +- band)
    dt_power: int        # dt is proportional to h ** dt_power
    h_offset: int        # h = |domain| / (N + h_offset)
    lower: float
    upper: float
    measure: float       # domain length (1D) or area (2D)
    periodic: bool
    exact: bool          # the problem has an exact solution
    scheme_layer: str    # module owning means / rhs_means / recover

    @property
    def bound_tol(self) -> float:
        # the solver's own default slack for Bounds(lower, upper)
        return 1e-12 * max(1.0, abs(self.lower), abs(self.upper))


TWO_PI = 2.0 * math.pi

WORKLOADS = {w.name: w for w in (
    Workload(
        name="adv1d-o8-smooth",
        problem="linadv-sin4-half", order=8, tvb=None,
        sizes={"full": (320, 2.0), "tiny": (40, 0.5)}, band=0.05,
        dt_power=1, h_offset=0, lower=0.5, upper=1.0, measure=TWO_PI,
        periodic=True, exact=True, scheme_layer="schemes1d"),
    Workload(
        name="adv1d-step-tvb",
        problem="linadv-step", order=4, tvb=5.0,
        sizes={"full": (320, 1.0), "tiny": (40, 0.5)}, band=0.05,
        dt_power=1, h_offset=0, lower=0.0, upper=1.0, measure=TWO_PI,
        periodic=True, exact=True, scheme_layer="schemes1d"),
    Workload(
        name="pme2d-m3",
        problem="2d-pme-m3", order=4, tvb=None,
        # limiter activity, and with it the step cost, changes by 15-25%
        # between neighbouring N here, so every seed runs the nominal N
        sizes={"full": (64, 0.0036), "tiny": (12, 0.02)}, band=0.0,
        dt_power=2, h_offset=0, lower=0.0, upper=1.0, measure=16.0,
        periodic=True, exact=False, scheme_layer="schemes2d"),
    Workload(
        name="dirichlet1d",
        problem="dirichlet-convdiff", order=4, tvb=None,
        sizes={"full": (200, 3.0), "tiny": (24, 0.5)}, band=0.05,
        dt_power=1, h_offset=1, lower=-1.0, upper=1.0, measure=TWO_PI,
        periodic=False, exact=True, scheme_layer="boundary"),
)}

PROFILES = ("full", "tiny")


def band(wl: Workload, profile: str) -> range:
    """Grid sizes a seed may pick: nominal N +- band (rounded down)."""
    n0 = wl.sizes[profile][0]
    half = int(wl.band * n0)
    return range(n0 - half, n0 + half + 1)


def grid_size(wl: Workload, profile: str, seed: int) -> int:
    sizes = band(wl, profile)
    if seed == 0:
        return wl.sizes[profile][0]
    return random.Random(seed).choice(sizes)


def final_time(wl: Workload, profile: str, n: int) -> float:
    n0, t0 = wl.sizes[profile]
    return t0 * ((n0 + wl.h_offset) / (n + wl.h_offset)) ** wl.dt_power


def run_config_kwargs(wl: Workload, n: int, T: float, out: str | None) -> dict:
    """Keyword arguments of the solver's ``RunConfig`` for one solve."""
    return dict(problem=wl.problem, order=wl.order, integrator="ms4",
                bp_limiter=True, tvb=wl.tvb, n=n, T=T, out=out)


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def _close(value, ref: float, steps: int, wl: Workload) -> bool:
    if value is None:
        return False
    return math.isclose(value, ref, rel_tol=REF_RTOL,
                        abs_tol=steps * sys.float_info.epsilon * (wl.upper - wl.lower))


def check_output(wl: Workload, profile: str, n: int, summary: dict,
                 reference: dict) -> list[str]:
    """Reasons the solve's output is wrong; empty when it is correct."""
    failures = []
    if not summary["finite"]:
        failures.append("state has non-finite values")
    excursion = summary["bound_excursion"]
    if excursion is None or excursion > wl.bound_tol:
        failures.append(f"state leaves [{wl.lower}, {wl.upper}] by {excursion}")
    if wl.periodic:
        mass_tol = MASS_TOL * (wl.upper - wl.lower) * wl.measure
        drift = summary["mass_drift"]
        if drift is None or not drift <= mass_tol:
            failures.append(f"mass drift {drift} exceeds {mass_tol:.3g}")
    ref = reference.get(wl.name, {}).get(profile, {}).get(str(n))
    if ref is None:
        failures.append(f"no seed-commit reference for N={n}")
        return failures
    keys = ("l1_error",) if wl.exact else ("state_mean_abs", "state_probe")
    for key in keys:
        if not _close(summary[key], ref[key], ref["steps"], wl):
            failures.append(f"{key} {summary[key]} differs from the "
                            f"seed-commit value {ref[key]}")
    return failures
