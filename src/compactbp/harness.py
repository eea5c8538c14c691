"""Experiment engine: single runs, convergence studies, CSV emission.

Every run's integrator, and with it its time step and step count, comes
from ``timeint.schedule_run``; the harness passes it only the dx^2
forward-Euler step of ``dt_scale="dx2"`` runs.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .boundary import DirichletConvDiffScheme, InflowOutflowScheme
from .limiters import LimiterReport
from .problems import builtin
from .schemes1d import PeriodicScheme1D, StepContext, max_stable_dt
from .schemes2d import PeriodicScheme2D, Problem2D, StepContext2D
from .timeint import METHODS, schedule_run


class ConfigError(ValueError):
    """A run configuration that cannot be built into a scheme."""


@dataclass(frozen=True)
class RunConfig:
    """One experiment: problem, discretization, limiter flags, output."""

    problem: str
    order: int = 4
    alpha1: float | None = None
    alpha2: float | None = None
    integrator: str = "ms4"
    n: int = 100
    T: float | None = None
    bp_limiter: bool = False
    tvb: float | None = None
    refine: tuple[int, ...] | None = None
    dt_scale: str = "cfl"
    out: str | None = None

    def __post_init__(self):
        if self.order not in (4, 6, 8):
            raise ValueError("order must be 4, 6 or 8")
        # the 4th- and 8th-order coefficients are fixed; only order 6 has a
        # family parameter to choose
        for name in ("alpha1", "alpha2"):
            if getattr(self, name) is not None and self.order != 6:
                raise ValueError(f"{name} selects a 6th-order scheme; "
                                 f"order {self.order} takes no family parameter")
        if self.integrator not in METHODS:
            raise ValueError(f"unknown method {self.integrator!r}")
        if self.dt_scale not in ("cfl", "dx2"):
            raise ValueError("dt_scale must be 'cfl' or 'dx2'")
        if self.T is not None and not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be positive and finite, got T = {self.T}")
        for n in (self.n, *(self.refine or ())):
            if n < 1:
                raise ValueError(f"grid size must be at least 1, got N = {n}")
        if self.refine is not None:
            if list(self.refine) != sorted(set(self.refine)):
                raise ValueError("refinement list must be strictly increasing")
        prob = builtin(self.problem)
        periodic_1d = not isinstance(prob, Problem2D) and prob.boundary == "periodic"
        if self.dt_scale == "dx2" and not (periodic_1d and prob.has_convection):
            raise ValueError("dt_scale 'dx2' scales the convection step of "
                             "periodic 1D problems only")
        # only the periodic 1D scheme takes the TVB threshold (see _scheme),
        # which checks the rest itself
        if self.tvb is not None and not periodic_1d:
            raise ValueError("the TVB limiter requires a periodic 1D problem")


@dataclass
class ErrorRow:
    """One refinement level of a convergence study."""

    n: int
    l1_error: float
    l1_order: float | None
    linf_error: float
    linf_order: float | None
    min_u: float
    max_u: float
    conservation: float
    walltime: float


def error_norms(numeric: np.ndarray, exact: np.ndarray, dx: float,
                dy: float | None = None) -> tuple[float, float]:
    """Discrete grid-function norms: L1 = cell volume * sum|e|, Linf = max|e|."""
    numeric = np.asarray(numeric, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if numeric.shape != exact.shape:
        raise ValueError(f"shape mismatch {numeric.shape} vs {exact.shape}")
    err = np.abs(numeric - exact)
    vol = dx if dy is None else dx * dy
    return float(vol * err.sum()), float(err.max())


def observed_order(err_coarse, err_fine, n_coarse, n_fine):
    if err_fine == 0 or err_coarse == 0:
        return None
    return float(np.log(err_coarse / err_fine) / np.log(n_fine / n_coarse))


def build_scheme(config: RunConfig, n: int):
    """Build problem, scheme and the unstarted integrator of one grid level.

    Invalid input raises :class:`ConfigError`.
    """
    try:
        problem = builtin(config.problem)
        scheme = _scheme(problem, config, n)
        dt_fe = None
        if config.dt_scale == "dx2":
            # temporal-order verification: the convection rate scales with 1/dx^2
            _, diff_rate = scheme.cfl_rates()
            dt_fe = max_stable_dt((problem.max_fprime / scheme.ctx.dx ** 2, diff_rate),
                                  scheme.cfl)
        T = config.T if config.T is not None else problem.default_T
        integ = schedule_run(scheme, config.integrator, T, dt_fe)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return problem, scheme, integ


def _scheme(problem, config: RunConfig, n: int):
    if isinstance(problem, Problem2D):
        if config.order != 4:
            raise ValueError("2D schemes are 4th order")
        ctx = StepContext2D((problem.x_hi - problem.x_lo) / n,
                            (problem.y_hi - problem.y_lo) / n)
        return PeriodicScheme2D(problem, ctx, nx=n, ny=n, bp_limit=config.bp_limiter)
    if problem.boundary == "periodic":
        ctx = StepContext.create(problem.length / n, config.order,
                                 config.alpha1, config.alpha2)
        return PeriodicScheme1D(problem, ctx, n=n, bp_limit=config.bp_limiter,
                                tvb_p=config.tvb)
    ctx = StepContext.create(problem.length / (n + 1), config.order)
    if problem.boundary == "inflow-outflow":
        return InflowOutflowScheme(problem, ctx, n=n, bp_limit=config.bp_limiter)
    return DirichletConvDiffScheme(problem, ctx, n=n, bp_limit=config.bp_limiter)


def run_level(config: RunConfig, n: int):
    """Solve one grid level; returns a result dict."""
    problem, scheme, integ = build_scheme(config, n)
    t_start = time.perf_counter()
    u0, t0 = scheme.initial_state()
    integ.start(u0, t0)
    for _ in range(integ.steps):
        integ.advance()
    state = integ.state
    wall = time.perf_counter() - t_start
    dy = scheme.ctx.dy if isinstance(problem, Problem2D) else None
    vol = scheme.ctx.dx if dy is None else scheme.ctx.dx * dy
    conservation = abs(float(state.sum()) - float(u0.sum())) * vol
    exact = scheme.exact_state(integ.time)
    result = {
        "problem": problem,
        "scheme": scheme,
        "n": n,
        "dt": integ.dt,
        "steps": integ.steps,
        "state": state,
        "exact": exact,
        "min_u": float(state.min()),
        "max_u": float(state.max()),
        "conservation": conservation,
        "walltime": wall,
        "report": integ.report,
    }
    if exact is not None:
        l1, linf = error_norms(state, exact, scheme.ctx.dx, dy)
        result["l1"], result["linf"] = l1 / _domain_measure(problem), linf
    return result


def _domain_measure(problem) -> float:
    """Study tables report the per-unit-length L1 norm (mean |error|)."""
    if isinstance(problem, Problem2D):
        return (problem.x_hi - problem.x_lo) * (problem.y_hi - problem.y_lo)
    return problem.x_hi - problem.x_lo


def _reference_errors(config: RunConfig, n: int, result) -> tuple[float, float]:
    """Errors against a 4x finer self-run (periodic problems only)."""
    problem = result["problem"]
    if getattr(problem, "boundary", "periodic") != "periodic":
        raise ValueError("no exact solution and no reference-grid rule for "
                         f"{problem.name}")
    fine = run_level(replace(config, out=None), 4 * n)
    ref = fine["state"]
    if ref.ndim == 1:
        ref_on_coarse = ref[3::4]
    else:
        ref_on_coarse = ref[3::4, 3::4]
    dy = result["scheme"].ctx.dy if ref.ndim == 2 else None
    l1, linf = error_norms(result["state"], ref_on_coarse,
                           result["scheme"].ctx.dx, dy)
    return l1 / _domain_measure(problem), linf


def run_convergence_study(config: RunConfig):
    """One row per refinement level plus optional CSV emission.

    Exact-solution errors where available; otherwise each level is
    compared against a 4x finer self-run and the output is labelled
    accordingly.
    """
    if not config.refine:
        raise ValueError("study needs a refinement list")
    rows: list[ErrorRow] = []
    used_reference = False
    prev = None
    for n in config.refine:
        try:
            result = run_level(config, n)
            if "l1" not in result:
                used_reference = True
                result["l1"], result["linf"] = _reference_errors(config, n, result)
        except Exception as exc:
            raise RuntimeError(f"convergence study failed at N={n}") from exc
        l1o = linfo = None
        if prev is not None:
            l1o = observed_order(prev.l1_error, result["l1"], prev.n, n)
            linfo = observed_order(prev.linf_error, result["linf"], prev.n, n)
        row = ErrorRow(n, result["l1"], l1o, result["linf"], linfo,
                       result["min_u"], result["max_u"],
                       result["conservation"], result["walltime"])
        rows.append(row)
        prev = row
    csv_path = None
    if config.out is not None:
        csv_path = _write_study_csv(config, rows, used_reference)
    return rows, csv_path


def format_study_table(rows) -> str:
    head = (f"{'N':>6} {'L1 error':>13} {'order':>7} {'Linf error':>13} "
            f"{'order':>7} {'min(u)':>11} {'max(u)':>11} {'consv':>9} {'sec':>7}")
    lines = [head]
    for r in rows:
        l1o = f"{r.l1_order:7.2f}" if r.l1_order is not None else "      -"
        lio = f"{r.linf_order:7.2f}" if r.linf_order is not None else "      -"
        lines.append(
            f"{r.n:>6} {r.l1_error:13.4e} {l1o} {r.linf_error:13.4e} {lio} "
            f"{r.min_u:11.6f} {r.max_u:11.6f} {r.conservation:9.1e} {r.walltime:7.2f}")
    return "\n".join(lines)


def _meta_lines(config: RunConfig, extra: dict) -> list[str]:
    meta = {
        "problem": config.problem,
        "order": config.order,
        "integrator": config.integrator,
        "bp_limiter": config.bp_limiter,
        "tvb": config.tvb if config.tvb is not None else "off",
        "dt_scale": config.dt_scale,
    }
    if config.alpha1 is not None:
        meta["alpha1"] = config.alpha1
    if config.alpha2 is not None:
        meta["alpha2"] = config.alpha2
    meta.update(extra)
    return [f"# {k}: {v}" for k, v in meta.items()]


def _write_study_csv(config, rows, used_reference) -> Path:
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{config.problem}_study.csv"
    extra = {"errors_against": "reference-4x-self-run" if used_reference else "exact"}
    buf = io.StringIO()
    for line in _meta_lines(config, extra):
        buf.write(line + "\r\n")
    buf.write("N,l1_error,l1_order,linf_error,linf_order,"
              "min_u,max_u,conservation\r\n")
    for r in rows:
        l1o = "" if r.l1_order is None else f"{r.l1_order:.6f}"
        lio = "" if r.linf_order is None else f"{r.linf_order:.6f}"
        buf.write(f"{r.n},{r.l1_error:.16e},{l1o},{r.linf_error:.16e},{lio},"
                  f"{r.min_u:.16e},{r.max_u:.16e},{r.conservation:.16e}\r\n")
    path.write_text(buf.getvalue(), encoding="ascii")
    return path


def run_single(config: RunConfig):
    """One solve with snapshot emission; returns (result, csv_path)."""
    n = config.refine[-1] if config.refine else config.n
    result = run_level(config, n)
    csv_path = None
    if config.out is not None:
        csv_path = _write_single_csv(config, result)
    return result, csv_path


def _write_single_csv(config, result) -> Path:
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{config.problem}_solution.csv"
    scheme, state = result["scheme"], result["state"]
    rep: LimiterReport = result["report"]
    extra = {
        "N": result["n"],
        "dt": f"{result['dt']:.16e}",
        "steps": result["steps"],
        "min_u": f"{result['min_u']:.16e}",
        "max_u": f"{result['max_u']:.16e}",
        "conservation_drift": f"{result['conservation']:.16e}",
        "limiter_modified_total": rep.modified_count,
        "limiter_max_displacement": f"{rep.max_displacement:.16e}",
        "limiter_sawtooth_sets": rep.sawtooth_count,
    }
    buf = io.StringIO()
    for line in _meta_lines(config, extra):
        buf.write(line + "\r\n")
    exact = result["exact"]
    coords = scheme.grid()
    names, columns = ["x", "y"][:len(coords)] + ["u"], [*coords, state]
    if exact is not None:
        names.append("u_exact")
        columns.append(exact)
    buf.write(",".join(names) + "\r\n")
    for block in _format_rows(columns):
        buf.write(block)
    path.write_text(buf.getvalue(), encoding="ascii")
    return path


def _format_rows(columns):
    """CSV text blocks, one ``%.16e`` row per grid point in C order.

    One ``%`` format call per block of rows gives the same text as
    formatting every value separately, at a fraction of the cost; blocks
    of 4096 rows bound the temporary strings on large grids.
    """
    table = np.column_stack([np.ravel(c) for c in columns])
    row = ",".join(["%.16e"] * table.shape[1]) + "\r\n"
    for start in range(0, table.shape[0], 4096):
        chunk = table[start:start + 4096]
        yield (row * chunk.shape[0]) % tuple(chunk.ravel().tolist())
