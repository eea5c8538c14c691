"""Experiment engine: single runs, convergence studies, CSV emission.

Time steps follow the weak-monotonicity constants scaled by the method's
schedule factor: forward Euler runs at the full admissible step, the
multistep method at 0.1648 of it, and Runge-Kutta at five times the
multistep step (same number of spatial operator evaluations per unit
time).  The target step is then shrunk to the nearest divisor of the
final time, so runs are reproducible and hit T exactly.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .boundary import DirichletConvDiffScheme, InflowOutflowScheme
from .limiters import LimiterReport
from .problems import builtin
from .schemes1d import PeriodicScheme1D, StepContext, max_stable_dt
from .schemes2d import PeriodicScheme2D, Problem2D, StepContext2D, max_stable_dt_2d
from .timeint import SSP_COEFF_MS4, IntegratorSpec, integrate_to

SCHEDULE_FACTOR = {"fe": 1.0, "ms4": SSP_COEFF_MS4, "rk4": 5.0 * SSP_COEFF_MS4}


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
    dt_cap: float | None = None
    out: str | None = None

    def __post_init__(self):
        if self.order not in (4, 6, 8):
            raise ValueError("order must be 4, 6 or 8")
        if self.integrator not in SCHEDULE_FACTOR:
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.dt_scale not in ("cfl", "dx2"):
            raise ValueError("dt_scale must be 'cfl' or 'dx2'")
        if self.refine is not None:
            if list(self.refine) != sorted(set(self.refine)):
                raise ValueError("refinement list must be strictly increasing")
        prob = builtin(self.problem)
        if self.tvb is not None:
            if prob.has_diffusion:
                raise ValueError("the TVB limiter requires a convection-only problem")
            if self.order != 4:
                raise ValueError("the TVB limiter requires order 4")
            if getattr(prob, "boundary", "periodic") != "periodic":
                raise ValueError("the TVB limiter requires periodic boundaries")


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
    """Instantiate problem, context and scheme for one grid level."""
    problem = builtin(config.problem)
    factor = SCHEDULE_FACTOR[config.integrator]
    if isinstance(problem, Problem2D):
        if config.order != 4:
            raise ValueError("2D schemes are 4th order")
        dx = (problem.x_hi - problem.x_lo) / n
        dy = (problem.y_hi - problem.y_lo) / n
        dt_fe = max_stable_dt_2d(problem, dx, dy, cap=config.dt_cap)
        dt = _divisor_dt(factor * dt_fe, _final_time(config, problem))
        ctx = StepContext2D(dx, dy, dt)
        scheme = PeriodicScheme2D(problem, ctx, nx=n, ny=n,
                                  bp_limit=config.bp_limiter)
        return problem, scheme, dt
    dx2 = config.dt_scale == "dx2"
    if problem.boundary == "periodic":
        dx = problem.length / n
        cs1 = _cs1(config)
        cs2 = _cs2(config)
        dt_fe = max_stable_dt(problem, dx, cs1, cs2, ssp_coefficient=1.0,
                              dx2_convection=dx2, cap=config.dt_cap)
        dt = _divisor_dt(factor * dt_fe, _final_time(config, problem))
        ctx = StepContext.create(dx, dt, config.order, config.alpha1, config.alpha2)
        scheme = PeriodicScheme1D(problem, ctx, n=n, bp_limit=config.bp_limiter,
                                  tvb_p=config.tvb)
        return problem, scheme, dt
    dx = problem.length / (n + 1)
    if problem.boundary == "inflow-outflow":
        dt_fe = dx / (3.0 * problem.max_fprime)
        dt = _divisor_dt(factor * dt_fe, _final_time(config, problem))
        ctx = StepContext.create(dx, dt, config.order)
        scheme = InflowOutflowScheme(problem, ctx, n=n, bp_limit=config.bp_limiter)
        return problem, scheme, dt
    ctx = StepContext.create(dx, 1.0, config.order)
    probe = DirichletConvDiffScheme(problem, ctx, n=n, bp_limit=config.bp_limiter)
    dt = _divisor_dt(factor * probe.admissible_dt_fe(), _final_time(config, problem))
    ctx = StepContext.create(dx, dt, config.order)
    scheme = DirichletConvDiffScheme(problem, ctx, n=n, bp_limit=config.bp_limiter)
    return problem, scheme, dt


def _cs1(config):
    from .operators import first_derivative_coefficients
    return first_derivative_coefficients(config.order, config.alpha1)


def _cs2(config):
    from .operators import second_derivative_coefficients
    return second_derivative_coefficients(config.order, config.alpha2)


def _final_time(config, problem):
    return config.T if config.T is not None else problem.default_T


def _divisor_dt(dt_target: float, T: float) -> float:
    nsteps = max(1, int(np.ceil(T / dt_target * (1.0 - 1e-12))))
    return T / nsteps


def _cell_volume(problem, scheme):
    if isinstance(problem, Problem2D):
        return scheme.ctx.dx * scheme.ctx.dy
    return scheme.ctx.dx


def run_level(config: RunConfig, n: int):
    """Solve one grid level; returns a result dict."""
    problem, scheme, dt = build_scheme(config, n)
    T = _final_time(config, problem)
    spec = IntegratorSpec(method=config.integrator)
    t_start = time.perf_counter()
    u0, _ = scheme.initial_state()
    state, log, report = integrate_to(scheme, T, spec, dt=dt)
    wall = time.perf_counter() - t_start
    vol = _cell_volume(problem, scheme)
    conservation = abs(float(state.sum()) - float(u0.sum())) * vol
    exact = scheme.exact_state(T)
    result = {
        "problem": problem,
        "scheme": scheme,
        "n": n,
        "dt": dt,
        "steps": len(log),
        "state": state,
        "exact": exact,
        "min_u": float(state.min()),
        "max_u": float(state.max()),
        "conservation": conservation,
        "walltime": wall,
        "report": report,
    }
    if exact is not None:
        dy = scheme.ctx.dy if isinstance(problem, Problem2D) else None
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
    problem, scheme, state = result["problem"], result["scheme"], result["state"]
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
    if isinstance(problem, Problem2D):
        names, columns = ["x", "y", "u"], [*scheme.grid(), state]
    else:
        names, columns = ["x", "u"], [scheme.x, state]
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
