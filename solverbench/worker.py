"""One solve in a fresh process; prints one JSON record as its last line.

Usage: ``python3 worker.py '<json spec>'`` with the keys ``root``,
``out_dir``, ``workload``, ``n``, ``T``, ``trace`` and ``run_id``.  The
parent (``run.py``) starts one worker per solve, so each solve pays the
solver's lazy caches the way a command-line user does.

Untraced, the only instrumentation is a clock around each
``SspIntegrator.advance`` call.  Traced, ``tracing.instrument`` wraps the
calls into every module.  After the solve, ``host_probe`` times a fixed
numpy kernel, so the parent can scale the solve's times to a reference
host speed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402


def summarize(wl, state, u0, exact, cell) -> dict:
    """Output facts the check needs, computed here rather than by the solver."""
    state = np.asarray(state, dtype=float)
    finite = np.isfinite(state)
    vals = state[finite]
    out = {"finite": bool(finite.all()), "bound_excursion": None,
           "mass_drift": None, "l1_error": None}
    if vals.size:
        out["bound_excursion"] = max(wl.lower - float(vals.min()),
                                     float(vals.max()) - wl.upper, 0.0)
    if wl.periodic:
        out["mass_drift"] = abs(float(state.sum()) - float(np.sum(u0))) * cell
    if exact is not None:
        err = float(np.abs(state - np.asarray(exact, dtype=float)).sum())
        out["l1_error"] = cell * err / wl.measure
    probe = np.cos(0.618 * np.arange(state.size)).reshape(state.shape)
    out["state_mean_abs"] = float(np.abs(state).mean())
    out["state_probe"] = float((state * probe).mean())
    # NaN does not survive strict JSON; a missing value fails the check
    return {k: (None if isinstance(v, float) and not np.isfinite(v) else v)
            for k, v in out.items()}


def host_probe(reps: int = 5, iters: int = 200) -> float:
    """Median wall us of one pass of a fixed numpy kernel over ``reps`` timings.

    The kernel does the kind of work a solver step does (rolls, ufuncs on
    a few hundred points, a select and a sum under a Python loop) without
    calling the solver, so its time follows only the speed the host gives
    this process.  It runs after the solve: run before it, it warms what
    the solve's set-up would otherwise pay.
    """
    u = np.linspace(0.0, 1.0, 320)
    times = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        for _ in range(iters):
            v = (np.roll(u, 1) + 4.0 * u + np.roll(u, -1)) / 6.0
            m = np.minimum(np.minimum(np.roll(v, 1), v), np.roll(v, -1))
            u = 0.5 * (u + np.where(m < 0.25, m, v))
            float(u.sum())
        times.append((time.perf_counter_ns() - start) / 1e3 / iters)
    return float(np.median(times))


def cell_volume(result) -> float:
    ctx = result["scheme"].ctx
    return ctx.dx * ctx.dy if hasattr(ctx, "dy") else ctx.dx


def solve(spec: dict) -> dict:
    root = Path(spec["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    import compactbp
    from compactbp import harness, timeint

    if Path(compactbp.__file__).resolve().parent != (src / "compactbp").resolve():
        raise RuntimeError(f"imported compactbp from {compactbp.__file__}, "
                           f"not from {src}")
    wl = workloads.WORKLOADS[spec["workload"]]
    out_dir = Path(spec["out_dir"])
    config = harness.RunConfig(**workloads.run_config_kwargs(
        wl, spec["n"], spec["T"], str(out_dir)))

    tracer = None
    step_ns: list[tuple[int, int]] = []  # (start, duration) per step
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer(spec["run_id"])
        tracing.instrument(tracer, compactbp)
    else:
        advance = timeint.SspIntegrator.advance
        clock = time.perf_counter_ns

        def timed_advance(self):
            start = clock()
            out = advance(self)
            step_ns.append((start, clock() - start))
            return out

        timeint.SspIntegrator.advance = timed_advance

    start = time.perf_counter_ns()
    result, csv_path = harness.run_single(config)
    solve_ns = time.perf_counter_ns() - start

    u0, _ = result["scheme"].initial_state()
    record = {
        "n": spec["n"], "T": spec["T"], "steps": result["steps"],
        "solve_s": solve_ns / 1e9,
        "summary": summarize(wl, result["state"], u0, result["exact"],
                             cell_volume(result)),
    }
    if tracer is None:
        record["setup_s"] = (step_ns[0][0] - start) / 1e9
        record["step_us"] = [d / 1e3 for _, d in step_ns]
        record["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        layers = tracing.layer_metrics(tracer.spans, result["steps"])
        layers["harness.csv_bytes"] = csv_path.stat().st_size
        record["layers"] = layers
        tracer.write(out_dir / f"spans-{spec['run_id']}.jsonl")
    record["probe_us"] = host_probe()
    return record


def main() -> int:
    spec = json.loads(sys.argv[1])
    print(json.dumps(solve(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
