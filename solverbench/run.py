"""Solver benchmark: per-step latency end to end, per-layer self time traced.

Usage, from the repository root::

    python3 solverbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load shape: a closed loop from this single process, one solve at a time.
Each solve is ``harness.run_single`` (what ``compactbp solve --out`` runs)
in a fresh worker process, with BLAS/OpenMP threads pinned to 1, until
``--seconds`` have passed.  The seed picks the grid size (see
``workloads.py``); every solve of a run uses the same inputs, and every
output is checked against the bounds, mass conservation and the
seed-commit reference values.

``--trace 0`` reports the end-to-end metrics: medians over the run's
solves of each solve's times scaled to the reference host speed (see
``untraced_metrics``).  ``--trace 1`` alternates untraced and traced solves
and reports the per-layer metrics, including ``trace.overhead`` (median
scaled traced over untraced solve time, minus 1).
Earlier output lines carry the environment, the inputs, the output
quality and the sample counts; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402
import workloads  # noqa: E402

THREAD_PINNING = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# wall us of one pass of worker.host_probe at the reference host speed,
# about its median on the machine the baseline was measured on
PROBE_REF_US = 75.0
# solves start only in the first RUN_LIMIT_S of a run (--seconds may not
# exceed it), and each is stopped at DEADLINE_S, so a run ends inside 180 s
RUN_LIMIT_S = 150
DEADLINE_S = 170

END_TO_END_UNITS = {"step_us_p50": "us", "solve_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
QUALITY_UNITS = {"l1_error": "u", "bound_excursion": "u", "mass_drift": "u.vol",
                 "failed_frac": "ratio"}


class SolveError(RuntimeError):
    """A worker process crashed, timed out or printed no record."""


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"kind": "env", "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "thread_pinning": THREAD_PINNING,
            "load": "closed loop, 1 client, 1 solve at a time, "
                    "1 fresh process per solve"}


def run_worker(spec: dict, timeout: float = DEADLINE_S) -> dict:
    env = dict(os.environ, **THREAD_PINNING)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise SolveError(f"solve exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SolveError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def scaled(records, value) -> list[float]:
    """``value(record)`` of each solve, scaled to the reference host speed."""
    return [value(r) * PROBE_REF_US / r["probe_us"] for r in records]


def untraced_metrics(records) -> tuple[dict, dict]:
    """Gated end-to-end metrics, and the step tail, wall times and counts.

    The host the baseline was measured on runs the same work at speeds up
    to 2x apart, switching every few seconds and sometimes staying slow
    for a whole run.  So each solve's times are scaled by the reference over its
    own ``host_probe`` time, taken in its process right after it, and the
    metrics are medians of the scaled values over the run's solves.  On a
    host where the probe takes PROBE_REF_US they are the wall times.
    """
    def p50(r):
        return statistics.median(r["step_us"])

    def p90(r):
        return statistics.quantiles(r["step_us"], n=10)[-1]

    med = statistics.median
    metrics = {
        "step_us_p50": med(scaled(records, p50)),
        "solve_s": med(scaled(records, lambda r: r["solve_s"])),
        "setup_s": med(scaled(records, lambda r: r["setup_s"])),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in records),
    }
    info = {"solves": len(records), "steps_per_solve": len(records[0]["step_us"]),
            "step_us_p90": med(scaled(records, p90)),
            "step_samples_above_p90": sum(s > p90(r) for r in records
                                          for s in r["step_us"]),
            "probe_us": med(r["probe_us"] for r in records),
            "probe_us_min": min(r["probe_us"] for r in records),
            "probe_us_max": max(r["probe_us"] for r in records),
            "wall_step_us_p50": med(p50(r) for r in records),
            "wall_solve_s": med(r["solve_s"] for r in records),
            "wall_setup_s": med(r["setup_s"] for r in records)}
    return metrics, info


def quality_metrics(wl, records, attempted: int, failed: int) -> dict:
    out = {}
    summaries = [r["summary"] for r in records]
    l1 = [s["l1_error"] for s in summaries if s["l1_error"] is not None]
    if wl.exact and l1:
        out["l1_error"] = statistics.median(l1)
    excursions = [s["bound_excursion"] for s in summaries]
    if None not in excursions:
        out["bound_excursion"] = max(excursions)
    drifts = [s["mass_drift"] for s in summaries]
    if wl.periodic and None not in drifts:
        out["mass_drift"] = max(drifts)
    out["failed_frac"] = failed / attempted
    return out


def with_units(values: dict, units: dict) -> dict:
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.PROFILES, default="full",
                        help="'tiny' runs the self-test sizes")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= RUN_LIMIT_S:
        parser.error(f"--seconds must be in (0, {RUN_LIMIT_S}]")

    if not (ROOT / "src" / "compactbp" / "__init__.py").is_file():
        print(f"error: no solver source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    n = workloads.grid_size(wl, args.size, args.seed)
    T = workloads.final_time(wl, args.size, n)
    sizes = workloads.band(wl, args.size)
    print(json.dumps(environment()))
    print(json.dumps({"kind": "workload", "name": wl.name, "problem": wl.problem,
                      "order": wl.order, "tvb": wl.tvb, "profile": args.size,
                      "seed": args.seed, "n": n, "n_band": [sizes[0], sizes[-1]],
                      "T": T}))

    out_dir = ROOT / ".bench_runs" / wl.name
    if args.trace:
        for old in out_dir.glob("spans-*.jsonl"):
            old.unlink()  # keep the spans of the latest traced run only
    plain, traced, errors = [], [], []
    attempted = failed = 0
    modes = (False, True) if args.trace else (False,)
    start = time.monotonic()
    k = 0
    while k == 0 or time.monotonic() - start < args.seconds:
        for trace in modes:
            run_id = f"{wl.name}-seed{args.seed}-{k}{'t' if trace else ''}"
            spec = {"root": str(ROOT), "out_dir": str(out_dir), "workload": wl.name,
                    "n": n, "T": T, "trace": trace, "run_id": run_id}
            attempted += 1
            try:
                rec = run_worker(spec, max(1.0, DEADLINE_S - (time.monotonic() - start)))
            except SolveError as exc:
                failed += 1
                errors.append(f"{run_id}: {exc}")
                continue
            reasons = workloads.check_output(wl, args.size, n, rec["summary"],
                                             reference)
            if reasons:
                failed += 1
                errors.append(f"{run_id}: " + "; ".join(reasons))
            (traced if trace else plain).append(rec)
        k += 1

    for err in errors:
        print(f"output check failed: {err}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("error: no solve completed", file=sys.stderr)
        return 1
    end_to_end, info = untraced_metrics(plain)
    print(json.dumps({"kind": "end_to_end", **info,
                      "metrics": with_units(end_to_end, END_TO_END_UNITS)}))
    print(json.dumps({"kind": "quality", "metrics": with_units(
        quality_metrics(wl, plain + traced, attempted, failed), QUALITY_UNITS)}))

    if args.trace:
        layer_keys = traced[0]["layers"].keys()
        metrics = {key: statistics.median(r["layers"][key] for r in traced)
                   for key in layer_keys}
        metrics["trace.overhead"] = statistics.median(
            scaled(traced, lambda r: r["solve_s"])) / end_to_end["solve_s"] - 1.0
        metrics = with_units(metrics, tracing.layer_units())
    else:
        metrics = with_units(end_to_end, END_TO_END_UNITS)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
