"""Alternating parent/change pairs of the solver benchmark.

Usage, from the repository root::

    python3 tools/bench_pairs.py --ref HEAD --workload adv1d-o8-smooth \\
        --workload dirichlet1d --pairs 10 --seconds 25

Exports ``--ref`` with ``git archive`` into a temporary directory, then,
for each ``--workload`` in turn (default: every workload named in
``BENCHMARK.json``), runs ``solverbench/run.py --trace 0`` once for that
tree and once for the working tree per seed (seeds ``--first-seed`` on),
alternating which of the two runs first.  Both sides run their own
checkout's benchmark code.  For each pair it prints the four end-to-end
metrics of both sides; after each workload, each side's median and
quartiles, and how many pairs favour the change (a lower value; ties
count for neither side).  A run whose output check fails, or that
prints no result, stops the script.  The last line is the whole result
as JSON, keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("step_us_p50", "solve_s", "setup_s", "peak_rss_mb")


def export(ref: str, dest: Path) -> None:
    """Write the files of ``ref`` into ``dest`` (``git archive``, no worktree)."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                             check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metric values of one untraced benchmark run of ``tree``."""
    proc = subprocess.run(
        [sys.executable, str(tree / "solverbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: output check failed on seed {seed}: {proc.stderr[-2000:]}")
    return {key: result["metrics"][key]["value"] for key in METRICS}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(pairs: list[dict]) -> dict:
    """Per metric: each side's summary and the pairs for and against the change."""
    metrics = {}
    for key in METRICS:
        parent = [p["parent"][key] for p in pairs]
        change = [p["change"][key] for p in pairs]
        metrics[key] = {"parent": summary(parent), "change": summary(change),
                        "pairs_favouring_change": sum(c < p for p, c in zip(parent, change)),
                        "pairs_against_change": sum(c > p for p, c in zip(parent, change))}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--workload", action="append",
                        help="workload to compare; repeatable (default: all in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    workloads = args.workload or [w["name"] for w in
                                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

    result = {"ref": args.ref, "pairs": args.pairs, "seconds": args.seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tree = Path(tmp) / "tree"
        export(args.ref, tree)
        sides = {"parent": tree, "change": ROOT}
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(sides[side], workload, seed, args.seconds)
                pairs.append(pair)
                print(json.dumps(pair), flush=True)
            metrics = compare(pairs)
            result["workloads"][workload] = metrics
            for key, m in metrics.items():
                print(f"{workload} {key}: parent median {m['parent']['median']:.6g} "
                      f"change median {m['change']['median']:.6g}; "
                      f"{m['pairs_favouring_change']} of {len(pairs)} pairs favour the change, "
                      f"{m['pairs_against_change']} against", flush=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
