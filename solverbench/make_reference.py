"""Record the reference outputs the benchmark's output check compares with.

Runs every grid size each seed can pick, for every workload and size
profile, and writes ``reference.json``.  Run it, from the repository root,
only on the commit whose outputs are the reference::

    python3 solverbench/make_reference.py

Later commits must reproduce these values within round-off (see
``workloads.REF_RTOL``).
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads

KEEP = ("steps", "l1_error", "state_mean_abs", "state_probe",
        "bound_excursion", "mass_drift")


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    table = {"_meta": {"solver_commit": commit,
                       "thread_pinning": run.THREAD_PINNING}}
    for wl in workloads.WORKLOADS.values():
        table[wl.name] = {}
        for profile in workloads.PROFILES:
            rows = table[wl.name][profile] = {}
            for n in workloads.band(wl, profile):
                rec = run.run_worker({
                    "root": str(run.ROOT), "workload": wl.name, "n": n,
                    "out_dir": str(run.ROOT / ".bench_runs" / wl.name),
                    "T": workloads.final_time(wl, profile, n), "trace": False,
                    "run_id": f"reference-{n}"})
                facts = dict(rec["summary"], steps=rec["steps"])
                rows[str(n)] = {k: facts[k] for k in KEEP}
                print(wl.name, profile, n, rows[str(n)], file=sys.stderr)
    workloads.REFERENCE_FILE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
