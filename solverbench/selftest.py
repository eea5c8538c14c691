"""Self-test of the benchmark at tiny sizes.

Run from the repository root::

    python3 solverbench/selftest.py

It runs every workload through ``run.py --size tiny`` untraced and traced,
checks that every metric named in ``BENCHMARK.json`` is printed with its
unit, and checks that the output check rejects a NaN state, a state out of
bounds and a state that differs from the seed-commit reference.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


class PrintedMetrics(unittest.TestCase):
    def check_result(self, result: dict, expected: list[dict]):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in expected}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, units)
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_every_workload(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(workloads.WORKLOADS))
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                lines = bench(name, 0)
                kinds = {line.get("kind"): line for line in lines[:-1]}
                env = kinds["env"]
                for key in ("nproc", "cpu_model", "python", "numpy", "scipy",
                            "thread_pinning"):
                    self.assertIn(key, env)
                self.check_result(lines[-1], SPEC["end_to_end"])
                for key in ("step_us_p90", "steps_per_solve", "step_samples_above_p90",
                            "solves", "probe_us"):
                    self.assertIn(key, kinds["end_to_end"])
                quality = kinds["quality"]["metrics"]
                expected = {"bound_excursion", "failed_frac"}
                expected |= {"l1_error"} if wl.exact else set()
                expected |= {"mass_drift"} if wl.periodic else set()
                self.assertEqual(set(quality), expected)
                for key, metric in quality.items():
                    self.assertEqual(metric["unit"], run.QUALITY_UNITS[key])
                self.assertEqual(quality["failed_frac"]["value"], 0.0)

                traced = bench(name, 1)[-1]
                self.check_result(traced, SPEC["per_layer"])
                layer = wl.scheme_layer
                self.assertGreater(traced["metrics"][f"{layer}.recover_calls"]["value"], 0)
                self.assertGreater(traced["metrics"]["limiters.calls"]["value"], 0)


class OutputCheck(unittest.TestCase):
    """The check fires on injected bad output, on every workload."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(ROOT / "src"))
        import numpy as np
        from compactbp import harness

        import worker
        cls.np, cls.worker = np, worker
        cls.reference = workloads.load_reference()
        cls.solved = {}
        for name, wl in workloads.WORKLOADS.items():
            n = workloads.grid_size(wl, "tiny", 0)
            config = harness.RunConfig(**workloads.run_config_kwargs(
                wl, n, workloads.final_time(wl, "tiny", n), None))
            result, _ = harness.run_single(config)
            u0, _ = result["scheme"].initial_state()
            cls.solved[name] = (wl, n, result, u0)

    def reasons(self, name, state):
        wl, n, result, u0 = self.solved[name]
        summary = self.worker.summarize(wl, state, u0, result["exact"],
                                        self.worker.cell_volume(result))
        return workloads.check_output(wl, "tiny", n, summary, self.reference)

    def bad(self, name, edit):
        state = self.solved[name][2]["state"].copy()
        edit(state.reshape(-1))
        return " ".join(self.reasons(name, state))

    def test_clean_output_passes(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self.reasons(name, self.solved[name][2]["state"]), [])

    def test_nan_fails(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertIn("non-finite", self.bad(
                    name, lambda s: s.__setitem__(3, self.np.nan)))

    def test_out_of_bounds_fails(self):
        for name, (wl, *_) in self.solved.items():
            with self.subTest(workload=name):
                self.assertIn("leaves", self.bad(
                    name, lambda s: s.__setitem__(3, wl.upper + 1e-6)))

    def test_reference_mismatch_fails(self):
        # a small in-bounds change: mid-range values moved by 1e-7
        for name, (wl, *_) in self.solved.items():
            mid = 0.5 * (wl.lower + wl.upper)

            def nudge(s):
                i = int(self.np.argmin(self.np.abs(s - mid)))
                s[i] += 1e-7

            with self.subTest(workload=name):
                self.assertIn("seed-commit", self.bad(name, nudge))


if __name__ == "__main__":
    unittest.main()
