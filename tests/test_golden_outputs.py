"""Solution CSVs of small CLI solves, pinned byte for byte.

Between them the runs reach every scheme class and step path: periodic
1D at orders 4, 6 and 8 (TVB, ms4, rk4, limited and unlimited), 2D
convection, diffusion and convection-diffusion, inflow-outflow and
Dirichlet.  A refactor that changes no arithmetic leaves every file
identical; one that changes round-off shows up here first.

Regenerate the golden files (only for an intended change of results,
stated with its reason in CHANGES.md) with::

    PYTHONPATH=src python tests/test_golden_outputs.py --regenerate
"""

from pathlib import Path
import sys

import pytest

from compactbp.cli import main

GOLDEN = Path(__file__).with_name("golden")

# name -> argv of `compactbp solve` (without --out)
RUNS = {
    "linadv-sin4-half-o8": ["--problem", "linadv-sin4-half", "--order", "8",
                            "--N", "40", "--T", "0.5", "--bp-limiter"],
    "linadv-step-tvb": ["--problem", "linadv-step", "--N", "40", "--T", "0.5",
                        "--bp-limiter", "--tvb"],
    "convdiff-lin-o6-ms4": ["--problem", "convdiff-lin", "--order", "6",
                            "--N", "30", "--T", "0.2", "--bp-limiter"],
    "convdiff-lin-o6-rk4": ["--problem", "convdiff-lin", "--order", "6",
                            "--integrator", "rk4", "--N", "30", "--T", "0.2",
                            "--bp-limiter"],
    "pme-1d-m8": ["--problem", "pme-1d-m8", "--N", "40", "--T", "0.05",
                  "--bp-limiter"],
    "2d-pme-m3-ms4": ["--problem", "2d-pme-m3", "--N", "16", "--T", "0.01",
                      "--bp-limiter"],
    "2d-pme-m3-fe": ["--problem", "2d-pme-m3", "--integrator", "fe", "--N", "16",
                     "--T", "0.01", "--bp-limiter"],
    "2d-convdiff-fe": ["--problem", "2d-convdiff", "--integrator", "fe",
                       "--N", "16", "--T", "0.1", "--bp-limiter"],
    "2d-burgers-fe": ["--problem", "2d-burgers", "--integrator", "fe", "--N", "16",
                      "--T", "0.2", "--bp-limiter"],
    "inflow-burgers": ["--problem", "inflow-burgers", "--N", "40", "--T", "0.5",
                       "--bp-limiter"],
    "dirichlet-convdiff": ["--problem", "dirichlet-convdiff", "--N", "40",
                           "--T", "1", "--bp-limiter"],
    "linadv-sin4-unlimited": ["--problem", "linadv-sin4", "--N", "40",
                              "--T", "0.5"],
}


def _solve(name: str, out: Path) -> bytes:
    argv = RUNS[name]
    assert main(["solve", *argv, "--out", str(out)]) == 0
    problem = argv[argv.index("--problem") + 1]
    return (out / f"{problem}_solution.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_solution_csv_is_unchanged(name, tmp_path, capsys):
    produced = _solve(name, tmp_path)
    capsys.readouterr()
    assert produced == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_golden_outputs.py --regenerate")
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    for run in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{run}.csv").write_bytes(_solve(run, Path(tmp)))
