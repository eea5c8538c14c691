"""The benchmark in ``solverbench/`` still finds every solver name it uses.

The benchmark's tracer wraps solver functions and methods by name, and its
workers build ``harness.RunConfig`` from keyword arguments, so deleting or
renaming one of those names breaks ``solverbench/run.py --trace 1`` or
every benchmark solve; its solve attributes read ``solve_weighting``'s
arguments by position, so reordering them breaks the solve layer's
numbers.  Both benchmark modules are loaded from their files without
being changed.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import compactbp
from compactbp import harness

BENCH = Path(__file__).resolve().parent.parent / "solverbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"solverbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("target", tracing._targets(compactbp),
                         ids=lambda t: f"{getattr(t[0], '__name__', t[0])}.{t[1]}")
def test_traced_name_is_bound_on_its_owner(target):
    owner, attr = target[:2]
    assert attr in vars(owner)


@pytest.mark.parametrize("profile", workloads.PROFILES)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_builds(name, profile):
    wl = workloads.WORKLOADS[name]
    n = workloads.grid_size(wl, profile, 0)
    config = harness.RunConfig(**workloads.run_config_kwargs(
        wl, n, workloads.final_time(wl, profile, n), None))
    harness.build_scheme(config, n)


@pytest.mark.parametrize("problem", compactbp.BUILTIN_IDS)
def test_only_2d_contexts_have_dy(problem):
    # the benchmark's output check takes a 2D cell volume (dx * dy) exactly
    # when the scheme's context has ``dy``
    config = harness.RunConfig(problem=problem, n=8, T=0.01)
    _, scheme, _ = harness.build_scheme(config, config.n)
    is_2d = isinstance(scheme, compactbp.PeriodicScheme2D)
    assert hasattr(scheme.ctx, "dy") == is_2d


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_run_single_steps_and_starts_once(monkeypatch, tmp_path, name):
    # the worker's setup_s runs from the start of run_single to the first
    # advance and its step_us has one entry per advance, so a solve must
    # build its start state once and advance exactly result["steps"] times
    wl = workloads.WORKLOADS[name]
    n = workloads.grid_size(wl, "tiny", 0)
    config = harness.RunConfig(**workloads.run_config_kwargs(
        wl, n, workloads.final_time(wl, "tiny", n), str(tmp_path)))
    calls = {"advance": 0, "initial_state": 0}

    def counted(owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(compactbp.SspIntegrator, "advance")
    counted(compactbp.schemes1d.Scheme, "initial_state")
    result, _ = harness.run_single(config)
    assert calls == {"advance": result["steps"], "initial_state": 1}


def test_solve_attrs_read_the_solve_arguments(monkeypatch):
    # the tracer takes rhs from the second positional argument of
    # solve_weighting and the axis from the third or the keyword: record
    # the solves of one 2D recovery on a non-square field, whose lines
    # differ in length along the two axes, and read each one back
    scheme = compactbp.PeriodicScheme2D(compactbp.builtin("2d-convdiff"),
                                        compactbp.StepContext2D(0.3, 0.4))
    x, y = np.meshgrid(np.linspace(0.0, 6.0, 9), np.linspace(0.0, 6.0, 7), indexing="ij")
    q = scheme.means(0.5 * np.sin(x) * np.cos(y))
    solve = compactbp.operators.solve_weighting
    signature = inspect.signature(solve)
    calls = []

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return solve(*args, **kwargs)

    for module in (compactbp.operators, compactbp.limiters):
        monkeypatch.setattr(module, "solve_weighting", recorder)
    scheme.recover(q, 0.0)
    assert len(calls) == len(scheme.levels) == 4
    for (args, kwargs), (c, axis) in zip(calls, scheme.levels):
        given = signature.bind(*args, **kwargs).arguments
        rhs = given["rhs"]
        assert (given["c"], given.get("axis", 0)) == (c, axis)
        assert tracing._solve_attrs(args, kwargs, None) == {
            "points": rhs.size, "bytes": 8 * (2 * rhs.size + 5 * rhs.shape[axis])}
