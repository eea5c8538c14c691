"""Spans around the calls into each solver module, recorded from outside.

``instrument`` wraps the public functions and scheme methods listed in
``_targets``.  A function is replaced in every ``compactbp`` module
namespace that holds it, because ``limiters``, ``schemes2d`` and
``boundary`` bind names such as ``limit_bounds`` and ``solve_weighting``
directly.  Spans stay in memory and are written out when the solve ends;
``layer_metrics`` turns them into per-step layer numbers, where a span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _solve_attrs(args, kwargs, out):
    # rhs in, solution out, band (3n) plus the two rank-one vectors (2n)
    w, rhs = args[0], args[1]
    axis = args[2] if len(args) > 2 else kwargs.get("axis", 0)
    n = rhs.shape[axis]
    return {"points": int(rhs.size), "bytes": 8 * (2 * int(rhs.size) + 5 * n)}


def _limiter_attrs(args, kwargs, out):
    rep = out[1]
    return {"modified": rep.modified_count, "sawtooth": rep.sawtooth_count}


def _targets(cbp):
    """(owner, attribute, span name, attribute extractor) for each wrap."""
    ops, lim, s1, s2, bnd, ti, hs = (cbp.operators, cbp.limiters, cbp.schemes1d,
                                      cbp.schemes2d, cbp.boundary, cbp.timeint,
                                      cbp.harness)
    out = [
        (ops, "solve_weighting", "operators.solve", _solve_attrs),
        (ops, "apply_weighting", "operators.apply", None),
        (ops.DiffStencil, "apply", "operators.stencil", None),
        (ops, "solve_open_weighting", "operators.open_solve", None),
        # the Dirichlet corner system is a banded solve boundary.py calls
        # through its own binding of scipy's solve_banded
        (bnd, "solve_banded", "operators.open_solve", None),
        (lim, "limit_bounds", "limiters.limit", _limiter_attrs),
        (lim, "limit_bounds_segment", "limiters.limit", _limiter_attrs),
        (lim, "classify_sets", "limiters.classify", None),
        (lim, "tvb_flux", "limiters.tvb", None),
        (ti.SspIntegrator, "advance", "timeint.advance", None),
        (hs, "run_single", "harness.run_single", None),
        (hs, "run_level", "harness.run_level", None),
        (hs, "build_scheme", "harness.build", None),
    ]
    for layer, cls in (("schemes1d", s1.PeriodicScheme1D),
                       ("schemes2d", s2.PeriodicScheme2D),
                       ("boundary", bnd.DirichletConvDiffScheme)):
        for meth in ("means", "rhs_means", "recover"):
            out.append((cls, meth, f"{layer}.{meth}", None))
    return out


class Tracer:
    """In-memory span store for one solve (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (name, start_ns, end_ns, parent index or -1, attrs or None)
        self.spans: list = []
        self._open: list[int] = []

    def wrap(self, name, fn, attrs_of=None):
        spans, stack = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if attrs_of is not None:
                spans[index] = (name, start, end, parent, attrs_of(args, kwargs, out))
            return out

        return traced

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}) + "\n")


def instrument(tracer: Tracer, cbp) -> None:
    """Wrap every target in every ``compactbp`` namespace that binds it."""
    namespaces = [m for k, m in sys.modules.items()
                  if m is not None and (k == "compactbp" or k.startswith("compactbp."))]
    for owner, attr, name, attrs_of in _targets(cbp):
        fn = vars(owner)[attr]
        wrapped = tracer.wrap(name, fn, attrs_of)
        if isinstance(owner, type) or not fn.__module__.startswith("compactbp"):
            # methods, and foreign functions such as scipy's solve_banded
            # (which operators.py also binds), are replaced on the owner only
            setattr(owner, attr, wrapped)
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, wrapped)


SCHEME_LAYERS = ("schemes1d", "schemes2d", "boundary")


def layer_metrics(spans, steps: int) -> dict:
    """Per-step (or per-solve total) layer numbers from one solve's spans."""
    child_ns = defaultdict(int)
    recover_children = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            if name.endswith(".recover"):
                recover_children[parent] += 1
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(int))
    active = 0
    rk_steps = 0
    for i, (name, start, end, parent, extra) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
        if extra:
            for key, value in extra.items():
                attrs[name][key] += value
            if extra.get("modified"):
                active += 1
        if name == "timeint.advance" and recover_children[i] > 1:
            rk_steps += 1

    def per_step(x):
        return x / steps

    def us(name):
        return per_step(self_ns[name] / 1e3)

    m = {
        "operators.solve_calls": per_step(calls["operators.solve"]),
        "operators.solve_us": us("operators.solve"),
        "operators.solve_points": per_step(attrs["operators.solve"]["points"]),
        "operators.solve_bytes": per_step(attrs["operators.solve"]["bytes"]),
        "operators.apply_calls": per_step(calls["operators.apply"]),
        "operators.apply_us": us("operators.apply"),
        "operators.stencil_calls": per_step(calls["operators.stencil"]),
        "operators.stencil_us": us("operators.stencil"),
        "operators.open_solve_calls": per_step(calls["operators.open_solve"]),
        "operators.open_solve_us": us("operators.open_solve"),
        "limiters.calls": per_step(calls["limiters.limit"]),
        "limiters.us": us("limiters.limit") + us("limiters.classify"),
        "limiters.classify_us": us("limiters.classify"),
        "limiters.modified_points": per_step(attrs["limiters.limit"]["modified"]),
        "limiters.sawtooth_sets": per_step(attrs["limiters.limit"]["sawtooth"]),
        "limiters.active_ratio": (active / calls["limiters.limit"]
                                  if calls["limiters.limit"] else 0.0),
        "limiters.tvb_calls": per_step(calls["limiters.tvb"]),
        "limiters.tvb_us": us("limiters.tvb"),
    }
    for layer in SCHEME_LAYERS:
        for meth in ("means", "rhs_means", "recover"):
            m[f"{layer}.{meth}_calls"] = per_step(calls[f"{layer}.{meth}"])
            m[f"{layer}.{meth}_us"] = us(f"{layer}.{meth}")
    m["timeint.steps"] = calls["timeint.advance"]
    m["timeint.rk_steps"] = rk_steps
    m["timeint.self_us"] = us("timeint.advance")
    m["harness.build_us"] = self_ns["harness.build"] / 1e3
    # run_single's only own work besides run_level is the CSV write
    m["harness.write_us"] = self_ns["harness.run_single"] / 1e3
    return m


def layer_units() -> dict:
    """Unit of every per-layer metric, ``harness.csv_bytes`` and
    ``trace.overhead`` (which the caller adds) included."""
    units = {}
    for key in layer_metrics([], 1):
        if key.endswith("us"):
            units[key] = "us/step"
        elif key.endswith("_bytes"):
            units[key] = "B/step"
        else:
            units[key] = "count/step"
    units.update({"limiters.active_ratio": "ratio", "timeint.steps": "count",
                  "timeint.rk_steps": "count", "harness.build_us": "us",
                  "harness.write_us": "us", "harness.csv_bytes": "B",
                  "trace.overhead": "ratio"})
    return units
