"""Reference oracle: the per-point loop limiter the batched core replaced.

``limit_bounds`` and ``limit_bounds_segment`` limit one line at a time,
visiting the excursions one by one in increasing index (the helpers are
kept unchanged from that implementation).  ``classify`` finds the sawtooth
sets with that implementation's two run scans, cyclic and open, so the
core's own classifier is checked against an independent one.
``limit_lines`` is the per-line 2D loop that ran once per grid line of a
cascade level, merging the line reports with ``LimiterReport.merge``.  The
tests compare the batched core against these bit for bit.
"""

from __future__ import annotations

import numpy as np

from compactbp.limiters import (_TINY, Bounds, LimiterReport, RedistributionError,
                                WeakMonotonicityError)
from compactbp.operators import apply_weighting


def _check_means(means, lo, hi, tol):
    bad = (means < lo - tol) | (means > hi + tol)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise WeakMonotonicityError(i, means[i], lo, hi)


def _transfer_pass(u, v, sources, lo, hi, tol, report, *, lower,
                   left=None, right=None, periodic=True):
    """Three-point redistribution for the given source indices.

    Ratios are computed from the frozen input ``u`` while increments
    accumulate on the working copy ``v``; sources end exactly on the bound.
    ``left``/``right`` are fixed boundary values of an open segment: they
    contribute headroom to the ratios, but their share of the transfer is
    dropped and recorded as boundary exchange.
    """
    n = u.size

    def neighbor(i, off):
        j = i + off
        if periodic:
            return j % n, None
        if j < 0:
            return None, left
        if j >= n:
            return None, right
        return j, None

    for i in sources:
        amount = (lo - u[i]) if lower else (u[i] - hi)
        if amount <= 0.0:
            continue
        heads = []
        total = 0.0
        for off in (-1, 1):
            j, fixed = neighbor(i, off)
            if j is None and fixed is None:
                continue  # segment end with a two-point mean row: no neighbour
            val = u[j] if j is not None else fixed
            head = max(val - lo, 0.0) if lower else max(hi - val, 0.0)
            heads.append((j, head))
            total += head
        if total <= _TINY:
            if amount > tol:
                raise RedistributionError(
                    f"no headroom to repair excursion of {amount:.3e} at index {i}")
            v[i] = lo if lower else hi
            continue
        for j, head in heads:
            if head == 0.0:
                continue
            share = head / total * amount
            if j is None:
                report.boundary_exchange += share if lower else -share
                continue
            v[j] += -share if lower else share
        v[i] = lo if lower else hi


def _rebalance_set(u, v, members, lo, hi, tol):
    """Clamp out-of-range members and rebalance the clamping error.

    ``members`` lists the participating indices (in-range end points
    included).  The correction is proportional to each member's distance
    from the active bound, so bounds are kept and the member sum restored
    exactly.
    """
    nbar = members.size
    total_before = float(v[members].sum())
    feas_tol = tol * nbar
    if total_before < nbar * lo - feas_tol or total_before > nbar * hi + feas_tol:
        raise RedistributionError(
            f"set sum {total_before:.17g} outside feasible band "
            f"[{nbar * lo:.17g}, {nbar * hi:.17g}]")
    uu = u[members]
    vv = v[members].copy()
    vv[uu > hi] = hi
    vv[uu < lo] = lo
    diff = float(vv.sum()) - total_before
    if diff > 0.0:
        slack = vv - lo
        cap = float(slack.sum())
        if cap > _TINY:
            vv -= slack * (diff / cap)
    elif diff < 0.0:
        slack = hi - vv
        cap = float(slack.sum())
        if cap > _TINY:
            vv += slack * (-diff / cap)
    v[members] = vv


def _finalize(u, v, report, lo=None, hi=None, tol=0.0):
    """Clip round-off residue onto the bounds and fill the report."""
    if lo is not None:
        exc = lo - v
        mask = exc > 0
        if mask.any():
            worst = float(exc.max())
            if worst > max(tol, _TINY):
                raise RedistributionError(f"output below lower bound by {worst:.3e}")
            v[mask] = lo
    if hi is not None:
        exc = v - hi
        mask = exc > 0
        if mask.any():
            worst = float(exc.max())
            if worst > max(tol, _TINY):
                raise RedistributionError(f"output above upper bound by {worst:.3e}")
            v[mask] = hi
    changed = v != u
    report.modified_count += int(np.count_nonzero(changed))
    if changed.any():
        report.max_displacement = max(report.max_displacement,
                                      float(np.abs(v - u).max()))
    report.conservation_residual += abs(float(v.sum()) - float(u.sum())
                                        - report.boundary_exchange)


def limit_bounds(u: np.ndarray, bounds: Bounds, c: float) -> tuple[np.ndarray, LimiterReport]:
    """Enforce ``v_i in [lower, upper]`` on periodic data, conservatively.

    Requires the c-weighted means of ``u`` to lie in the interval (up to
    tolerance).  Isolated excursions are repaired by three-point
    transfers; sawtooth runs are clamped and rebalanced within the run and
    its two in-range end points, which preserves the global sum in every
    admissible configuration (including the whole-circle case with no
    in-range point at all).
    """
    u = np.asarray(u, dtype=float)
    if c < 2.0:
        raise ValueError(f"limiter requires c >= 2, got {c}")
    lo, hi = bounds.span
    tol = bounds.tol
    means = apply_weighting(c, u)
    _check_means(means, lo, hi, tol)
    report = LimiterReport()
    over = u > hi
    under = u < lo
    if not (over.any() or under.any()):
        return u.copy(), report
    sets, whole_circle = classify(u, bounds)
    n = u.size
    in_sawtooth = np.zeros(n, dtype=bool)
    for start, length in sets:
        in_sawtooth[(start + np.arange(length)) % n] = True
    v = u.copy()
    out = over | under
    sources = np.flatnonzero(out & ~in_sawtooth)
    _transfer_pass(u, v, sources[under[sources]], lo, hi, tol, report, lower=True)
    _transfer_pass(u, v, sources[over[sources]], lo, hi, tol, report, lower=False)
    for start, length in sets:
        members = (start + np.arange(length)) % n
        _rebalance_set(u, v, members, lo, hi, tol)
    report.sawtooth_count = len(sets)
    report.whole_circle_fallback = whole_circle
    _finalize(u, v, report, lo=lo, hi=hi, tol=tol)
    return v, report


def limit_bounds_segment(u: np.ndarray, bounds: Bounds, c: float, *,
                         left: float | None = None, right: float | None = None,
                         edge_rows: bool = False) -> tuple[np.ndarray, LimiterReport]:
    """Bound enforcement on a finite segment.

    Two end treatments are supported:

    * ``left``/``right`` give fixed in-range boundary values outside the
      segment (they complete the three-point means but are never modified;
      transfer shares assigned to them are dropped and reported as
      ``boundary_exchange``, the physical exchange with the boundary);
    * ``edge_rows=True`` states that the end means are the two-point rows
      ``(c u_1 + u_2)/(c+1)``; redistribution then stays entirely inside
      the segment and the sum is preserved exactly.
    """
    u = np.asarray(u, dtype=float)
    if c < 2.0:
        raise ValueError(f"limiter requires c >= 2, got {c}")
    lo, hi = bounds.span
    tol = bounds.tol
    n = u.size
    if edge_rows:
        means = np.empty(n)
        means[1:-1] = (u[:-2] + c * u[1:-1] + u[2:]) / (c + 2.0)
        means[0] = (c * u[0] + u[1]) / (c + 1.0)
        means[-1] = (u[-2] + c * u[-1]) / (c + 1.0)
        lval = rval = None
        periodic_ends = False
    else:
        if left is None or right is None:
            raise ValueError("need fixed boundary values or edge_rows=True")
        ext = np.concatenate(([left], u, [right]))
        means = (ext[:-2] + c * ext[1:-1] + ext[2:]) / (c + 2.0)
        lval, rval = float(left), float(right)
        periodic_ends = False
    _check_means(means, lo, hi, tol)
    report = LimiterReport()
    over = u > hi
    under = u < lo
    v = u.copy()
    if over.any() or under.any():
        out = over | under
        in_sawtooth = np.zeros(n, dtype=bool)
        sets = []
        for start, length in classify(u, bounds, periodic=False)[0]:
            sets.append(np.arange(start, start + length))
            in_sawtooth[sets[-1]] = True
        sources = np.flatnonzero(out & ~in_sawtooth)
        _transfer_pass(u, v, sources[under[sources]], lo, hi, tol, report,
                       lower=True, left=lval, right=rval, periodic=periodic_ends)
        _transfer_pass(u, v, sources[over[sources]], lo, hi, tol, report,
                       lower=False, left=lval, right=rval, periodic=periodic_ends)
        for members in sets:
            _rebalance_set(u, v, members, lo, hi, tol)
        report.sawtooth_count = len(sets)
        _finalize(u, v, report, lo=lo, hi=hi, tol=tol)
    return v, report


def classify(u, bounds, periodic=True):
    """The sawtooth sets of one line as sorted ``(start, length)`` index
    ranges (cyclic when ``periodic``), and whether the line is a circle
    without an in-range point."""
    lo, hi = bounds.span
    n = u.size
    over = u > hi
    under = u < lo
    out = over | under
    if periodic and out.all():
        return ((0, n),), True
    sets = []
    for start, length in (_runs_cyclic if periodic else _runs_open)(out):
        idx = (start + np.arange(length)) % n
        if over[idx].any() and under[idx].any():
            if not periodic:
                first = max(start - 1, 0)
                last = min(start + length, n - 1)
                sets.append((first, last - first + 1))
            elif length == n - 1:
                # single in-range point: both flanks coincide and the whole
                # circle participates in the rebalance
                sets.append(((start - 1) % n, n))
            else:
                sets.append(((start - 1) % n, length + 2))
    return tuple(sorted(sets)), False


def _runs_cyclic(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal cyclic runs of True in ``mask`` as (start, length) pairs."""
    n = mask.size
    if mask.all():
        return [(0, n)]
    if not mask.any():
        return []
    k = int(np.argmin(mask))  # index of some False entry
    rolled = np.roll(mask, -k)
    padded = np.concatenate(([False], rolled, [False]))
    d = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    return [(int((s + k) % n), int(e - s)) for s, e in zip(starts, ends)]


def _runs_open(mask: np.ndarray) -> list[tuple[int, int]]:
    padded = np.concatenate(([False], mask, [False]))
    d = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    return [(int(s), int(e - s)) for s, e in zip(starts, ends)]


def limit_lines(v, bounds, c, axis):
    """Limit every line of a 2D array along ``axis``, one line at a time."""
    v = np.array(v, dtype=float)
    arr = v if axis == 0 else v.T
    report = LimiterReport()
    for j in range(arr.shape[1]):
        arr[:, j], rep = limit_bounds(arr[:, j], bounds, c)
        report = report.merge(rep)
    return v, report
