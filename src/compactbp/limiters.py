"""Conservative bound enforcement on point values.

The schemes in this package guarantee that a tridiagonal weighted mean
``(u_{i-1} + c u_i + u_{i+1})/(c+2)`` of the point values stays inside the
invariant interval ``[lower, upper]``.  The limiters here exploit that
guarantee to push every point value back into the interval by local
redistribution that changes neither the global sum nor, on smooth data,
the order of accuracy.

Out-of-range points come in two flavours and are treated differently:

* isolated excursions (no overshoot adjacent to an undershoot) are fixed
  by a three-point transfer between the offending point and its immediate
  neighbours, with ratios frozen on the input values;
* sawtooth runs (an overshoot adjacent to an undershoot) are clamped and
  the clamping error is rebalanced proportionally across the run and its
  two in-range end points.

Periodic lines and open segments follow the same rule; only whether the
points beyond a line's ends wrap differs.  Every entry point runs on one
batched core that limits all lines of an array along one axis at once,
so a 2D cascade level is a single call, and one classifier,
``classify_sets``, finds the sawtooth sets of either kind of line.
A c-value below 2 raises the weightings' ``CoefficientDomainError``
(``operators.check_c``).  All functions are pure: they never mutate
their inputs and hold no state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import apply_weighting, check_c, solve_weighting

_TINY = 1e-14


class WeakMonotonicityError(ValueError):
    """A weighted mean left the invariant interval beyond tolerance."""

    def __init__(self, index, value, lo, hi):
        self.index = index
        self.value = float(value)
        super().__init__(
            f"weighted mean {value:.17g} at index {index} outside "
            f"[{lo:.17g}, {hi:.17g}]; the producing scheme violated its CFL "
            "constraint or the data is not admissible")


class RedistributionError(ArithmeticError):
    """Conservative redistribution became infeasible (round-off pathology)."""


@dataclass(frozen=True)
class Bounds:
    """Invariant interval; ``tol`` is the absolute slack of precondition checks."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")

    @property
    def tol(self) -> float:
        return 1e-12 * max(1.0, abs(self.lower), abs(self.upper))

    @property
    def span(self):
        return self.lower, self.upper


@dataclass
class LimiterReport:
    """Diagnostics of one limiter application; ``rebalance_used`` is derived."""

    modified_count: int = 0
    max_displacement: float = 0.0
    conservation_residual: float = 0.0
    sawtooth_count: int = 0
    whole_circle_fallback: bool = False
    boundary_exchange: float = 0.0

    @property
    def rebalance_used(self) -> bool:
        """Whether a sawtooth set was clamped and rebalanced."""
        return self.sawtooth_count > 0

    def merge(self, other: "LimiterReport") -> "LimiterReport":
        return LimiterReport(
            self.modified_count + other.modified_count,
            max(self.max_displacement, other.max_displacement),
            self.conservation_residual + other.conservation_residual,
            self.sawtooth_count + other.sawtooth_count,
            self.whole_circle_fallback or other.whole_circle_fallback,
            self.boundary_exchange + other.boundary_exchange,
        )


@dataclass(frozen=True)
class SetClassification:
    """The sawtooth sets of one line.

    Each entry is the index range ``(start, length)``, cyclic on a periodic
    line, of a mixed-sign out-of-range run and the in-range point on each
    side of it (one only where a run touches a segment end).
    ``whole_circle`` is set only when a periodic line has no in-range point.
    """

    sawtooth_sets: tuple[tuple[int, int], ...]
    whole_circle: bool = False


def classify_sets(u: np.ndarray, bounds: Bounds, periodic: bool = True) -> SetClassification:
    """Locate sawtooth runs (mixed-sign excursions) in a periodic line or open segment."""
    u = np.asarray(u, dtype=float)
    lo, hi = bounds.span
    n = u.size
    over, under = u > hi, u < lo
    out = over | under
    if periodic and out.all():
        return SetClassification(((0, n),), whole_circle=True)
    # a periodic line is scanned from an in-range point, so no run wraps
    k = int(np.argmin(out)) if periodic else 0
    over, under, out = (np.roll(a, -k) for a in (over, under, out))
    edges = np.diff(np.concatenate(([0], out.astype(np.int8), [0])))
    starts, ends = (np.flatnonzero(edges == d).tolist() for d in (1, -1))
    sets = []
    for s, e in zip(starts, ends):
        if over[s:e].any() and under[s:e].any():
            # the flanks wrap on a circle (and coincide when it has one
            # in-range point) and are clipped to a segment
            first, last = (s - 1, e) if periodic else (max(s - 1, 0), min(e, n - 1))
            sets.append(((first + k) % n, min(last - first + 1, n)))
    return SetClassification(tuple(sorted(sets)))


# ---------------------------------------------------------------------------
# Batched core: every line of an array along one axis in one pass
# ---------------------------------------------------------------------------

def _first(mask, values, shape, axis):
    """Index in the caller's array, and value, of the first flagged point.

    ``mask`` and ``values`` are in the core's ``(n, lines)`` layout;
    ``shape`` is the caller's shape with the limited axis swapped to the front.
    """
    mask, values = (a.reshape(shape).swapaxes(0, axis) for a in (mask, values))
    idx = tuple(int(i) for i in np.argwhere(mask)[0])
    return (idx[0] if len(idx) == 1 else idx), float(values[idx])


def _transfer(U, V, sides, sets, lo, hi, tol, ends, shape, axis):
    """Three-point transfers from every isolated source, all bounds at once.

    ``sides`` lists the bounds with excursions (True for the lower one);
    their out-of-range points outside the sawtooth ``sets`` are the
    sources.  Each source's excursion ``bound - U`` goes to its two
    neighbours in the ratio of their headrooms on ``U``; an out-of-range
    neighbour has none, so sources never feed each other.  ``V`` gets
    ``U`` minus the shares, each neighbour taking its shares in the order
    a sweep in increasing index, over the lower and then over the upper
    sources, would give them; the sources themselves are left to the
    caller.  Returns the shares leaving through the two ends of each line,
    which only a segment with fixed end values has.
    """
    n, lines = U.shape
    # the signed distance of every point from each bound, positive inside,
    # splits into the headroom (its positive part, with a row beyond each
    # end) and the amount bound - U (the rest: +0.0 on and inside the bound)
    heads = np.empty((len(sides), n + 2, lines))
    amount = np.empty((len(sides), n, lines))
    for a, lower in zip(amount, sides):
        np.subtract(U, lo, out=a) if lower else np.subtract(hi, U, out=a)
    np.maximum(amount, 0.0, out=heads[:, 1:-1])
    deep = amount < -tol  # excursions beyond the slack, from the distances
    for a, h, lower in zip(amount, heads, sides):
        np.subtract(h[1:-1], a, out=a) if lower else np.subtract(a, h[1:-1], out=a)
    if ends is None:
        heads[:, 0], heads[:, -1] = heads[:, -2], heads[:, 1]
    elif isinstance(ends, str):
        heads[:, 0] = heads[:, -1] = 0.0
    else:
        for h, lower in zip(heads, sides):
            h[0], h[-1] = (np.maximum(e - lo if lower else hi - e, 0.0) for e in ends)
    for k, idx in sets:
        amount[:, idx, k] = 0.0
        deep[:, idx, k] = False
    h_left, h_right = heads[:, :-2], heads[:, 2:]
    total = h_left + h_right
    if total.min() <= _TINY:
        # a source without headroom on either side moves nothing and must
        # be on its bound already; an infinite total gives it zero shares
        flat = total <= _TINY
        stuck = flat & deep
        if stuck.any():
            side = next(s for s in range(len(stuck)) if stuck[s].any())
            i, a = _first(stuck[side], amount[side], shape, axis)
            raise RedistributionError(
                f"no headroom to repair excursion of {abs(a):.3e} at index {i}")
        np.putmask(total, flat, np.inf)
    to_left = np.divide(h_left, total)
    to_left *= amount
    to_right = np.divide(h_right, total, out=total)
    to_right *= amount
    if not sides[-1]:
        # a negative amount times a zero headroom gives -0.0, which would
        # turn a -0.0 neighbour into +0.0; a neighbour without headroom
        # takes nothing, so its share is +0.0
        to_left[-1] += 0.0
        to_right[-1] += 0.0
    inner = V[1:-1]
    first, last = U[0], U[-1]
    for side in range(len(sides)):
        np.subtract(U[1:-1] if side == 0 else inner, to_right[side, :-2], out=inner)
        inner -= to_left[side, 2:]
        if ends is None:
            # at the wrap rows the right-hand source comes first in the sweep
            first = (first - to_left[side, 1]) - to_right[side, -1]
            last = (last - to_left[side, 0]) - to_right[side, -2]
        elif n > 1:
            first = first - to_left[side, 1]
            last = last - to_right[side, -2]
    V[0], V[-1] = first, last
    exits = 0.0
    if ends is not None:
        for side in range(len(sides)):
            exits = exits + to_left[side, 0] + to_right[side, -1]
    return exits


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


def _weighted_means(U, c, ends):
    """The c-weighted means of the ``(n, lines)`` array ``U`` (see ``_limit``)."""
    if ends is None:
        return apply_weighting(c, U)
    # three-point means with a ghost row beyond each end: the fixed end
    # values, or placeholders that the two-point end rows replace
    edge = isinstance(ends, str)
    ext = np.empty((U.shape[0] + 2, U.shape[1]))
    ext[0], ext[1:-1], ext[-1] = (0.0, U, 0.0) if edge else (ends[0], U, ends[1])
    means = (ext[:-2] + c * ext[1:-1] + ext[2:]) / (c + 2.0)
    if edge:
        means[0] = (c * U[0] + U[1]) / (c + 1.0)
        means[-1] = (U[-2] + c * U[-1]) / (c + 1.0)
    return means


def _limit(u, bounds, c, axis, ends, means=None):
    """Limit every line of ``u`` along ``axis`` in one pass.

    ``ends`` is None on periodic lines, ``"edge"`` on segments whose end
    means are the two-point rows, or the pair of fixed values beyond the
    two ends of a segment.  ``means`` are the c-weighted means of ``u``
    (same shape) when the caller has them; they are checked instead of
    being recomputed.  Only lines with an overshoot next to an undershoot
    (or, periodic, no in-range point) are classified and rebalanced set
    by set, in index order, because sets sharing an end point interact.
    """
    u = np.asarray(u, dtype=float)
    check_c(c)
    lo, hi = bounds.span
    tol = bounds.tol
    lines = u.swapaxes(0, axis)
    shape = lines.shape
    U = lines.reshape(shape[0], -1)
    # the extremes catch NaN and inf, and give the range check below
    umin, umax = U.min(), U.max()
    if not (math.isfinite(umin) and math.isfinite(umax)):
        i, x = _first(~np.isfinite(U), U, shape, axis)
        raise ValueError(f"non-finite value {x} at index {i}")
    if means is None:
        means = _weighted_means(U, c, ends)
    else:
        means = np.asarray(means, dtype=float)
        if means.shape != u.shape:
            raise ValueError(f"means of shape {means.shape} for values of shape {u.shape}")
        means = means.swapaxes(0, axis).reshape(shape[0], -1)
    if not (means.min() >= lo - tol and means.max() <= hi + tol):  # NaN fails too
        i, x = _first(~((means >= lo - tol) & (means <= hi + tol)), means, shape, axis)
        raise WeakMonotonicityError(i, x, lo, hi)
    # copies keep the caller's memory order, so sums over the result add
    # in the same order as over an array limited in place
    if lo <= umin and umax <= hi:
        return u.copy(order="K"), LimiterReport()
    report = LimiterReport()
    # shifted row slices of a C-ordered array collapse into one flat loop;
    # the result goes back in the caller's memory order
    layout, U = U, np.ascontiguousarray(U)
    periodic = ends is None
    n = U.shape[0]
    # the bounds with excursions (True for the lower one) and their sources
    sides = [lower for lower, past in ((True, umin < lo), (False, umax > hi)) if past]
    sources = [U < lo if lower else U > hi for lower in sides]

    # lines with an overshoot next to an undershoot (or, periodic, without
    # an in-range point) have sawtooth sets; their members are no sources
    mixed = np.zeros(U.shape[1], dtype=bool)
    outside = sources[0] if len(sources) == 1 else sources[0] | sources[1]
    if periodic and np.count_nonzero(outside) >= n:
        mixed |= outside.all(axis=0)
    if len(sides) == 2:
        under, over = sources
        touch = (over[1:] & under[:-1]) | (under[1:] & over[:-1])
        if touch.any():
            mixed |= touch.any(axis=0)
        if periodic:
            mixed |= (over[0] & under[-1]) | (under[0] & over[-1])
    sets = []
    for k in mixed.nonzero()[0]:
        cls = classify_sets(U[:, k], bounds, periodic)
        report.whole_circle_fallback |= cls.whole_circle
        for start, length in cls.sawtooth_sets:
            idx = (start + np.arange(length)) % n
            sets.append((k, idx))
            for src in sources:
                src[idx, k] = False

    V = np.empty_like(U)
    exits = _transfer(U, V, sides, sets, lo, hi, tol, ends, shape, axis)
    for lower, src in zip(sides, sources):
        np.putmask(V, src, lo if lower else hi)
    for k, idx in sets:
        _rebalance_set(U[:, k], V[:, k], idx, lo, hi, tol)
    report.sawtooth_count = len(sets)

    # clip round-off residue onto the bounds; transfers toward one bound
    # only move points toward it, so only a rebalance can pass the other
    for lower in (True, False) if sets else sides:
        worst = lo - V.min() if lower else V.max() - hi
        if worst > 0.0:
            if worst > max(tol, _TINY):
                name = "below lower" if lower else "above upper"
                raise RedistributionError(f"output {name} bound by {worst:.3e}")
            V[V < lo if lower else V > hi] = lo if lower else hi
    d = V - U
    report.modified_count = int(np.count_nonzero(d != 0.0))
    residual = np.ones(len(d)) @ d  # per-line sums, as one BLAS product
    if not periodic:
        report.boundary_exchange = float(np.sum(exits))
        residual -= exits
    report.conservation_residual = float(np.abs(residual).sum())
    if report.modified_count:
        report.max_displacement = float(np.abs(d, out=d).max())
    if U is not layout:
        result = np.empty_like(layout)
        result[...] = V
        V = result
    return V.reshape(shape).swapaxes(0, axis), report


def limit_bounds(u: np.ndarray, bounds: Bounds, c: float, axis: int = 0,
                 means: np.ndarray | None = None) -> tuple[np.ndarray, LimiterReport]:
    """Enforce ``v_i in [lower, upper]`` on periodic data, conservatively.

    Requires the c-weighted means of ``u`` to lie in the interval (up to
    tolerance).  Isolated excursions are repaired by three-point
    transfers; sawtooth runs are clamped and rebalanced within the run and
    its two in-range end points, which preserves the sum of every line in
    every admissible configuration (including the whole-circle case with
    no in-range point at all).  ``u`` may have any number of dimensions:
    every line along ``axis`` is a separate periodic line, and the report
    covers them all.  A caller that already holds the means (``u`` solved
    from them) passes them as ``means``, of ``u``'s shape; they are
    checked instead of recomputed.  Non-finite input raises ``ValueError``.
    """
    return _limit(u, bounds, c, axis, None, means)


def limit_bounds_segment(u: np.ndarray, bounds: Bounds, c: float, *,
                         left: float | None = None, right: float | None = None,
                         edge_rows: bool = False,
                         means: np.ndarray | None = None) -> tuple[np.ndarray, LimiterReport]:
    """Bound enforcement on a finite segment (on each column of n-d input).

    Two end treatments are supported:

    * ``left``/``right`` give fixed in-range boundary values outside the
      segment (they complete the three-point means but are never modified;
      transfer shares assigned to them are dropped and reported as
      ``boundary_exchange``, the physical exchange with the boundary);
    * ``edge_rows=True`` states that the end means are the two-point rows
      ``(c u_1 + u_2)/(c+1)``; redistribution then stays entirely inside
      the segment and the sum is preserved exactly.

    ``means``, of ``u``'s shape, are the segment's means under the chosen
    end treatment when the caller already holds them, as in
    ``limit_bounds``.  A segment has at least one point, and at least two
    with ``edge_rows`` (each end row reads its neighbour); a shorter one
    raises ``ValueError``.

    With fixed end values, a sawtooth run reaching a segment end has no
    in-range member there, and when its sum exceeds what its members can
    hold ``RedistributionError`` is raised (c = 2.5, ends 0, means
    ``(-1, 0, -1)`` in ``[-1, 0]``).  The open schemes limit such segments
    at c = 4 only, where a bounded search found no refused data.
    """
    u = np.asarray(u, dtype=float)
    need = 2 if edge_rows else 1
    if u.ndim == 0 or u.shape[0] < need:
        got = "a scalar" if u.ndim == 0 else u.shape[0]
        raise ValueError(f"a segment needs at least {need} point{'s' * (need > 1)}"
                         f"{' with edge rows' if edge_rows else ''}, got {got}")
    if edge_rows:
        if left is not None or right is not None:
            raise ValueError("edge_rows=True takes no fixed boundary values")
        return _limit(u, bounds, c, 0, "edge", means)
    if left is None or right is None:
        raise ValueError("need fixed boundary values or edge_rows=True")
    if not (math.isfinite(left) and math.isfinite(right)):
        raise ValueError(f"non-finite end value in {(left, right)}")
    return _limit(u, bounds, c, 0, (left, right), means)


# ---------------------------------------------------------------------------
# Recovery through weighting levels
# ---------------------------------------------------------------------------

def recover_point_values(means: np.ndarray, levels, bounds: Bounds,
                         limiting: bool) -> tuple[np.ndarray, LimiterReport]:
    """Invert weighting levels one at a time, limiting after each solve.

    ``means`` are the fully weighted means (the product of all levels
    applied to the unknown point values); ``levels`` lists the ``(c, axis)``
    weightings in solve order.  Each solve's right-hand side is the set of
    next-level weighted means of its solution, inside the bounds, so the
    three-point limiter applies at exactly that c, along that axis, and
    checks those means.  The lines of one level touch disjoint data and
    are limited in one batched call.

    Only the first level's means need the check: every later level's
    means are the previous level's output, which the limiter has kept or
    pushed inside the bounds.  A later level therefore calls the limiter
    only when its solution leaves ``[lower, upper]`` (a NaN fails the
    test, so the limiter still refuses it); on an in-range solution the
    limiter would return a copy of it and an empty report, so skipping
    the call changes no bit.  With ``limiting`` false the levels are only
    solved.
    """
    x = np.asarray(means, dtype=float)
    lo, hi = bounds.span
    report = LimiterReport()
    for level, (c, axis) in enumerate(levels):
        rhs = x
        x = solve_weighting(c, rhs, axis=axis)
        if not limiting or (level and lo <= x.min() and x.max() <= hi):
            continue
        x, rep = limit_bounds(x, bounds, c, axis=axis, means=rhs)
        if rep.modified_count:
            report = report.merge(rep)
    return x, report


# ---------------------------------------------------------------------------
# TVB flux limiting
# ---------------------------------------------------------------------------

def _minmod_rows(a1, a2, a3, p, dx):
    """Minmod with a smoothness exemption below ``p * dx**2``, elementwise.

    Returns ``a1`` where ``|a1| <= p * dx**2``; elsewhere the common-sign
    minimum magnitude of ``a1, a2, a3``, or +0.0 on sign disagreement.
    That is ``max(min(a), 0) + min(max(a), 0)`` of finite arguments:
    with all three positive only the first term is nonzero, with all
    negative only the second, and otherwise both are zeros whose sum is
    +0.0 (a sum of two zeros is -0.0 only when both are).
    """
    lo = np.minimum(a2, a3)
    np.minimum(lo, a1, out=lo)
    hi = np.maximum(a2, a3)
    np.maximum(hi, a1, out=hi)
    np.maximum(lo, 0.0, out=lo)
    np.minimum(hi, 0.0, out=hi)
    lo += hi
    np.copyto(lo, a1, where=np.abs(a1) <= p * dx * dx)
    return lo


def tvb_flux(u: np.ndarray, ubar: np.ndarray, problem, dx: float,
             p: float) -> np.ndarray:
    """Total-variation-bounded numerical flux at the half points.

    Splits the flux into monotone components ``(f(u) +- speed*u)/2`` with
    ``speed = max |f'|`` over the invariant interval, limits the deviation
    of each component from its first-order upwind value against
    neighbouring forward differences with the modified minmod, and returns
    ``fhat[i] ~ f_{i+1/2}``.

    One stacked pass does it.  The four components go into one
    ``(2, 2, n+3)`` array indexed by argument (``u``, then ``ubar``), by
    sign (``+``, then ``-``) and by column ``i+1`` for point ``i``, with
    the points ``n-1`` before and ``0, 1`` after the line wrapped in, so
    every neighbour is a shifted slice.  The upwind deviations of the two
    components, ``fhat+ - f+(ubar_i)`` and ``f-(ubar_{i+1}) - fhat-``, form
    one ``(2, n)`` stack limited by one minmod call: the ``+`` row against
    the forward differences of ``f+(ubar)`` at ``i`` and ``i-1``, the ``-``
    row against those of ``f-(ubar)`` at ``i`` and ``i+1``.  The minmod
    takes ``max(min(a), 0) + min(max(a), 0)`` of its three arguments
    (see ``_minmod_rows``), which equals the common-sign minimum magnitude
    bit for bit.  ``n >= 2``.
    """
    n = u.size
    x = np.empty((2, n + 3))
    x[0, 1:-2], x[1, 1:-2] = u, ubar
    x[:, 0] = x[:, -3]
    x[:, -2:] = x[:, 1:3]
    speed = problem.max_fprime
    # f - speed*x is f + (-speed)*x exactly, so one signed multiply, an
    # add of f per argument and one halving give all four components
    comp = np.multiply(x[:, None], np.array([[speed], [-speed]]))
    comp[0] += problem.flux(x[0])
    comp[1] += problem.flux(x[1])
    comp *= 0.5
    at, nxt = comp[..., 1:-2], comp[..., 2:-1]  # points i and i+1

    fhat = at[0] + nxt[0]  # (f+-(u_i) + f+-(u_{i+1}))/2, both signs
    fhat *= 0.5
    dev = np.empty((2, n))
    np.subtract(fhat[0], at[1, 0], out=dev[0])
    np.subtract(nxt[1, 1], fhat[1], out=dev[1])
    # forward differences of both components at ubar, column j for point
    # j-1, laid out with rows n+4 apart so that one (2, n) view holds
    # column i of the + row (point i-1) and column i+2 of the - row
    buf = np.empty(2 * (n + 4))
    dplus = buf[:2 * (n + 2)].reshape(2, n + 2)
    np.subtract(comp[1, :, 1:], comp[1, :, :-1], out=dplus)
    outer = buf.reshape(2, n + 4)[:, :n]
    lim = _minmod_rows(dev, dplus[:, 1:-1], outer, p, dx)

    out = at[1, 0] + lim[0]
    out += nxt[1, 1] - lim[1]
    return out


def flux_difference(fhat: np.ndarray) -> np.ndarray:
    """Periodic ``fhat_{i+1/2} - fhat_{i-1/2}`` of half-point fluxes ``fhat[i] ~ f_{i+1/2}``."""
    out = np.empty_like(fhat)
    np.subtract(fhat[1:], fhat[:-1], out=out[1:])
    out[0] = fhat[0] - fhat[-1]
    return out
