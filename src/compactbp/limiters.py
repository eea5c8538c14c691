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

Every entry point runs on one batched core that limits all lines of an
array along one axis at once, so a 2D cascade level is a single call.
All functions are pure: they never mutate their inputs and hold no state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import WeightOperator, apply_weighting, apply_weighting_chain, solve_weighting

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


def default_tolerance(lower: float, upper: float) -> float:
    return 1e-12 * max(1.0, abs(lower), abs(upper))


@dataclass(frozen=True)
class Bounds:
    """Invariant interval with an absolute slack for precondition checks."""

    lower: float
    upper: float
    tolerance: float | None = None

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if self.tolerance is not None and self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")

    @property
    def tol(self) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return default_tolerance(self.lower, self.upper)

    @property
    def span(self):
        return self.lower, self.upper


@dataclass
class LimiterReport:
    """Diagnostics of one limiter application."""

    modified_count: int = 0
    max_displacement: float = 0.0
    conservation_residual: float = 0.0
    sawtooth_count: int = 0
    rebalance_used: bool = False
    whole_circle_fallback: bool = False
    boundary_exchange: float = 0.0

    def merge(self, other: "LimiterReport") -> "LimiterReport":
        return LimiterReport(
            self.modified_count + other.modified_count,
            max(self.max_displacement, other.max_displacement),
            self.conservation_residual + other.conservation_residual,
            self.sawtooth_count + other.sawtooth_count,
            self.rebalance_used or other.rebalance_used,
            self.whole_circle_fallback or other.whole_circle_fallback,
            self.boundary_exchange + other.boundary_exchange,
        )


@dataclass(frozen=True)
class SetClassification:
    """Partition of a periodic field into sawtooth and plain segments.

    Each entry is a cyclic index range ``(start, length)`` inclusive of the
    two in-range end points flanking the out-of-range run.  Sawtooth sets
    contain both overshoot and undershoot interior points; the plain sets
    cover the complement and share their end points with adjacent sawtooth
    sets.  ``whole_circle`` is set only when no in-range point exists.
    """

    sawtooth_sets: tuple[tuple[int, int], ...]
    plain_sets: tuple[tuple[int, int], ...]
    whole_circle: bool = False


def _cyclic_runs(mask: np.ndarray) -> list[tuple[int, int]]:
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


def classify_sets(u: np.ndarray, bounds: Bounds) -> SetClassification:
    """Locate sawtooth runs (mixed-sign excursions) in periodic data."""
    u = np.asarray(u, dtype=float)
    lo, hi = bounds.span
    n = u.size
    over = u > hi
    under = u < lo
    out = over | under
    if out.all():
        return SetClassification(((0, n),), (), whole_circle=True)
    sawtooth = []
    for start, length in _cyclic_runs(out):
        idx = (start + np.arange(length)) % n
        if over[idx].any() and under[idx].any():
            if length == n - 1:
                # single in-range point: both flanks coincide and the whole
                # circle participates in the rebalance
                sawtooth.append(((start - 1) % n, n))
            else:
                sawtooth.append(((start - 1) % n, length + 2))
    if not sawtooth:
        return SetClassification((), ((0, n),))
    ordered = sorted(sawtooth)
    plain = []
    if not any(length >= n for _, length in ordered):
        # plain segments run from each sawtooth right end to the next left end
        for (s1, l1), (s2, _) in zip(ordered, ordered[1:] + ordered[:1]):
            end = (s1 + l1 - 1) % n
            length = (s2 - end) % n + 1
            if length > 1 or len(ordered) == 1:
                plain.append((end, length))
    return SetClassification(tuple(ordered), tuple(plain))


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


def _sawtooth_sets(line, bounds, periodic):
    """Member indices of the sawtooth sets of one line, and the whole-circle flag.

    A set is a mixed-sign out-of-range run plus its two in-range end
    points; on an open segment a run touching an end has only one.
    """
    if periodic:
        cls = classify_sets(line, bounds)
        n = line.size
        return [(s + np.arange(k)) % n for s, k in cls.sawtooth_sets], cls.whole_circle
    lo, hi = bounds.span
    over, under = line > hi, line < lo
    edges = np.diff(np.concatenate(([0], (over | under).astype(np.int8), [0])))
    sets = [np.arange(max(s - 1, 0), min(e, line.size - 1) + 1)
            for s, e in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))
            if over[s:e].any() and under[s:e].any()]
    return sets, False


def _transfer(U, V, src, lower, lo, hi, tol, ends, shape, axis):
    """Three-point transfer from every isolated source, all lines at once.

    Ratios are frozen on the input ``U`` and sources end exactly on the
    bound.  An out-of-range neighbour has no headroom, so sources never
    feed each other and each neighbour takes the shares of its two
    sources in the order a sweep in increasing index would give them.
    Shares are signed (positive for the lower bound) and subtracted from
    the neighbours.  Returns the shares leaving through the two ends,
    which only a segment with fixed end values has.
    """
    bound = lo if lower else hi

    def room(x):
        return np.maximum(x - lo, 0.0) if lower else np.maximum(hi - x, 0.0)

    heads = room(U)
    if ends is None:
        first, last = heads[-1], heads[0]
    elif isinstance(ends, str):
        first = last = np.zeros(U.shape[1])
    else:
        first, last = room(ends[0]), room(ends[1])
    heads = np.concatenate((first[None], heads, last[None]))
    h_left, h_right = heads[:-2], heads[2:]
    total = h_left + h_right
    amount = np.where(src, bound - U, 0.0)
    ok = total > _TINY
    stuck = src & ~ok & (np.abs(amount) > tol)
    if stuck.any():
        i, a = _first(stuck, amount, shape, axis)
        raise RedistributionError(
            f"no headroom to repair excursion of {abs(a):.3e} at index {i}")
    amount[~ok] = 0.0
    total[~ok] = 1.0
    to_left = h_left / total * amount
    to_right = h_right / total * amount
    V[1:-1] -= to_right[:-2]
    V[1:-1] -= to_left[2:]
    if ends is None:
        # at the wrap rows the right-hand source comes first in the sweep
        V[0] = (V[0] - to_left[1]) - to_right[-1]
        V[-1] = (V[-1] - to_left[0]) - to_right[-2]
    elif len(V) > 1:
        V[0] -= to_left[1]
        V[-1] -= to_right[-2]
    np.copyto(V, bound, where=src)
    return to_left[0], to_right[-1]


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


def _limit(u, bounds, c, axis, ends):
    """Limit every line of ``u`` along ``axis`` in one pass.

    ``ends`` is None on periodic lines, ``"edge"`` on segments whose end
    means are the two-point rows, or the pair of fixed values beyond the
    two ends of a segment.  Only lines with an overshoot next to an
    undershoot (or, periodic, no in-range point) are classified and
    rebalanced set by set, in index order, because sets sharing an end
    point interact.
    """
    u = np.asarray(u, dtype=float)
    if c < 2.0:
        raise ValueError(f"limiter requires c >= 2, got {c}")
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
    periodic = ends is None
    if periodic:
        means = apply_weighting(WeightOperator(c), U)
    elif isinstance(ends, str):
        means = np.empty_like(U)
        means[1:-1] = (U[:-2] + c * U[1:-1] + U[2:]) / (c + 2.0)
        means[0] = (c * U[0] + U[1]) / (c + 1.0)
        means[-1] = (U[-2] + c * U[-1]) / (c + 1.0)
    else:
        ends = [np.full(U.shape[1], float(e)) for e in ends]
        ext = np.concatenate((ends[0][None], U, ends[1][None]))
        means = (ext[:-2] + c * ext[1:-1] + ext[2:]) / (c + 2.0)
    if not (means.min() >= lo - tol and means.max() <= hi + tol):  # NaN ends fail too
        i, x = _first(~((means >= lo - tol) & (means <= hi + tol)), means, shape, axis)
        raise WeakMonotonicityError(i, x, lo, hi)
    report = LimiterReport()
    # copies keep the caller's memory order, so sums over the result add
    # in the same order as over an array limited in place
    if lo <= umin and umax <= hi:
        return u.copy(order="K"), report
    over = U > hi
    under = U < lo

    # lines with an overshoot next to an undershoot (or, periodic, without
    # an in-range point) have sawtooth sets; their members are no sources
    sources = over | under
    mixed = sources.all(axis=0) if periodic else np.zeros(U.shape[1], dtype=bool)
    if umax > hi and umin < lo:
        mixed |= ((over[1:] & under[:-1]) | (under[1:] & over[:-1])).any(axis=0)
        if periodic:
            mixed |= (over[0] & under[-1]) | (under[0] & over[-1])
    sets = []
    for k in np.flatnonzero(mixed):
        members, whole = _sawtooth_sets(U[:, k], bounds, periodic)
        report.whole_circle_fallback |= whole
        for idx in members:
            sources[idx, k] = False
            sets.append((k, idx))

    V = U.copy(order="K")
    exits = 0.0
    for lower, side in ((True, under), (False, over)):
        src = side & sources
        if src.any():
            left, right = _transfer(U, V, src, lower, lo, hi, tol, ends, shape, axis)
            if not periodic:
                exits = exits + left + right
    for k, idx in sets:
        _rebalance_set(U[:, k], V[:, k], idx, lo, hi, tol)
    report.sawtooth_count = len(sets)
    report.rebalance_used = bool(sets)

    # clip round-off residue onto the bounds
    for stray, bound, name in ((V < lo, lo, "below lower"), (V > hi, hi, "above upper")):
        if stray.any():
            worst = float(np.abs(V[stray] - bound).max())
            if worst > max(tol, _TINY):
                raise RedistributionError(f"output {name} bound by {worst:.3e}")
            V[stray] = bound
    report.modified_count = int(np.count_nonzero(V != U))
    if report.modified_count:
        report.max_displacement = float(np.abs(V - U).max())
    report.boundary_exchange = float(np.sum(exits))
    report.conservation_residual = float(
        np.abs(V.sum(axis=0) - U.sum(axis=0) - exits).sum())
    return V.reshape(shape).swapaxes(0, axis), report


def limit_lower(u: np.ndarray, lower: float, c: float,
                tolerance: float | None = None) -> tuple[np.ndarray, LimiterReport]:
    """Enforce ``v_i >= lower`` on periodic data without changing the sum.

    Requires ``(u_{i-1} + c u_i + u_{i+1})/(c+2) >= lower`` (up to
    tolerance) for every ``i`` with ``c >= 2``; only undershoot points and
    their immediate neighbours are modified.
    """
    tol = tolerance if tolerance is not None else 1e-12 * max(1.0, abs(lower))
    return _limit(u, Bounds(lower, np.inf, tol), c, 0, None)


def limit_bounds(u: np.ndarray, bounds: Bounds, c: float,
                 axis: int = 0) -> tuple[np.ndarray, LimiterReport]:
    """Enforce ``v_i in [lower, upper]`` on periodic data, conservatively.

    Requires the c-weighted means of ``u`` to lie in the interval (up to
    tolerance).  Isolated excursions are repaired by three-point
    transfers; sawtooth runs are clamped and rebalanced within the run and
    its two in-range end points, which preserves the sum of every line in
    every admissible configuration (including the whole-circle case with
    no in-range point at all).  ``u`` may have any number of dimensions:
    every line along ``axis`` is a separate periodic line, and the report
    covers them all.  Non-finite input raises ``ValueError``.
    """
    return _limit(u, bounds, c, axis, None)


def limit_bounds_segment(u: np.ndarray, bounds: Bounds, c: float, *,
                         left: float | None = None, right: float | None = None,
                         edge_rows: bool = False) -> tuple[np.ndarray, LimiterReport]:
    """Bound enforcement on a finite segment (on each column of n-d input).

    Two end treatments are supported:

    * ``left``/``right`` give fixed in-range boundary values outside the
      segment (they complete the three-point means but are never modified;
      transfer shares assigned to them are dropped and reported as
      ``boundary_exchange``, the physical exchange with the boundary);
    * ``edge_rows=True`` states that the end means are the two-point rows
      ``(c u_1 + u_2)/(c+1)``; redistribution then stays entirely inside
      the segment and the sum is preserved exactly.
    """
    if edge_rows:
        return _limit(u, bounds, c, 0, "edge")
    if left is None or right is None:
        raise ValueError("need fixed boundary values or edge_rows=True")
    return _limit(u, bounds, c, 0, (left, right))


# ---------------------------------------------------------------------------
# Cascade through factored weightings
# ---------------------------------------------------------------------------

def _as_chain(chain) -> tuple[float, ...]:
    cs = []
    for entry in chain:
        if isinstance(entry, (tuple, list)):
            topology, c = entry
            if topology != "periodic":
                raise ValueError("cascade_limit supports periodic weightings only")
            cs.append(float(c))
        else:
            cs.append(float(entry))
    if not cs:
        raise ValueError("empty weighting chain")
    return tuple(cs)


def recover_point_values(means: np.ndarray, chain, bounds: Bounds | None,
                         limiting: bool = True) -> tuple[np.ndarray, LimiterReport]:
    """Invert a factored weighting level by level, limiting after each solve.

    ``means`` are the fully weighted means (product of all chain levels
    applied to the unknown point values); the chain lists the c-values
    outermost first.  After each tridiagonal solve the intermediate values
    have their next-level weighted means inside the bounds, so the
    three-point limiter applies at exactly that c.
    """
    cs = _as_chain(chain)
    x = np.asarray(means, dtype=float)
    report = LimiterReport()
    for c in cs:
        x = solve_weighting(WeightOperator(c), x)
        if limiting and bounds is not None:
            x, rep = limit_bounds(x, bounds, c)
            report = report.merge(rep)
    return x, report


def cascade_limit(u: np.ndarray, bounds: Bounds, chain) -> tuple[np.ndarray, LimiterReport]:
    """Limit point values whose composed weighted means are in bounds.

    ``chain`` lists the factored weighting levels outermost first, e.g.
    ``[("periodic", 10), ("periodic", 4)]`` for a doubly weighted
    convection-diffusion recovery.  Equivalent to applying the inner
    weightings, then solving and limiting level by level, so the final
    point values are in bounds with the global sum preserved.
    """
    cs = _as_chain(chain)
    inner = apply_weighting_chain(cs[1:], np.asarray(u, dtype=float))
    # limiting at the outermost c first checks the composed means
    x, report = limit_bounds(inner, bounds, cs[0])
    if len(cs) > 1:
        x, rest = recover_point_values(x, cs[1:], bounds)
        report = report.merge(rest)
    return x, report


# ---------------------------------------------------------------------------
# TVB flux limiting
# ---------------------------------------------------------------------------

def modified_minmod(args, p: float, dx: float) -> float:
    """Minmod with a smoothness exemption below ``p * dx**2``.

    Returns ``args[0]`` when ``|args[0]| <= p * dx**2``; otherwise the
    common-sign minimum magnitude, or 0 on sign disagreement.
    """
    if len(args) == 0:
        raise ValueError("modified_minmod needs at least one argument")
    if p < 0:
        raise ValueError("p must be nonnegative")
    a1 = float(args[0])
    if abs(a1) <= p * dx * dx:
        return a1
    signs = np.sign(args)
    s = signs[0]
    if s == 0 or not np.all(signs == s):
        return 0.0
    return float(s * np.min(np.abs(args)))


def _minmod_rows(a1, a2, a3, p, dx):
    """Vectorized modified minmod over three stacked argument arrays."""
    smooth = np.abs(a1) <= p * dx * dx
    s = np.sign(a1)
    agree = (np.sign(a2) == s) & (np.sign(a3) == s) & (s != 0)
    mm = s * np.minimum(np.abs(a1), np.minimum(np.abs(a2), np.abs(a3)))
    return np.where(smooth, a1, np.where(agree, mm, 0.0))


def _next(x):
    """Periodic ``x_{i+1}`` of a 1D array (``np.roll(x, -1)``)."""
    return np.concatenate((x[1:], x[:1]))


def _prev(x):
    """Periodic ``x_{i-1}`` of a 1D array (``np.roll(x, 1)``)."""
    return np.concatenate((x[-1:], x[:-1]))


def tvb_flux(u: np.ndarray, ubar: np.ndarray, problem, dx: float,
             p: float) -> np.ndarray:
    """Total-variation-bounded numerical flux at the half points.

    Splits the flux into monotone components ``(f(u) +- speed*u)/2`` with
    ``speed = max |f'|`` over the invariant interval, limits the deviation
    of each component from its first-order upwind value against
    neighbouring forward differences with the modified minmod, and returns
    ``fhat[i] ~ f_{i+1/2}``.
    """
    speed = problem.max_fprime
    f_u = problem.flux(u)
    f_ub = problem.flux(ubar)
    fp_u = 0.5 * (f_u + speed * u)
    fm_u = 0.5 * (f_u - speed * u)
    fp_b = 0.5 * (f_ub + speed * ubar)
    fm_b = 0.5 * (f_ub - speed * ubar)

    fm_b_next = _next(fm_b)
    fhat_p = 0.5 * (fp_u + _next(fp_u))          # (f+(u_i) + f+(u_{i+1}))/2
    fhat_m = 0.5 * (fm_u + _next(fm_u))
    dplus_p = _next(fp_b) - fp_b                  # forward differences at the means
    dplus_m = fm_b_next - fm_b

    dfp = fhat_p - fp_b
    dfm = fm_b_next - fhat_m
    dfp_lim = _minmod_rows(dfp, dplus_p, _prev(dplus_p), p, dx)
    dfm_lim = _minmod_rows(dfm, dplus_m, _next(dplus_m), p, dx)

    return (fp_b + dfp_lim) + (fm_b_next - dfm_lim)


def flux_difference(fhat: np.ndarray) -> np.ndarray:
    """Periodic ``fhat_{i+1/2} - fhat_{i-1/2}`` of half-point fluxes ``fhat[i] ~ f_{i+1/2}``."""
    return fhat - _prev(fhat)


def tvb_euler_step(u: np.ndarray, ubar: np.ndarray, problem, lam: float,
                   p: float, bounds: Bounds, dx: float, *,
                   enforce_cfl: bool = True) -> np.ndarray:
    """One forward-Euler update of the weighted means with the TVB flux.

    Under ``lam * max|f'| <= 1/12`` the updated means provably stay inside
    the bounds; ``enforce_cfl=False`` skips that check for driver code
    running at the plain convection CFL, where the downstream limiter
    precondition acts as the safety net.
    """
    u = np.asarray(u, dtype=float)
    ubar = np.asarray(ubar, dtype=float)
    if u.shape != ubar.shape:
        raise ValueError("point values and means must have equal length")
    if enforce_cfl and lam * problem.max_fprime > 1.0 / 12.0 + 1e-12:
        raise ValueError(
            f"TVB bound preservation needs lam*max|f'| <= 1/12, got "
            f"{lam * problem.max_fprime:.6g}")
    fhat = tvb_flux(u, ubar, problem, dx, p)
    return ubar - lam * flux_difference(fhat)
