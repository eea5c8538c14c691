"""Compact finite-difference operator algebra on uniform grids.

Provides the coefficient families for 4th/6th/8th-order implicit (Pade-type)
approximations of first and second derivatives, the normalized tridiagonal
weighting matrices ``(1, c, 1)/(c+2)`` they induce, the c-values of the
tridiagonal factors (``c >= 2``) of the pentadiagonal weightings, and
cyclic/open tridiagonal solvers for their inversion.  The open solve and a
single periodic line reuse LAPACK LU factors cached per grid size and
weighting (O(N) per line).  A periodic solve over many lines is one
matrix product by the dense circulant inverse, cached per grid size and
weighting at the memory of one n-by-n field.

All operators are immutable after construction and safe to share between
concurrently running solver instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack


class CoefficientDomainError(ValueError):
    """Raised when a scheme parameter lies outside its admissible interval."""


_F = Fraction

# Admissible intervals for the one-parameter 6th-order families when the
# pentadiagonal weighting must factor into tridiagonals with c >= 2.
_ALPHA1_MIN, _ALPHA1_MAX = _F(1, 3), _F(5, 9)
_ALPHA2_MIN, _ALPHA2_MAX = _F(2, 11), _F(60, 113)

#: Canonical parameter choices when a 6th-order scheme is requested without
#: an explicit family parameter (both sit strictly inside the admissible
#: intervals, with comfortable factorization margins).
DEFAULT_ALPHA1 = 0.5
DEFAULT_ALPHA2 = 1.0 / 3.0


def _as_fraction(value, hi: Fraction) -> Fraction:
    """Exact rational view of a parameter, snapping float round-off at the
    closed upper endpoint onto it."""
    frac = _F(value)
    if frac != hi and abs(frac - hi) < _F(1, 10 ** 12):
        return hi
    return frac


@dataclass(frozen=True)
class CoefficientSet:
    """Stencil coefficients of one compact derivative approximation.

    The approximation reads, with ``s = 1 + 2*alpha + 2*beta``::

        beta f'_{i-2} + alpha f'_{i-1} + f'_i + alpha f'_{i+1} + beta f'_{i+2}
            = b (f_{i+2} - f_{i-2}) / (4 dx) + a (f_{i+1} - f_{i-1}) / (2 dx)

    for ``derivative_order == 1`` and the analogous symmetric form with
    second differences (narrow difference weighted by ``a / dx^2``, wide
    difference by ``b / (4 dx^2)``) for ``derivative_order == 2``.

    ``cfl_factor`` is the dimensionless bound on ``dt/dx * max|f'|``
    (first derivative) or ``dt/dx^2 * max a'`` (second derivative) under
    which the forward-Euler update of the weighted means is a monotone
    function of the point values.
    """

    derivative_order: int
    accuracy_order: int
    alpha: float
    beta: float
    a: float
    b: float
    cfl_factor: float

    @property
    def scale(self) -> float:
        """Normalization ``1 + 2*alpha + 2*beta`` of the weighting row."""
        return 1.0 + 2.0 * self.alpha + 2.0 * self.beta


def first_derivative_coefficients(accuracy_order: int,
                                  alpha1: float | None = None) -> CoefficientSet:
    """Coefficients of the compact first-derivative approximation.

    Parameters
    ----------
    accuracy_order : {4, 6, 8}
        Formal order of accuracy.
    alpha1 : float, optional
        Family parameter for the 6th-order scheme; must lie in
        ``(1/3, 5/9]`` so that the weighting factors into tridiagonals
        with ``c >= 2``.  Ignored for orders 4 and 8 (order 8 pins the
        parameter to the unique value cancelling the leading truncation
        term).
    """
    if accuracy_order == 4:
        return CoefficientSet(1, 4, alpha=0.25, beta=0.0, a=1.5, b=0.0,
                              cfl_factor=float(_F(1, 3)))
    if accuracy_order == 8:
        alpha = _F(4, 9)
    elif accuracy_order == 6:
        alpha = _as_fraction(alpha1 if alpha1 is not None else DEFAULT_ALPHA1,
                             _ALPHA1_MAX)
        if not (_ALPHA1_MIN < alpha <= _ALPHA1_MAX):
            raise CoefficientDomainError(
                f"first-derivative family parameter must lie in (1/3, 5/9], got {alpha1}")
    else:
        raise CoefficientDomainError(f"accuracy_order must be 4, 6 or 8, got {accuracy_order}")
    beta = (3 * alpha - 1) / 12
    a = _F(2, 9) * (8 - 3 * alpha)
    b = (57 * alpha - 17) / 18
    cfl = 6 * (3 * alpha - 1) / (57 * alpha - 17)
    return CoefficientSet(1, accuracy_order, float(alpha), float(beta),
                          float(a), float(b), float(cfl))


def second_derivative_coefficients(accuracy_order: int,
                                   alpha2: float | None = None) -> CoefficientSet:
    """Coefficients of the compact second-derivative approximation.

    The 6th-order family parameter ``alpha2`` must lie in
    ``(2/11, 60/113]``; orders 4 and 8 ignore it.
    """
    if accuracy_order == 4:
        return CoefficientSet(2, 4, alpha=0.1, beta=0.0, a=1.2, b=0.0,
                              cfl_factor=float(_F(5, 12)))
    if accuracy_order == 8:
        alpha = _F(344, 1179)
    elif accuracy_order == 6:
        alpha = _as_fraction(alpha2 if alpha2 is not None else DEFAULT_ALPHA2,
                             _ALPHA2_MAX)
        if not (_ALPHA2_MIN < alpha <= _ALPHA2_MAX):
            raise CoefficientDomainError(
                f"second-derivative family parameter must lie in (2/11, 60/113], got {alpha2}")
    else:
        raise CoefficientDomainError(f"accuracy_order must be 4, 6 or 8, got {accuracy_order}")
    beta = (11 * alpha - 2) / 124
    a = (48 - 78 * alpha) / 31
    b = (291 * alpha - 36) / 62
    cfl = _F(124) / (3 * (116 - 111 * alpha))
    return CoefficientSet(2, accuracy_order, float(alpha), float(beta),
                          float(a), float(b), float(cfl))


# ---------------------------------------------------------------------------
# Weighting operators
# ---------------------------------------------------------------------------

def check_c(c: float) -> None:
    """Refuse ``c < 2``: the weightings need ``c >= 2`` for strict diagonal
    dominance (non-pivoting elimination), the limiter its three-point repair."""
    if c < 2.0:
        raise CoefficientDomainError(f"weighting requires c >= 2, got {c}")


def _check_weighting(c: float, u: np.ndarray, axis: int) -> None:
    """Refuse a c-value below 2 and a periodic line shorter than 3 points."""
    check_c(c)
    if u.shape[axis] < 3:
        raise ValueError("periodic weighting needs at least 3 points")


def _periodic_pad(v: np.ndarray, width: int) -> np.ndarray:
    """``v`` extended by ``width`` wrapped rows at each end of axis 0.

    Row ``i + width + k`` of the result is ``v[(i + k) % n]`` for
    ``|k| <= width <= n``, so the shifted operands of a periodic stencil
    are plain slices of one copy.
    """
    return np.concatenate((v[-width:], v, v[:width]))


def apply_weighting(c: float, u: np.ndarray, axis: int = 0) -> np.ndarray:
    """Apply the weighting ``(1, c, 1)/(c+2)`` along ``axis`` exactly (no solve).

    Maps length-N periodic fields to length-N weighted means and preserves
    the mean; evaluates ``(u_{i-1} + c u_i) + u_{i+1}``, then divides by
    ``c + 2``.
    """
    u = np.asarray(u, dtype=float)
    _check_weighting(c, u, axis)
    ext = _periodic_pad(u.swapaxes(0, axis), 1)
    out = c * u
    o = out.swapaxes(0, axis)
    # c u_i + u_{i-1} equals u_{i-1} + c u_i exactly (addition commutes)
    o += ext[:-2]
    o += ext[2:]
    o /= c + 2.0
    return out


def _gttrf(dl: np.ndarray, d: np.ndarray, du: np.ndarray) -> tuple:
    """Read-only LAPACK LU factors ``(dl, d, du, du2, ipiv)`` of a tridiagonal."""
    *factors, info = lapack.dgttrf(dl, d, du)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal weighting is singular (dgttrf info={info})")
    for f in factors:
        f.flags.writeable = False
    return tuple(factors)


def _gttrs(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve with cached ``dgttrf`` factors (``rhs`` of shape (n,) or (n, m))."""
    return lapack.dgttrs(*factors, rhs)[0]


def _check_finite(rhs: np.ndarray) -> None:
    """Reject NaN/inf, naming the first bad index in the caller's layout.

    LAPACK has no finite check, and a non-finite right-hand side would
    spread through the whole solution.
    """
    if not np.isfinite(rhs).all():
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(rhs))[0])
        raise ValueError(f"non-finite value {rhs[idx]} at index "
                         f"{idx[0] if len(idx) == 1 else idx}")


@lru_cache(maxsize=128)
def _cyclic_workspace(n: int, c: float):
    """Sherman-Morrison workspace for the periodic (1, c, 1)/(c+2) system.

    The circulant matrix is written as T + outer(uvec, vvec) with T
    tridiagonal; T is strictly diagonally dominant for c >= 2 so the
    LU factorization makes no row interchange.  Returns the factors of T
    and the rank-one correction ``z = T^-1 uvec``, ``vvec``, ``1 + vvec z``.
    """
    d = c / (c + 2.0)
    off = 1.0 / (c + 2.0)
    gamma = -d
    diag = np.full(n, d)
    diag[0] = d - gamma
    diag[-1] = d - off * off / gamma
    band = np.full(n - 1, off)
    factors = _gttrf(band, diag, band)
    uvec = np.zeros(n)
    uvec[0] = gamma
    uvec[-1] = off
    vvec = np.zeros(n)
    vvec[0] = 1.0
    vvec[-1] = off / gamma
    z = _gttrs(factors, uvec)
    denom = 1.0 + vvec @ z
    if abs(denom) < 1e-10:
        # the smallest eigenvalue (c - 2)/(c + 2) vanishes at c = 2 on
        # even-size grids: the mean map loses the alternating mode
        raise np.linalg.LinAlgError(
            f"periodic weighting with c = {c} is (near-)singular for n = {n}; "
            "choose a family parameter strictly inside the admissible interval")
    z.flags.writeable = False
    vvec.flags.writeable = False
    return factors, z, vvec, denom


def _lu_cyclic_solve(c: float, rhs: np.ndarray) -> np.ndarray:
    """LU solve of the tridiagonal part plus the rank-one correction
    (``rhs`` of shape (n, m))."""
    factors, z, vvec, denom = _cyclic_workspace(rhs.shape[0], c)
    y = _gttrs(factors, rhs)
    corr = (vvec @ y) / denom
    return y - z[:, None] * corr[None, :]


@lru_cache(maxsize=32)
def _cyclic_inverse(n: int, c: float) -> np.ndarray:
    """Read-only dense inverse of the periodic (1, c, 1)/(c+2) system.

    The columns are the LU solve of :func:`_cyclic_workspace` applied to
    the identity, so a singular weighting raises as it does there.
    """
    inv = _lu_cyclic_solve(c, np.eye(n))
    inv.flags.writeable = False
    return inv


def solve_weighting(c: float, rhs: np.ndarray, axis: int = 0) -> np.ndarray:
    """Solve ``W x = rhs`` for the periodic weighting ``(1, c, 1)/(c+2)``
    along every line of ``rhs`` (lines along ``axis``).

    A single line (1D ``rhs``) is an O(N) LU solve of the cyclic system's
    tridiagonal part on factors cached per ``(n, c)``, with a rank-one
    correction.  Many lines are one product by the dense inverse, built
    from the same factors at the first solve and cached per ``(n, c)``
    (one n-by-n field): a serial LU sweep per line costs several times
    the product on short lines.  The residual satisfies
    ``||W x - rhs||_inf <= 1e-12 * ||rhs||_inf``.  Non-finite input
    raises ``ValueError``.
    """
    rhs = np.asarray(rhs, dtype=float)
    _check_weighting(c, rhs, axis)
    _check_finite(rhs)
    if rhs.ndim == 1:
        return _lu_cyclic_solve(c, rhs.reshape(-1, 1)).reshape(-1)
    moved = rhs.swapaxes(0, axis)
    n = moved.shape[0]
    x = _cyclic_inverse(n, c) @ moved.reshape(n, -1)
    return x.reshape(moved.shape).swapaxes(0, axis)


@lru_cache(maxsize=128)
def _tridiag_workspace(n: int, c: float, edge_rows: bool):
    d = c / (c + 2.0)
    off = 1.0 / (c + 2.0)
    diag = np.full(n, d)
    lower = np.full(n - 1, off)
    upper = np.full(n - 1, off)
    if edge_rows:
        diag[0] = diag[-1] = c / (c + 1.0)
        upper[0] = lower[-1] = 1.0 / (c + 1.0)
    return _gttrf(lower, diag, upper)


def solve_open_weighting(c: float, rhs: np.ndarray, edge_rows: bool = False) -> np.ndarray:
    """Solve the non-cyclic square ``(1, c, 1)/(c+2)`` system.

    Used by boundary treatments where the endpoint couplings have been
    moved to the right-hand side.  ``edge_rows=True`` replaces the two end
    rows by the two-point rows ``(c, 1)/(c+1)`` and ``(1, c)/(c+1)``.
    Non-finite input raises ``ValueError``.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] < 3:
        raise ValueError("open weighting solve needs at least 3 points")
    _check_finite(rhs)
    return _gttrs(_tridiag_workspace(rhs.shape[0], float(c), bool(edge_rows)), rhs)


def recovery_chain(coeffs: CoefficientSet) -> tuple[float, ...]:
    """c-values of the successive tridiagonal solves recovering point values.

    Order 4 weightings are already tridiagonal (c = 4 or 10).  A higher
    order pentadiagonal weighting is the product of two tridiagonal ones;
    their c-values are the roots of ``t^2 - (alpha/beta) t + (1/beta - 2)``,
    evaluated from closed forms, and the larger-c factor is solved first.
    Both are >= 2, so the three-point limiter applies at each level.
    """
    if coeffs.accuracy_order == 4:
        return (float(round(1.0 / coeffs.alpha)),)
    alpha = coeffs.alpha
    if coeffs.derivative_order == 1:
        base = 6.0 * alpha / (3.0 * alpha - 1.0)
        root = math.sqrt(2.0 * (7.0 - 24.0 * alpha + 27.0 * alpha ** 2)) / (3.0 * alpha - 1.0)
    else:
        base = 62.0 * alpha / (11.0 * alpha - 2.0)
        root = math.sqrt(2.0 * (128.0 - 726.0 * alpha + 2043.0 * alpha ** 2)) / (11.0 * alpha - 2.0)
    c_small, c_big = base - root, base + root
    if min(c_small, c_big) < 2.0 - 1e-12:
        raise CoefficientDomainError(
            f"factorization produced c = {min(c_small, c_big)} < 2")
    return (c_big, max(c_small, 2.0))  # guard round-off at the interval end


def apply_levels(levels, u: np.ndarray) -> np.ndarray:
    """Apply the weighting levels, ``(c, axis)`` pairs, in the given order.

    The levels commute in exact arithmetic; their order fixes the round-off.
    """
    out = np.asarray(u, dtype=float)
    for c, axis in levels:
        out = apply_weighting(c, out, axis=axis)
    return out


# ---------------------------------------------------------------------------
# Difference stencils (right-hand sides)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffStencil:
    """Normalized explicit difference row paired with a weighting.

    ``row`` holds the coefficients of ``f_{i-hw} ... f_{i+hw}``; first
    derivative rows are antisymmetric and sum to zero, second-derivative
    rows symmetric and sum to zero, so constants are equilibria.
    """

    derivative_order: int
    half_width: int
    row: tuple[float, ...]

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Periodic application of the stencil row along axis 0."""
        f = np.asarray(f, dtype=float)
        out = np.zeros_like(f)
        n = f.shape[0]
        ext = _periodic_pad(f, self.half_width)
        # terms added in row order onto zeros; row i of ext[k:k + n] is f_{i+k-hw}
        for k, coef in enumerate(self.row):
            if coef != 0.0:
                out += coef * ext[k:k + n]
        return out


def difference_stencil(coeffs: CoefficientSet) -> DiffStencil:
    """Right-hand-side stencil matching ``coeffs``' normalized weighting."""
    s = coeffs.scale
    a, b = coeffs.a, coeffs.b
    if coeffs.derivative_order == 1:
        row = (-b / (4 * s), -a / (2 * s), 0.0, a / (2 * s), b / (4 * s))
    else:
        row = (b / (4 * s), a / s, -(2 * a + b / 2) / s, a / s, b / (4 * s))
    if coeffs.b == 0.0:
        row = row[1:-1]
        return DiffStencil(coeffs.derivative_order, 1, row)
    return DiffStencil(coeffs.derivative_order, 2, row)

