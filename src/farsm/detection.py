"""Receive-side detectors for precoded receive spatial modulation.

After precoding, the noiseless receive vector is beta * s_m * e_k (ZF) or
beta * s_m * g_k (MMSE, g_k the k-th column of the effective gain matrix G
= U diag(d) U^H). The kernels are stacked over B rows:

* ``mld``: joint maximum-likelihood decision over all N_r x M hypotheses
  from the receive vectors ``y`` (B, N_r), the gains ``beta`` (B,), the
  factor (U (B, N_r, N_r), d (B, N_r)) of G or None for ZF, and the
  constellation ``points``; returns the 0-based (k, m) as two (B,) arrays.
  G itself is never formed.
* ``med_symbols``: the maximum energy detector's symbols, each demapped
  from a row's strongest receive entry (``strongest``) alone with the
  scalar gain (beta, or beta * G[k, k] for MMSE).
* ``energy_ratio``: the second largest over the largest receive energy,
  which measures how concentrated y is.

The engine's detect stage, ``farsm.simulate._detect_batch``, is the one
implementation of MLD, MED and RTTD, which switches between the two: rows
whose ratio lies below gamma are safe for the cheap energy path, the rest
go to the joint ML decision. It computes the energies and their argmax
once for the ratio test and the energy path (``strongest``, ``ratio_of``),
and runs ``mld`` only on the rows the energy path does not decide.
``mld_generic`` enumerates residuals explicitly and is the oracle the
kernels are tested against.

Ties resolve to the smallest index pair (k, then m).

Cost. Both decisions reduce to slicing one complex number per antenna on
the square QAM grid. The ML cost of (k, m) is, up to a term constant in m,
S_k |s_m - z_k|^2 with S_k = beta^2 ||g_k||^2 and slicer input z_k =
g_k^H y / (beta ||g_k||^2) (g_k = e_k and ||g_k|| = 1 under ZF), so the
best m of each k is the point nearest z_k: a rounding per axis. ``mld``
slices every antenna, rescores the N_r sliced pairs and takes the
minimum: O(N_r) work per row under ZF and O(N_r^2) under MMSE (the
projections, from the factor), against O(N_r M) for the full search.
``med_symbols`` slices z = y_k / scale: O(1) per row against O(M).

Margin rule. Distances are in axis spacings Delta: c_k = z_k / Delta, p_m
= s_m / Delta, amp = max |p_m|, and q_k = (amp + |Re c_k| + |Im c_k|)^2.
The exact cost is S_k Delta^2 (|p_m|^2 - 2 Re(conj(p_m) c_k)), which the
rescoring evaluates at the sliced point. Each computed cost of the full
search is within 18 u S_k Delta^2 q_k of its exact value (u = 2^-53: one
rounding of beta s_m, of the difference or the products with z_k, of each
square or hypot and of each sum, with no overflow or underflow), and the
rescoring is within 2^-42 S_k Delta^2 q_k. Let delta_k be the distance
from c_k to the nearest decision boundary, the midpoint of two adjacent
levels. Every other point of antenna k costs at least 2 S_k Delta^2
delta_k more than the nearest one, exactly. A row takes the sliced
decision (k*, m*) only when

* delta_k* > 2^-40 q_k* at the chosen antenna (2^12 times 2^-52 (amp +
  |z| / Delta)^2), so the full search's computed costs at k* have the
  sliced point as their strict minimum; and
* for every other antenna, S_k (r_k - tau_k) > S_k* (r_k* + tau_k*), r_k
  being the rescored cost and tau_k = 2^-37 q_k, in units of Delta^2.
  tau covers the rounding of both the rescoring and the full search and,
  for an antenna whose own slice lies within 2^-40 q_k of a boundary, the
  cost of a slice to the wrong neighbour (at most 2^-38 q_k), so every
  hypothesis of another antenna has a computed cost above the chosen one.

Then the full search's computed costs have one strict minimum, at (k*,
m*), and ties cannot arise. The rule is stated for the computed z_k and
||g_k||^2 and the full search scores those same values, so it holds for z
taken from the factor however far its rounding moves z from G^H y.
``med_symbols`` applies the first rule to its single antenna: its cost
|y_k - scale s_m|^2 has the same error form. The guards also require beta
Delta (or scale Delta) and, under MMSE, every ||g_k||^2 to lie in
[2^-200, 2^200] and every q_k < 2^60, so that no intermediate of the full
search overflows or loses digits to underflow. A NaN or inf in z, beta,
the factor or y makes some q_k, ||g_k||^2 or beta Delta NaN or inf and
fails them.

Fallback. Rows that fail any guard (near a boundary, near a cost tie,
non-finite, or of extreme magnitude), and every row when ``points`` is not
a square grid with uniform levels, go through the full search on just
those rows, with the same z_k and ||g_k||^2. So every decision equals the
full search's, ties included. ``scripts/check_detection.py`` reports the
fallback share on engine rows.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

_MARGIN = 2.0 ** -40     # slicer margin per q, in spacings
_COST_TOL = 2.0 ** -37   # tau per q, in spacings squared
_SCALE_RANGE = (2.0 ** -200, 2.0 ** 200)
_Q_MAX = 2.0 ** 60


class _Grid(NamedTuple):
    """A square constellation with levels (i - origin) Delta, i < side, on
    both axes."""

    side: int
    origin: float         # slicer coordinate of 0, in spacings
    inv_step: float       # 1 / Delta
    amp: float            # largest point magnitude, in spacings
    table: np.ndarray     # (side^2,) point index of level i_re * side + i_im


def _grid(points: np.ndarray) -> _Grid | None:
    return _grid_of(np.ascontiguousarray(points, dtype=complex).tobytes())


@functools.lru_cache(maxsize=16)
def _grid_of(raw: bytes) -> _Grid | None:
    """The slicing grid of the points in ``raw``, or None if they are not a
    square grid with the same levels on both axes, uniform to 2^-44
    spacings, whose largest magnitude is at most 2^20 spacings."""
    points = np.frombuffer(raw, dtype=complex)
    side = math.isqrt(points.size)
    if side < 2 or side * side != points.size:
        return None
    levels = np.sort(points.real)[::side]
    for axis in (points.real, points.imag):
        if not np.array_equal(np.sort(axis).reshape(side, side),
                              np.repeat(levels[:, None], side, axis=1)):
            return None
    step = (levels[-1] - levels[0]) / (side - 1)
    s_max = float(np.abs(points).max())
    uneven = np.abs(levels - (levels[0] + step * np.arange(side))).max()
    if not (0 < step and s_max <= 2.0 ** 20 * step
            and uneven <= 2.0 ** -44 * step):
        return None
    flat = (np.searchsorted(levels, points.real) * side
            + np.searchsorted(levels, points.imag))
    if np.bincount(flat).max() != 1:
        return None
    table = np.zeros(points.size, dtype=np.intp)
    table[flat] = np.arange(points.size)
    return _Grid(side, -levels[0] / step, 1.0 / step, s_max / step, table)


def _planes(a: np.ndarray, scale) -> np.ndarray:
    """(2, ...) float planes of ``a * scale``, real then imaginary, with the
    trailing axes reversed: (B,) -> (2, B), (B, N) -> (2, N, B)."""
    out = np.empty((2, *a.shape[::-1]))
    np.multiply(a.real.T, scale, out=out[0])
    np.multiply(a.imag.T, scale, out=out[1])
    return out


def _slice(grid: _Grid, c: np.ndarray):
    """Slice the planes ``c`` (2, ...) of inputs in spacings.

    Returns the levels (2, ...), the largest distance in spacings from a
    level (0.5 minus the distance to the nearest decision boundary; NaN for
    a NaN input) and q = (amp + |Re c| + |Im c|)^2, each (...).
    """
    w = c + grid.origin
    np.maximum(w, 0.0, out=w)   # NaN stays NaN through the clamp
    np.minimum(w, grid.side - 1, out=w)
    level = np.rint(w)
    w -= level
    np.abs(w, out=w)
    a = np.abs(c)
    q = a[0] + a[1]
    q += grid.amp
    q *= q
    return level, np.maximum(w[0], w[1]), q


def _index(grid: _Grid, level: np.ndarray) -> np.ndarray:
    """Point index of each pair of levels (2, ...)."""
    flat = (level[0] * grid.side + level[1]).astype(np.intp)
    return np.take(grid.table, flat, mode="clip")


@functools.lru_cache(maxsize=8)
def _count_and_sum(n_r: int) -> np.ndarray:
    """(2, n_r) weights: a row of ones and the antenna indices."""
    return np.array([np.ones(n_r), np.arange(n_r)])


def _in_range(x, bounds) -> np.ndarray:
    return (x >= bounds[0]) & (x <= bounds[1])


def _projections(y, factor):
    """(z, gn): z_k = g_k^H y and gn_k = ||g_k||^2, each (B, N_r), from the
    factor (U, d) of G = U diag(d) U^H as z = U (d * (U^H y)) and gn_k =
    sum_j |U_kj|^2 d_j^2, or (None, None) under ZF (``factor`` None)."""
    if factor is None:
        return None, None
    u, d = factor
    w = np.einsum("brj,br->bj", u.conj(), y)
    w *= d
    return (np.einsum("bkj,bj->bk", u, w),
            ((u.real ** 2 + u.imag ** 2) * (d * d)[:, None, :]).sum(axis=2))


def _ml_search(y, beta, z, gn, points):
    """Full search: the first argmin over (k, m) of |y_k - beta s_m|^2 -
    |y_k|^2 under ZF (``z`` None), of |beta s_m|^2 ||g_k||^2 - 2 Re(conj(
    beta s_m) z_k) under MMSE, with z_k = g_k^H y and gn = ||g_k||^2."""
    if z is None:
        d = y[:, :, None] - beta[:, None, None] * points[None, None, :]
        cost = (d.real ** 2 + d.imag ** 2) - (np.abs(y) ** 2)[:, :, None]
    else:
        c = beta[:, None] * points[None, :]
        cost = (np.abs(c) ** 2)[:, None, :] * gn[:, :, None] - 2.0 * np.real(
            np.conj(c)[:, None, :] * z[:, :, None])
    flat = np.argmin(cost.reshape(cost.shape[0], -1), axis=1)
    return flat // points.size, flat % points.size


def _point_search(yk, scale, points):
    """Full search: the first argmin over m of |yk - scale s_m|^2."""
    return np.argmin(np.abs(yk[:, None] - scale[:, None] * points[None, :])
                     ** 2, axis=1)


def mld(y: np.ndarray, beta: np.ndarray, factor, points: np.ndarray):
    """Joint ML decision: argmin over (k, m) of ||y - beta s_m c_k||^2 per row.

    Under ZF (``factor`` None) c_k = e_k and the cost reduces to |y_k - beta
    s_m|^2 - |y_k|^2; under MMSE ``factor`` is (U, d) of G = U diag(d) U^H,
    c_k = g_k and the cost is |beta s_m|^2 ||g_k||^2 - 2 Re(conj(beta s_m)
    g_k^H y), with the projections taken from the factor. Each antenna's
    best point is sliced from its z_k, and rows the margin rule (module
    docstring) cannot prove go through the full search. Returns (k, m),
    each (B,) and 0-based.
    """
    z, gn = _projections(y, factor)
    grid = _grid(points)
    n, n_r = y.shape
    if grid is None:
        return _ml_search(y, beta, z, gn, points)
    with np.errstate(all="ignore"):
        # planes (2, N_r, B) and per-antenna sums (N_r, B), in spacings
        inv = grid.inv_step / beta
        if z is None:
            c = _planes(y, inv)
        else:
            gn_t = gn.T
            c = _planes(z, inv / gn_t)
        level, off, q = _slice(grid, c)
        # cost |p|^2 - 2 Re(conj(p) c) per plane, p the sliced point
        c *= -2.0
        c += level
        c -= grid.origin
        c *= level - grid.origin
        low = c[0] + c[1]
        tau = q * _COST_TOL
        high = low + tau
        low -= tau
        if z is not None:
            low *= gn_t
            high *= gn_t
        # an antenna sliced within the margin of a boundary cannot be chosen
        off += q * _MARGIN
        high[off >= 0.5] = np.inf
        count, k = _count_and_sum(n_r) @ (low <= high.min(axis=0))
        ok = ((count == 1) & _in_range(inv, _SCALE_RANGE)
              & (q.max(axis=0) < _Q_MAX))
        if z is not None:
            ok &= (gn_t.min(axis=0) >= _SCALE_RANGE[0]) & (
                gn_t.max(axis=0) <= _SCALE_RANGE[1])
        k = np.minimum(k, n_r - 1).astype(np.intp)
        m = _index(grid, level[:, k, np.arange(n)])
    bad = np.flatnonzero(~ok)
    if bad.size:
        k[bad], m[bad] = _ml_search(
            y[bad], beta[bad], None if z is None else z[bad],
            None if gn is None else gn[bad], points)
    return k, m


def strongest(y: np.ndarray):
    """Receive energies |y|^2 (B, N_r) and the index of the largest per row
    (the first one on equal energies, the first NaN if any)."""
    e = np.abs(y) ** 2
    return e, np.argmax(e, axis=1)


def ratio_of(e: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(B,) second-largest over largest energy, from ``strongest``'s output.

    The second largest is the row maximum with entry k left out: the value
    ``np.partition`` would place second from the top. An all-zero row
    reports 1 (nothing is concentrated).
    """
    largest = e[np.arange(e.shape[0]), k]
    second = np.full(e.shape[0], -np.inf)
    for j in range(e.shape[1]):
        second = np.maximum(second, np.where(k == j, -np.inf, e[:, j]))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(largest > 0, second / np.maximum(largest, 1e-300), 1.0)


def energy_ratio(y: np.ndarray) -> np.ndarray:
    """(B,) second-largest over largest receive energy, in [0, 1].

    An all-zero row reports 1 (nothing is concentrated).
    """
    return ratio_of(*strongest(y))


def med_symbols(yk: np.ndarray, scale: np.ndarray, points: np.ndarray):
    """The energy detector's symbols: the index of the point nearest each
    yk / scale, yk being a row's strongest receive entry and scale its
    noiseless gain (beta under ZF, beta G[k, k] under MMSE), each (R,).

    Sliced per axis; rows the margin rule (module docstring) cannot prove
    take the full search's first argmin over m of |yk - scale s_m|^2.
    """
    grid = _grid(points)
    if grid is None:
        bad = np.arange(yk.shape[0])
        m = np.zeros(yk.shape[0], dtype=np.intp)
    else:
        with np.errstate(all="ignore"):
            inv = grid.inv_step / scale
            level, off, q = _slice(grid, _planes(yk, inv))
            off += q * _MARGIN
            ok = (off < 0.5) & _in_range(inv, _SCALE_RANGE)
            m = _index(grid, level)
        bad = np.flatnonzero(~ok)
    if bad.size:
        m[bad] = _point_search(yk[bad], scale[bad], points)
    return m


def mld_generic(y: np.ndarray, effective: np.ndarray, points: np.ndarray):
    """Reference ML search for one receive vector by residual enumeration.

    ``effective`` is the noiseless receive matrix whose column k is the
    response to antenna k at unit symbol. Returns the 0-based (k, m). Slow;
    exists as an oracle for the stacked kernels.
    """
    n_r = y.shape[0]
    best = (np.inf, 0, 0)
    for k in range(n_r):
        for m, s in enumerate(points):
            r = float(np.linalg.norm(y - s * effective[:, k]) ** 2)
            if r < best[0]:
                best = (r, k, m)
    return best[1], best[2]
