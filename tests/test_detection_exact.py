"""Decision semantics of the stacked detectors at ties and on bad rows.

Ties go to the smallest index pair (k, then m). A tie here is one in the
computed costs, not only in exact arithmetic: each boundary case checks
that the detector's own cost expression gives both candidates the same
value before it asserts the pick. Rows with a non-finite or zero gain or
receive entry must return what the full ML / energy search returns. The
MMSE gain G = U diag(d) U^H enters as its factor (U, d), as the engine
hands it over; MED is the engine's detect stage (``stage_med``).
"""

import numpy as np
import pytest

from conftest import gain_matrices, stage_med
from farsm.detection import mld, mld_generic
from farsm.modulation import build_qam

ORDERS = (16, 64)


def _levels(points):
    """Sorted in-phase levels of the points on the top quadrature row."""
    top = points.imag == points.imag.max()
    return np.sort(points.real[top]), points.imag.max()


def _point(points, re, im):
    return int(np.flatnonzero((points.real == re) & (points.imag == im))[0])


def _boundary_ties(points):
    """Per in-phase decision boundary, (beta, y, m_low, m_high) with y on the
    boundary between the scaled points m_low < m_high of the top row.

    beta is searched so that the two scaled levels have a representable
    midpoint; both distances from y are then equal in floating point.
    """
    levels, q = _levels(points)
    out = []
    for a, b in zip(levels, levels[1:]):
        ma, mb = _point(points, a, q), _point(points, b, q)
        for j in range(64):
            beta = 1.0 + j * 2.0 ** -50
            ca, cb = beta * points[ma], beta * points[mb]
            x = (ca.real + cb.real) / 2
            if x - ca.real == cb.real - x:
                out.append((beta, complex(x, ca.imag), min(ma, mb),
                            max(ma, mb)))
                break
    assert len(out) == levels.size - 1
    return out


def _med_cost(yk, scale, points):
    return np.abs(yk - scale * points) ** 2


def test_med_equal_energies_pick_smallest_k():
    points = build_qam(16).points
    y = np.array([[1.0 + 0j, 1j, 0.1, 0.0],
                  [0.1, 1j, -1.0, 0.0],
                  [0.5, 0.5j, -0.5, -0.5j]])
    k, _ = stage_med(y, np.ones(3), None, points)
    assert k.tolist() == [0, 1, 0]


@pytest.mark.parametrize("order", ORDERS)
def test_med_symbol_boundary_picks_smaller_m(order):
    points = build_qam(order).points
    for beta, yk, lo, hi in _boundary_ties(points):
        cost = _med_cost(yk, beta, points)
        assert cost[lo] == cost[hi] == cost.min()
        y = np.zeros((1, 4), dtype=complex)
        y[0, 1] = yk
        k, m = stage_med(y, np.array([beta]), None, points)
        assert (k[0], m[0]) == (1, lo)


@pytest.mark.parametrize("order", ORDERS)
def test_mld_zf_symbol_boundary_picks_smaller_m(order):
    points = build_qam(order).points
    for beta, yk, lo, hi in _boundary_ties(points):
        y = np.array([[0.0, yk, 0.0, 0.0]])
        k, m = mld(y, np.array([beta]), None, points)
        assert (k[0], m[0]) == (1, lo)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("precoder", ("zf", "mmse"))
def test_mld_equal_antennas_pick_smallest_pair(order, precoder):
    points = build_qam(order).points
    beta, g = 0.8, 0.9
    # G = g I as its factor (I, g)
    factor = None if precoder == "zf" else (
        np.broadcast_to(np.eye(4), (3, 4, 4)), np.full((3, 4), g))
    u = beta * points[order - 3] * (1.0 if factor is None else g)
    y = np.array([[u, u, 0, 0], [0, u, 0, u], [0, 0, -u, -u]])
    k, m = mld(y, np.full(3, beta), factor, points)
    assert k.tolist() == [0, 1, 2]
    assert m[:2].tolist() == [order - 3] * 2


@pytest.mark.parametrize("order", ORDERS)
def test_mld_mmse_symbol_boundary_picks_smaller_m(order):
    # on the quadrature axis (in-phase 0) the two innermost points of a
    # row are mirror images, so their MMSE costs are equal bit for bit
    points = build_qam(order).points
    levels, q = _levels(points)
    inner = levels[levels.size // 2]
    lo, hi = sorted((_point(points, inner, q), _point(points, -inner, q)))
    beta, g = 0.8, 0.9
    factor = np.eye(4)[None], np.full((1, 4), g)  # G = g I
    y = np.array([[0.0, 0.0, 1j * beta * g * q, 0.0]])
    k, m = mld(y, np.array([beta]), factor, points)
    assert (k[0], m[0]) == (2, lo)


def _bad_rows(order, n_r=4):
    """Eight rows around a clean symbol on antenna 1: NaN or inf entries in
    y (rows 0-5), beta = 0 (row 6), a non-finite eigenvalue d_j of the gain
    factor (U, d) (rows 6, 7), U a random unitary matrix."""
    points = build_qam(order).points
    g = np.random.Generator(np.random.Philox(7))
    b = 0.7
    y = np.tile(b * points[5] * np.eye(n_r)[1], (8, 1)).astype(complex)
    y += 0.05 * (g.standard_normal(y.shape) + 1j * g.standard_normal(y.shape))
    nan, inf = np.nan, np.inf
    y[0, 0] = nan
    y[1, 2] = complex(nan, 0.0)
    y[2, 1] = complex(0.0, nan)
    y[3, 3] = inf
    y[4, 0] = complex(0.0, -inf)
    y[5, 1] = complex(inf, inf)
    beta = np.full(8, b)
    beta[6] = 0.0
    shape = (8, n_r, n_r)
    u = np.linalg.qr(g.standard_normal(shape)
                     + 1j * g.standard_normal(shape))[0]
    d = 0.9 + 0.05 * g.standard_normal((8, n_r))
    d[7, 1] = nan
    d[6, 2] = inf
    return y, beta, (u, d), points


# what the full searches return on _bad_rows, the same at M = 16 and 64.
# Under MMSE every entry of U (d * (U^H y)) reads every entry of y and d,
# so a non-finite one makes every antenna's cost NaN: the first, (0, 0).
BAD_ROW_DECISIONS = {
    ("mld", "zf"): ([0, 2, 1, 3, 0, 1, 0, 1], [0, 0, 0, 0, 0, 0, 0, 5]),
    ("mld", "mmse"): ([0] * 8, [0] * 8),
    ("med", "zf"): ([0, 2, 1, 3, 0, 1, 1, 1], [0, 0, 0, 0, 0, 0, 0, 5]),
    ("med", "mmse"): ([0, 2, 1, 3, 0, 1, 1, 1], [0] * 8),
}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("detector,precoder", sorted(BAD_ROW_DECISIONS))
def test_nonfinite_rows_keep_full_search_decisions(order, detector, precoder):
    y, beta, factor, points = _bad_rows(order)
    fn = {"mld": mld, "med": stage_med}[detector]
    with np.errstate(all="ignore"):
        k, m = fn(y, beta, None if precoder == "zf" else factor, points)
    want_k, want_m = BAD_ROW_DECISIONS[detector, precoder]
    assert k.tolist() == want_k and m.tolist() == want_m


# ---------------------------------------------------------------------------
# Sliced decisions against the full searches on engine rows
# ---------------------------------------------------------------------------

def _full_mld(y, beta, factor, points):
    """Joint ML by scoring all N_r x M hypotheses (the full search), on the
    projections z = U (d * (U^H y)) and ||g_k||^2 = sum_j |U_kj|^2 d_j^2."""
    m_count = points.size
    if factor is None:
        d = y[:, :, None] - beta[:, None, None] * points[None, None, :]
        cost = (d.real ** 2 + d.imag ** 2) - (np.abs(y) ** 2)[:, :, None]
    else:
        u, d = factor
        z = np.einsum("bkj,bj->bk", u, d * np.einsum("brj,br->bj", u.conj(), y))
        gn = ((u.real ** 2 + u.imag ** 2) * (d * d)[:, None, :]).sum(axis=2)
        c = beta[:, None] * points[None, :]
        cost = (np.abs(c) ** 2)[:, None, :] * gn[:, :, None] - 2.0 * np.real(
            np.conj(c)[:, None, :] * z[:, :, None])
    flat = np.argmin(cost.reshape(cost.shape[0], -1), axis=1)
    return flat // m_count, flat % m_count


def _full_med(y, beta, factor, points):
    """Energy detection scoring all M points on the strongest entry, with
    the scale beta G[k, k] = beta sum_j |U_kj|^2 d_j under MMSE."""
    k = np.argmax(np.abs(y) ** 2, axis=1)
    yk = np.take_along_axis(y, k[:, None], axis=1)[:, 0]
    scale = beta
    if factor is not None:
        uk = factor[0][np.arange(k.size), k]
        scale = beta * ((uk.real ** 2 + uk.imag ** 2) * factor[1]).sum(axis=1)
    m = np.argmin(np.abs(yk[:, None] - scale[:, None] * points[None, :]) ** 2,
                  axis=1)
    return k, m


SNR_GRID = (-30.0, 0.0, 15.0, 30.0, float("inf"))


def _engine_rows(monkeypatch, n_r, order, precoder, trials=48):
    """(y, beta, factor) of every SNR point of a small TMD sweep, as the
    engine hands them to its detect stage: MMSE's factor (U, d) of the gain
    matrices, None under ZF."""
    from farsm import simulate

    got = []
    detect = simulate._detect_batch

    def spy(det, cfg, y, beta, gain, points):
        got.append((y, beta, gain))
        return detect(det, cfg, y, beta, gain, points)

    monkeypatch.setattr(simulate, "_detect_batch", spy)
    simulate.run_ber_sweep(simulate.SimConfig(
        n_r=n_r, n_a=n_r, mod_order=order, precoder=precoder, portsel="tmd",
        snr_db=SNR_GRID, trials=trials, master_seed=1000 + 10 * n_r + order))
    monkeypatch.undo()
    return got


def _adversarial(y, beta, factor, points):
    """Rows derived from engine rows: slicer inputs on decision boundaries,
    zero and duplicated entries, extreme magnitudes and non-finite values,
    in y, beta and the factor (U, d)."""
    levels, q = _levels(points)
    mids = (levels[:-1] + levels[1:]) / 2
    n, n_r = y.shape
    y, beta = y.copy(), beta.copy()
    u, d = (None, None) if factor is None else (f.copy() for f in factor)
    rows = np.arange(n)
    k = rows % n_r
    # boundary between in-phase levels, and between quadrature levels
    z = np.where(rows % 2, mids[rows % mids.size] + 1j * q,
                 levels[rows % levels.size] + 1j * mids[rows % mids.size])
    half = rows[: n // 2]
    if factor is None:
        y[half, k[half]] = beta[half] * z[half]
    else:
        gain = gain_matrices(u[half], d[half])
        y[half] = (beta[half, None] * gain[np.arange(half.size), :, k[half]]
                   * z[half, None])
    y[n // 2::7] = 0.0
    y[n // 2 + 1::7, 1] = y[n // 2 + 1::7, 0]
    for i, e in enumerate((-700, -300, 300, 500)):
        y[n // 2 + 2 + i::9] *= 2.0 ** e
        beta[n // 2 + 2 + i::9] *= 2.0 ** e
    y[n // 2 + 3::11] *= 2.0 ** 600
    beta[n // 2 + 4::13] = 2.0 ** -1060
    y[n // 2 + 5::17, 0] = np.nan
    y[n // 2 + 6::17, -1] = np.inf
    beta[n // 2 + 7::17] = 0.0
    beta[n // 2 + 8::17] = np.nan
    if factor is None:
        return y, beta, None
    d[n // 2 + 9::17, 1] = np.inf
    d[n // 2 + 10::17, 0] = np.nan
    u[n // 2 + 11::17, 1, 1] = np.inf
    u[n // 2 + 12::17, 0, -1] = np.nan
    d[n // 2 + 13::17] *= 2.0 ** 600
    return y, beta, (u, d)


def _same(got, want):
    return [int(np.count_nonzero(g != w)) for g, w in zip(got, want)] == [0, 0]


@pytest.mark.parametrize("precoder", ("zf", "mmse"))
@pytest.mark.parametrize("n_r", (2, 4, 8))
@pytest.mark.parametrize("order", (4, 16, 64))
def test_sliced_detectors_equal_full_search(monkeypatch, order, n_r, precoder):
    points = build_qam(order).points
    for y, beta, factor in _engine_rows(monkeypatch, n_r, order, precoder):
        sets = [(y, beta, factor), _adversarial(y, beta, factor, points)]
        for rows in sets:
            with np.errstate(all="ignore"):
                assert _same(mld(*rows, points), _full_mld(*rows, points))
                assert _same(stage_med(*rows, points),
                             _full_med(*rows, points))
        # the oracle on a sample of clean rows
        eye = np.eye(n_r)
        head = None if factor is None else tuple(f[:6] for f in factor)
        k_hat, m_hat = mld(y[:6], beta[:6], head, points)
        gain = None if head is None else gain_matrices(*head)
        for b in range(6):
            effective = beta[b] * (eye if gain is None else gain[b])
            assert (k_hat[b], m_hat[b]) == mld_generic(y[b], effective, points)
