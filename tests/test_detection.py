import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_channel, stage_med
from farsm.detection import energy_ratio, mld, mld_generic
from farsm.errors import ConfigError
from farsm.modulation import build_qam
from farsm.precoding import (NoiseModel, effective_gain_matrix, mmse_factor,
                             mmse_precoder, mmse_scales, zf_precoder)
from farsm.simulate import SimConfig, _detect_batch


def _zf_setup(seed, n_r=4, order=16):
    h = random_channel(seed, n_r, n_r + 3)
    p = zf_precoder(h)
    return h, p, build_qam(order).points


def _mmse_setup(seed, snr_db=8.0, n_r=4, order=16):
    """(H, precoder, G, factor, points); the detectors take G as its factor
    (U, d), here stacks of one."""
    h = random_channel(seed, n_r, n_r + 3)
    noise = NoiseModel.from_snr_db(snr_db)
    p = mmse_precoder(h, noise)
    g = effective_gain_matrix(h, noise)
    u, lam = mmse_factor(h[None])
    factor = u, mmse_scales(lam, n_r * noise.n0)[0]
    return h, p, g, factor, build_qam(order).points


def _rows(beta, rows):
    return np.full(rows, beta)


def _noisy_stack(effective, points, nseed, rows=40):
    """Noisy receive vectors over random (k, m), one per row."""
    g = np.random.Generator(np.random.Philox(nseed))
    n_r = effective.shape[0]
    k = g.integers(0, n_r, rows)
    m = g.integers(0, points.size, rows)
    y = effective[:, k].T * points[m][:, None]
    y = y + 0.3 * (g.standard_normal((rows, n_r))
                   + 1j * g.standard_normal((rows, n_r)))
    return y


def _assert_matches_oracle(y, effective, points, k_hat, m_hat):
    for b in range(y.shape[0]):
        assert (k_hat[b], m_hat[b]) == mld_generic(y[b], effective, points)


@settings(max_examples=30)
@given(seed=st.integers(0, 3000), nseed=st.integers(0, 1000))
def test_mld_matches_exhaustive_reference_under_zf(seed, nseed):
    _, p, points = _zf_setup(seed)
    effective = p.beta * np.eye(4)
    # the all-zero last row ties every antenna and the four inner points
    y = np.vstack([_noisy_stack(effective, points, nseed),
                   np.zeros((1, 4), dtype=complex)])
    k_hat, m_hat = mld(y, _rows(p.beta, y.shape[0]), None, points)
    _assert_matches_oracle(y, effective, points, k_hat, m_hat)


@settings(max_examples=30)
@given(seed=st.integers(0, 3000), nseed=st.integers(0, 1000))
def test_mld_matches_exhaustive_reference_under_mmse(seed, nseed):
    _, p, gain, (u, d), points = _mmse_setup(seed)
    effective = p.beta * gain
    # no all-zero row: its exact tie among the inner points is broken by
    # the rounding of s_m g_k, which differs between kernel and oracle
    y = _noisy_stack(effective, points, nseed)
    rows = y.shape[0]
    k_hat, m_hat = mld(y, _rows(p.beta, rows),
                       (np.broadcast_to(u, (rows, 4, 4)),
                        np.broadcast_to(d, (rows, 4))), points)
    _assert_matches_oracle(y, effective, points, k_hat, m_hat)


def test_mld_noiseless_is_exact():
    _, p, points = _zf_setup(1)
    k, m = np.divmod(np.arange(4 * 16), 16)
    y = np.zeros((k.size, 4), dtype=complex)
    y[np.arange(k.size), k] = p.beta * points[m]
    k_hat, m_hat = mld(y, _rows(p.beta, k.size), None, points)
    assert np.array_equal(k_hat, k) and np.array_equal(m_hat, m)


def test_mld_tie_breaks_to_smallest_pair():
    points = build_qam(4).points
    y = np.zeros((1, 2), dtype=complex)  # all hypotheses equally bad
    k_hat, m_hat = mld(y, np.ones(1), None, points)
    assert (k_hat[0], m_hat[0]) == (0, 0)


def test_med_picks_strongest_antenna():
    _, p, points = _zf_setup(2)
    y = np.array([[0.1 + 0j, 0.2, p.beta * points[5], 0.05]])
    k_hat, m_hat = stage_med(y, _rows(p.beta, 1), None, points)
    assert (k_hat[0], m_hat[0]) == (2, 5)


def test_med_mmse_uses_diagonal_gain():
    _, p, gain, factor, points = _mmse_setup(3)
    k = 2
    y = np.zeros((1, 4), dtype=complex)
    y[0, k] = p.beta * gain[k, k].real * points[7]
    k_hat, m_hat = stage_med(y, _rows(p.beta, 1), factor, points)
    assert (k_hat[0], m_hat[0]) == (k, 7)


def test_energy_ratio_values():
    y = np.array([[0.0, 0.0, 0.0, 0.0],
                  [3.0, 0.0, 4.0, 0.0],
                  [1.0, -1.0, 0.0, 0.0]], dtype=complex)
    # all-zero reports 1, 9 / 16, and equal energies ratio 1
    np.testing.assert_allclose(energy_ratio(y), [1.0, 9.0 / 16.0, 1.0],
                               rtol=1e-15)


@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                   allow_infinity=False),
                min_size=2, max_size=8))
def test_energy_ratio_bounded(vals):
    r = energy_ratio(np.array([vals], dtype=complex))
    assert r.shape == (1,) and 0.0 <= r[0] <= 1.0


def test_rttd_config_validates():
    SimConfig(detector="rttd", gamma=0.0).validate()
    SimConfig(detector="rttd", gamma=1.0).validate()
    for bad in (-0.1, 1.1):
        with pytest.raises(ConfigError, match="gamma"):
            SimConfig(detector="rttd", gamma=bad).validate()


def _rttd(y, beta, points, gamma, gain=None):
    cfg = SimConfig(detector="rttd", gamma=gamma)
    return _detect_batch("rttd", cfg, y, _rows(beta, y.shape[0]), gain,
                         points)


def test_rttd_switches_branches():
    _, p, points = _zf_setup(4)
    # row 0, one dominant antenna: ratio near 0, energy detection suffices;
    # row 1, two near-equal antennas: ratio near 1, the ML search decides
    y = np.zeros((2, 4), dtype=complex)
    y[0, 1] = p.beta * points[3]
    y[1, :2] = p.beta * np.array([1.0, 0.999])
    k_hat, m_hat, coarse = _rttd(y, p.beta, points, 0.6)
    assert coarse.tolist() == [True, False]
    assert (k_hat[0], m_hat[0]) == (1, 3)
    assert k_hat[1] == 0


def test_rttd_gamma_extremes():
    _, p, points = _zf_setup(5)
    g = np.random.Generator(np.random.Philox(17))
    y = g.standard_normal((20, 4)) + 1j * g.standard_normal((20, 4))
    beta = _rows(p.beta, 20)
    *always_fine, fine_coarse = _rttd(y, p.beta, points, 0.0)
    *always_coarse, coarse = _rttd(y, p.beta, points, 1.0)
    assert not fine_coarse.any() and coarse.all()
    for got, want in zip(always_fine, mld(y, beta, None, points)):
        assert np.array_equal(got, want)
    for got, want in zip(always_coarse, stage_med(y, beta, None, points)):
        assert np.array_equal(got, want)


def test_rttd_mmse_route():
    _, p, gain, factor, points = _mmse_setup(6)
    y = np.zeros((1, 4), dtype=complex)
    y[0, 0] = p.beta * gain[0, 0].real * points[2]
    k_hat, m_hat, coarse = _rttd(y, p.beta, points, 0.6, gain=factor)
    assert coarse[0]
    assert (k_hat[0], m_hat[0]) == (0, 2)
