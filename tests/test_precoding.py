import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_channel
from farsm.errors import SingularChannelError
from farsm.modulation import build_qam
from farsm.precoding import (NoiseModel, effective_gain_matrix, mmse_precoder,
                             zf_precoder)
from farsm.simulate import SimConfig, _draw_trials, _receive_batch


def test_noise_model_conversions():
    assert NoiseModel.from_snr_db(0.0).n0 == 1.0
    assert NoiseModel.from_snr_db(10.0).n0 == pytest.approx(0.1, rel=1e-15)
    assert NoiseModel.from_snr_db(-10.0).n0 == pytest.approx(10.0, rel=1e-15)
    assert NoiseModel(0.25).snr_db == pytest.approx(10 * np.log10(4.0))
    assert NoiseModel(0.0).snr_db == np.inf
    with pytest.raises(ValueError):
        NoiseModel(-1e-9)


@settings(max_examples=50)
@given(seed=st.integers(0, 10_000), n_r=st.sampled_from((2, 4)),
       extra=st.integers(0, 4))
def test_zf_inverts_the_channel(seed, n_r, extra):
    h = random_channel(seed, n_r, n_r + extra)
    p = zf_precoder(h)
    hp = h @ p.matrix
    assert np.linalg.norm(hp - p.beta * np.eye(n_r)) / p.beta < 1e-9
    power = np.trace(p.matrix @ p.matrix.conj().T).real
    assert power == pytest.approx(n_r, rel=1e-9)


@settings(max_examples=50)
@given(seed=st.integers(0, 10_000), n_r=st.sampled_from((2, 4)),
       extra=st.integers(0, 4), snr_db=st.floats(-10, 30))
def test_mmse_power_normalization(seed, n_r, extra, snr_db):
    h = random_channel(seed, n_r, n_r + extra)
    p = mmse_precoder(h, NoiseModel.from_snr_db(snr_db))
    power = np.trace(p.matrix @ p.matrix.conj().T).real
    assert power == pytest.approx(n_r, rel=1e-9)


def test_mmse_approaches_zf_at_vanishing_noise():
    h = random_channel(11, 4, 6)
    pz = zf_precoder(h)
    pm = mmse_precoder(h, NoiseModel(1e-12))
    assert np.abs(pm.matrix - pz.matrix).max() < 1e-5
    assert pm.beta == pytest.approx(pz.beta, rel=1e-6)


def test_effective_gain_matrix_properties():
    h = random_channel(21, 4, 8)
    noise = NoiseModel.from_snr_db(5.0)
    g = effective_gain_matrix(h, noise)
    assert np.allclose(g, g.conj().T, atol=1e-10)  # Hermitian
    pm = mmse_precoder(h, noise)
    # received matrix equals beta * G exactly
    assert np.allclose(h @ pm.matrix, pm.beta * g, atol=1e-10)
    # diagonal dominates: intended antenna keeps most of its energy
    assert (np.abs(np.diag(g).real) >= np.abs(g - np.diag(np.diag(g))).max(axis=1)).all()


def test_singular_channel_raises():
    h = np.ones((4, 4), dtype=complex)  # rank one
    with pytest.raises(SingularChannelError):
        zf_precoder(h)


def test_mmse_regularization_survives_singular_gram():
    h = np.ones((4, 4), dtype=complex) * (1 + 1j)
    p = mmse_precoder(h, NoiseModel(0.1))  # regularized inverse exists
    assert np.isfinite(p.matrix).all()


def test_transmit_noiseless_hits_target_antenna():
    # the channel use y = H P s e_k + sqrt(n0) w through a ZF precoder
    h = random_channel(33, 4, 6)
    const = build_qam(16)
    p = zf_precoder(h)
    wu = np.ones((1, 4), dtype=complex)
    y = _receive_batch((h @ p.matrix)[None], np.array([2]),
                       const.points[[9]], wu, 0.0)
    expected = np.zeros((1, 4), dtype=complex)
    expected[0, 2] = p.beta * const.points[9]
    assert np.allclose(y, expected, atol=1e-10)


def test_transmit_noise_is_stream_stable():
    # a trial draws one unit-noise vector, also for a noiseless point, and
    # every SNR point scales that same vector
    h = random_channel(34, 4, 6)
    const = build_qam(4)
    hp = (h @ zf_precoder(h).matrix)[None]
    _, _, wu = _draw_trials(SimConfig(), np.array([5]))
    k, s = np.array([0]), const.points[[2]]
    y0 = _receive_batch(hp, k, s, wu, 0.0)
    y1 = _receive_batch(hp, k, s, wu, 0.04)
    w = (y1 - y0) / 0.2
    y2 = _receive_batch(hp, k, s, wu, 1.0)
    assert np.allclose(y0 + w, y2, atol=1e-9)
