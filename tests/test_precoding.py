import os

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_channel
from farsm.errors import SingularChannelError
from farsm.modulation import build_qam
from farsm.precoding import (MAX_CONDITION, NoiseModel, _condition_exceeded,
                             effective_gain_matrix, mmse_factor,
                             mmse_precoder, mmse_screen, zf_precoder)
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


def _mp_mmse(h, c, k, j):
    """beta, beta g_k and beta G[j, j] of one channel from a 50-digit
    evaluation of G = H H^H (H H^H + c I)^-1 and beta = sqrt(N_r / tr(H H^H
    (H H^H + c I)^-2)), as floats."""
    with mp.workdps(50):
        hm = mp.matrix(h.tolist())
        gram = hm * hm.H
        inv = (gram + mp.mpf(c) * mp.eye(h.shape[0])) ** -1
        g = gram * inv
        g_inv = g * inv
        beta = mp.sqrt(h.shape[0] / mp.re(sum(g_inv[i, i]
                                              for i in range(h.shape[0]))))
        return (float(beta),
                np.array([complex(beta * g[i, k]) for i in range(h.shape[0])]),
                float(beta * mp.re(g[j, j])), float(beta) * np.array(
                    [[complex(g[r, q]) for q in range(h.shape[0])]
                     for r in range(h.shape[0])]))


def test_factor_route_matches_50_digit_oracle_on_ill_conditioned_channels(
        monkeypatch):
    # the first ports of a 0.05-wavelength aperture, at 90 and 120 dB: the
    # screen passes Grams of condition up to 1e12, and 2 of the 128 trials
    # are redrawn. Inverting the formed regularized Gram misses this oracle
    # by up to about 4e-6 relative; the SVD route by about 2e-11.
    from farsm import simulate

    got = {"hb": [], "k": [], "col": [], "beta": [], "y": [], "scale": []}
    dump, indices = simulate.dump_channels_csv, simulate.bits_to_indices
    receive, detect = simulate._receive_batch, simulate._detect_batch
    symbols = simulate.med_symbols

    def spy_indices(bits, spatial_bits):
        got["k"].append(indices(bits, spatial_bits)[0])
        return indices(bits, spatial_bits)

    def spy_receive(cols, k_idx, s, wu, n0):
        got["col"].append(cols)
        return receive(cols, k_idx, s, wu, n0)

    def spy_detect(det, cfg, y, beta, gain, points):
        got["y"].append(y)
        got["beta"].append(beta)
        return detect(det, cfg, y, beta, gain, points)

    def spy_symbols(yk, scale, points):
        got["scale"].append(scale)
        return symbols(yk, scale, points)

    monkeypatch.setattr(simulate, "dump_channels_csv",
                        lambda path, rows: got["hb"].extend(h for _, h in rows))
    monkeypatch.setattr(simulate, "bits_to_indices", spy_indices)
    monkeypatch.setattr(simulate, "_receive_batch", spy_receive)
    monkeypatch.setattr(simulate, "_detect_batch", spy_detect)
    monkeypatch.setattr(simulate, "med_symbols", spy_symbols)
    cfg = SimConfig(w1=0.05, w2=0.05, precoder="mmse", portsel="first",
                    detector="med", mod_order=16, trials=128,
                    snr_db=(90.0, 120.0), master_seed=5,
                    dump_channels=os.devnull)
    assert simulate.run_ber_sweep(cfg).redraws == 2
    monkeypatch.undo()
    # the channels after redraws, as the sweep dumps them
    h_sel = np.array(got["hb"])[:, :, :cfg.n_a]
    k_sent = got["k"][0]
    for p, snr in enumerate(cfg.snr_db):
        noise = NoiseModel.from_snr_db(snr)
        k_med = np.argmax(np.abs(got["y"][p]) ** 2, axis=1)
        for t in range(cfg.trials):
            beta, col, scale, hp = _mp_mmse(h_sel[t], cfg.n_r * noise.n0,
                                            k_sent[t], k_med[t])
            assert got["beta"][p][t] == pytest.approx(beta, rel=1e-9)
            assert (np.linalg.norm(got["col"][p][t] - col)
                    <= 1e-9 * np.linalg.norm(col))
            assert got["scale"][p][t] == pytest.approx(scale, rel=1e-9)
            # the one-channel views of the same route
            ref = mmse_precoder(h_sel[t], noise)
            assert ref.beta == pytest.approx(beta, rel=1e-9)
            gain = ref.beta * effective_gain_matrix(h_sel[t], noise)
            assert np.linalg.norm(gain - hp) <= 1e-9 * np.linalg.norm(hp)


def test_screen_bound_decides_as_forming_every_row():
    # the first ports of a 0.05-wavelength aperture at 120 dB, some of which
    # the bound sends on to the formed R and some of which fail there, and
    # i.i.d. channels, which the bound passes
    from farsm import simulate

    cfg = SimConfig(w1=0.05, w2=0.05, portsel="first", trials=512)
    hb = _draw_trials(cfg, np.arange(cfg.trials))[0]
    hb = (hb @ simulate._port_model(cfg)[0])[:, :, :cfg.n_a]
    g = np.random.Generator(np.random.Philox(2))
    iid = (g.standard_normal((512, 4, 4))
           + 1j * g.standard_normal((512, 4, 4))) / np.sqrt(2.0)
    u, lam = mmse_factor(np.concatenate([hb, iid]))
    c = cfg.n_r * NoiseModel.from_snr_db(120.0).n0
    w = (lam + c)[:, None, :]
    uh = u.conj().transpose(0, 2, 1)
    formed = _condition_exceeded((u * w) @ uh, (u / w) @ uh)
    assert np.array_equal(mmse_screen(u, lam, c), formed)
    bound = cfg.n_r * w.max(axis=2)[:, 0] / w.min(axis=2)[:, 0]
    checked = ~(bound <= MAX_CONDITION / 2)
    assert 0 < formed[:512].sum() < checked[:512].sum() < 512
    assert not checked[512:].any()
