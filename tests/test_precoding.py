import os
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_channel
from farsm.errors import SingularChannelError
from farsm.modulation import build_qam
from farsm.precoding import (EIGH_MAX_RATIO, MAX_CONDITION, NoiseModel,
                             _condition_exceeded, _screened_hermitian_inverse,
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
       extra=st.integers(-1, 4), snr_db=st.floats(-10, 30))
def test_mmse_power_normalization(seed, n_r, extra, snr_db):
    # extra = -1: fewer ports than receive antennas, still N_r of power
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
    y = _receive_batch((h @ p.matrix)[None, :, 2], const.points[[9]], wu,
                       0.0)
    expected = np.zeros((1, 4), dtype=complex)
    expected[0, 2] = p.beta * const.points[9]
    assert np.allclose(y, expected, atol=1e-10)


def test_transmit_noise_is_stream_stable():
    # a trial draws one unit-noise vector, also for a noiseless point, and
    # every SNR point scales that same vector
    h = random_channel(34, 4, 6)
    const = build_qam(4)
    col = (h @ zf_precoder(h).matrix)[None, :, 0]
    _, _, wu = _draw_trials(SimConfig(), np.array([5]))
    s = const.points[[2]]
    y0 = _receive_batch(col, s, wu, 0.0)
    y1 = _receive_batch(col, s, wu, 0.04)
    w = (y1 - y0) / 0.2
    y2 = _receive_batch(col, s, wu, 1.0)
    assert np.allclose(y0 + w, y2, atol=1e-9)


def _grams(h):
    return h @ h.conj().transpose(0, 2, 1)


def _random_grams(seed, rows, n):
    """Hermitian positive-definite Grams (rows, n, n) of random n x (n + 2)
    channels whose receive rows are scaled by up to 1e-4, so the largest
    condition numbers reach about 1e8 at n = 2 and 1e10 at n = 16."""
    g = np.random.Generator(np.random.Philox(seed))
    h = (g.standard_normal((rows, n, n + 2))
         + 1j * g.standard_normal((rows, n, n + 2)))
    return _grams(h * 10.0 ** -g.uniform(0, 4, (rows, n, 1)))


def _engine_grams(w, trials):
    """Grams of the first 4 and of all 16 ports of engine draws on a w x w
    wavelength aperture."""
    from farsm import simulate

    cfg = SimConfig(w1=w, w2=w, portsel="first", trials=trials)
    hb = _draw_trials(cfg, np.arange(trials), 0,
                      simulate._port_model(cfg)[0])[0]
    return _grams(hb[:, :, :4]), _grams(hb)


def _lu_screen(gram):
    """The LU screen the Cholesky inverse replaced, kept as an oracle: one
    solve of the stack, one per row where a row is exactly singular, and the
    1-norms by sum and max."""
    n = gram.shape[1]
    failed = np.zeros(gram.shape[0], dtype=bool)
    try:
        inv = np.linalg.solve(gram, np.broadcast_to(np.eye(n), gram.shape))
    except np.linalg.LinAlgError:
        inv = np.empty_like(gram)
        for i in range(gram.shape[0]):
            try:
                inv[i] = np.linalg.solve(gram[i], np.eye(n))
            except np.linalg.LinAlgError:
                inv[i] = np.nan
                failed[i] = True
    cond = (np.abs(gram).sum(axis=1).max(axis=1)
            * np.abs(inv).sum(axis=1).max(axis=1))
    return inv, failed | ~np.isfinite(cond) | (cond > MAX_CONDITION)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_hermitian_inverse_meets_the_cholesky_error_bound(n):
    # Cholesky inversion is backward stable: each row within c n eps cond(W)
    # of np.linalg.inv, relative, with c = 2
    grams = [_random_grams(n, 256, n)]
    if n == 4:
        grams += _engine_grams(0.05, 2048)
    for gram in grams:
        inv, failed = _screened_hermitian_inverse(gram)
        ok = ~failed
        assert ok.sum() > 0.9 * len(gram)
        ref = np.linalg.inv(gram[ok])
        err = (np.linalg.norm(inv[ok] - ref, axis=(1, 2))
               / np.linalg.norm(ref, axis=(1, 2)))
        bound = 2 * n * np.finfo(float).eps * np.linalg.cond(gram[ok], 1)
        assert (err <= bound).all()
        assert np.array_equal(inv, inv.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_hermitian_inverse_rows_do_not_depend_on_the_stack(n):
    # every row bit for bit as its own one-row call and as the same row of a
    # reversed and of a strided stack, flags included
    gram = _random_grams(10 + n, 64, n)
    if n == 4:
        gram = np.concatenate([gram, _engine_grams(0.05, 64)[0]])
    inv, failed = _screened_hermitian_inverse(gram)
    assert failed.any() if n == 4 else not failed.any()
    for i in range(len(gram)):
        one, one_failed = _screened_hermitian_inverse(gram[i:i + 1])
        assert np.array_equal(one[0], inv[i])
        assert one_failed[0] == failed[i]
    rev, rev_failed = _screened_hermitian_inverse(gram[::-1])
    assert np.array_equal(rev[::-1], inv)
    assert np.array_equal(rev_failed[::-1], failed)
    odd, odd_failed = _screened_hermitian_inverse(gram[::2])
    assert np.array_equal(odd, inv[::2])
    assert np.array_equal(odd_failed, failed[::2])


@pytest.mark.parametrize("rows", [1, 5])
def test_hermitian_inverse_leaves_its_input_unchanged(rows):
    gram = _random_grams(3, rows, 4)
    before = gram.copy()
    _screened_hermitian_inverse(gram)
    assert np.array_equal(gram, before)


def test_hermitian_inverse_flags_degenerate_grams():
    good = _random_grams(4, 1, 4)[0]
    g = np.random.Generator(np.random.Philox(5))
    h = g.standard_normal((4, 3)) + 1j * g.standard_normal((4, 3))
    nan, inf = good.copy(), good.copy()
    nan[1, 2] = nan[2, 1] = np.nan
    inf[3, 3] = np.inf
    stack = np.array([h @ h.conj().T,                   # rank 3
                      np.diag([1.0, -1.0, 2.0, 3.0]),   # indefinite
                      nan, inf, np.zeros((4, 4)), good], dtype=complex)
    inv, failed = _screened_hermitian_inverse(stack)
    assert failed.tolist() == [True] * 5 + [False]
    assert np.array_equal(inv[5], _screened_hermitian_inverse(good[None])[0][0])
    inv, failed = _screened_hermitian_inverse(np.empty((0, 4, 4), complex))
    assert inv.shape == (0, 4, 4) and failed.shape == (0,)
    assert failed.dtype == bool


@pytest.mark.parametrize("w", [0.05, 0.1])
def test_hermitian_inverse_flags_as_the_lu_screen(w):
    # 8192 engine draws: the Grams of the first 4 ports, about 2% of which
    # fail at 0.05 wavelengths, and of all 16 ports
    first, every = _engine_grams(w, 8192)
    flags = [_screened_hermitian_inverse(g)[1] for g in (first, every)]
    for gram, failed in zip((first, every), flags):
        assert np.array_equal(failed, _lu_screen(gram)[1])
    assert flags[0].sum() == (138 if w == 0.05 else 2)


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
    # screen passes Grams of condition up to 1e12, and 1 of the 128 trials
    # is redrawn. Inverting the formed regularized Gram misses this oracle
    # by up to about 4e-6 relative; the SVD route by about 2e-11.
    from farsm import simulate

    got = {"hb": [], "k": [], "col": [], "beta": [], "y": [], "scale": []}
    dump, indices = simulate.dump_channels_csv, simulate.bits_to_indices
    receive, detect = simulate._receive_batch, simulate._detect_batch
    symbols = simulate.med_symbols

    def spy_indices(bits, spatial_bits):
        got["k"].append(indices(bits, spatial_bits)[0])
        return indices(bits, spatial_bits)

    def spy_receive(cols, s, wu, n0):
        got["col"].append(cols)
        return receive(cols, s, wu, n0)

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
    assert simulate.run_ber_sweep(cfg).redraws == 1
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


def test_eigh_route_matches_50_digit_oracle_near_its_bound(monkeypatch):
    # the first ports of a 0.5-wavelength aperture: about half the Grams
    # have an eigenvalue ratio above EIGH_MAX_RATIO, so the batch factor
    # takes both routes. Each must meet the oracle at 1e-9 relative at 90
    # and 120 dB and at +inf, where the error of eigh is largest.
    from farsm import simulate

    got = {"hb": [], "k": [], "col": [], "beta": [], "y": [], "scale": [],
           "svd": []}
    dump, indices = simulate.dump_channels_csv, simulate.bits_to_indices
    receive, detect = simulate._receive_batch, simulate._detect_batch
    symbols, svd = simulate.med_symbols, np.linalg.svd

    def spy_indices(bits, spatial_bits):
        got["k"].append(indices(bits, spatial_bits)[0])
        return indices(bits, spatial_bits)

    def spy_receive(cols, s, wu, n0):
        got["col"].append(cols)
        return receive(cols, s, wu, n0)

    def spy_detect(det, cfg, y, beta, gain, points):
        got["y"].append(y)
        got["beta"].append(beta)
        return detect(det, cfg, y, beta, gain, points)

    def spy_symbols(yk, scale, points):
        got["scale"].append(scale)
        return symbols(yk, scale, points)

    def spy_svd(a, *args, **kwargs):
        got["svd"].append(a.copy())
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(simulate, "dump_channels_csv",
                        lambda path, rows: got["hb"].extend(h for _, h in rows))
    monkeypatch.setattr(simulate, "bits_to_indices", spy_indices)
    monkeypatch.setattr(simulate, "_receive_batch", spy_receive)
    monkeypatch.setattr(simulate, "_detect_batch", spy_detect)
    monkeypatch.setattr(simulate, "med_symbols", spy_symbols)
    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    cfg = SimConfig(w1=0.5, w2=0.5, precoder="mmse", portsel="first",
                    detector="med", mod_order=16, trials=128,
                    snr_db=(90.0, 120.0, float("inf")), master_seed=5,
                    dump_channels=os.devnull)
    assert simulate.run_ber_sweep(cfg).redraws == 0
    monkeypatch.undo()
    h_sel = np.ascontiguousarray(np.array(got["hb"])[:, :, :cfg.n_a])
    # the SVD saw exactly the rows whose eigh ratio exceeds the bound
    lam = np.linalg.eigh(h_sel @ h_sel.conj().transpose(0, 2, 1))[0]
    above = lam[:, -1] > EIGH_MAX_RATIO * lam[:, 0]
    assert 0.25 < above.mean() < 0.75
    assert len(got["svd"]) == 1 and np.array_equal(got["svd"][0],
                                                   h_sel[above])
    k_sent = got["k"][0]
    for p, snr in enumerate(cfg.snr_db):
        c = cfg.n_r * NoiseModel.from_snr_db(snr).n0
        k_med = np.argmax(np.abs(got["y"][p]) ** 2, axis=1)
        for t in range(cfg.trials):
            beta, col, scale, _ = _mp_mmse(h_sel[t], c, k_sent[t], k_med[t])
            assert got["beta"][p][t] == pytest.approx(beta, rel=1e-9)
            assert (np.linalg.norm(got["col"][p][t] - col)
                    <= 1e-9 * np.linalg.norm(col))
            assert got["scale"][p][t] == pytest.approx(scale, rel=1e-9)


def test_screen_bound_decides_as_forming_every_row():
    # the first ports of a 0.05-wavelength aperture at 120 dB, some of which
    # the bound sends on to the formed R and some of which fail there, and
    # i.i.d. channels, which the bound passes
    from farsm import simulate

    cfg = SimConfig(w1=0.05, w2=0.05, portsel="first", trials=512)
    hb = _draw_trials(cfg, np.arange(cfg.trials), 0,
                      simulate._port_model(cfg)[0])[0][:, :, :cfg.n_a]
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


def _raising_rows(route, channels):
    """(B,) flags: ``route`` raises SingularChannelError on the channel."""
    failed = np.zeros(len(channels), dtype=bool)
    for b, h in enumerate(channels):
        try:
            route(h)
        except SingularChannelError:
            failed[b] = True
    return failed


def test_scalar_routes_fail_on_exactly_the_engines_rows():
    # engine draws of a 0.05-wavelength aperture: about 2% of the Grams of
    # the first 4 ports fail the ZF screen. Each one-channel route must
    # fail on exactly the rows that the engine's screen of its form flags.
    from farsm import simulate
    from farsm.selection import _batch_tmd, initial_trace_state

    cfg = SimConfig(w1=0.05, w2=0.05, portsel="first", trials=8192)
    hb = _draw_trials(cfg, np.arange(cfg.trials), 0,
                      simulate._port_model(cfg)[0])[0]
    h_sel = hb[:, :, :cfg.n_a]
    zf = simulate._precode_batch(cfg, h_sel, 1.0)[3]
    assert 0 < zf.sum() < cfg.trials
    assert np.array_equal(_raising_rows(zf_precoder, h_sel), zf)

    # TMD from all 16 ports, where no Gram fails, and on the first 4 alone
    for stack in (hb, h_sel):
        tmd = _batch_tmd(stack, cfg.n_a)[1]
        assert np.array_equal(_raising_rows(initial_trace_state, stack), tmd)
    assert tmd.sum() == zf.sum()

    noise = NoiseModel.from_snr_db(120.0)
    h_sel = h_sel[:4096]
    mmse = simulate._precode_batch(replace(cfg, precoder="mmse"), h_sel,
                                   noise.n0)[3]
    assert 0 < mmse.sum() < len(h_sel)
    assert np.array_equal(
        _raising_rows(lambda h: mmse_precoder(h, noise), h_sel), mmse)
