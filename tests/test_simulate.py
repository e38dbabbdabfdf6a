import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farsm import precoding, simulate
from farsm.channel import SeededRng
from farsm.correlation import build_correlation_model, port_coordinates
from farsm.detection import energy_ratio, mld
from farsm.errors import ConfigError, NumericalError, SingularChannelError
from farsm.modulation import bits_to_indices, build_qam
from farsm.precoding import (NoiseModel, effective_gain_matrix, mmse_factor,
                             mmse_precoder, mmse_scales, zf_precoder,
                             zf_precoders, zf_sent_columns)
from farsm.simulate import (STREAM_VERSION, BerPoint,
                            SimConfig, _detect_batch, _draw_trials,
                            _port_model, _precode_batch, _receive_batch,
                            _select_indices, portsel_benchmark,
                            run_ber_sweep, run_ber_sweep_multi,
                            run_ratio_sweep, run_trial,
                            stream_id, wilson_interval, worker_count,
                            write_ber_csv)
from conftest import gain_matrices, stage_med
from test_golden_counts import CONFIGS, GOLDEN

FAST = dict(snr_db=(2.0,), portsel="tmd")


def test_wilson_frozen_values():
    lo, hi = wilson_interval(5, 1000)
    assert lo == pytest.approx(0.0021375355273244599, rel=1e-12)
    assert hi == pytest.approx(0.011650955373375113, rel=1e-12)
    lo0, hi0 = wilson_interval(0, 1000)
    assert lo0 == 0.0
    assert hi0 == pytest.approx(0.0038267584855551241, rel=1e-12)
    lo1, hi1 = wilson_interval(1000, 1000)
    assert hi1 == 1.0 and lo1 == pytest.approx(1 - hi0, rel=1e-12)


@given(errors=st.integers(0, 500), extra=st.integers(0, 10_000))
def test_wilson_brackets_the_estimate(errors, extra):
    n = 500 + extra
    lo, hi = wilson_interval(errors, n)
    assert 0.0 <= lo <= errors / n <= hi <= 1.0


def test_stream_id_layout():
    assert stream_id(0) == 0
    assert stream_id(5, redraw=1) == 5 + (1 << 40)
    with pytest.raises(ValueError):
        stream_id(1 << 40)
    with pytest.raises(ValueError):
        stream_id(0, redraw=256)


def _draw_reference(cfg, trials, redraw):
    """Draws of stream version 2 from fresh SeededRng generators, one per
    block: 256 consecutive trials per stream, or one trial per stream for
    a redraw."""
    n_cols = cfg.n_a if cfg.baseline else cfg.n_ports
    words = -(-cfg.bits_per_use // 8)
    size = 1 if redraw else 256
    hw, bits, wu = [], [], []
    for t in trials.tolist():
        b, row = divmod(t, size)
        g = SeededRng(cfg.master_seed, stream_id(b, redraw)).generator()
        z = g.standard_normal(2 * size * cfg.n_r * n_cols)
        h = (z[0::2] + 1j * z[1::2]) * (1.0 / np.sqrt(2.0))
        hw.append(h.reshape(size, cfg.n_r, n_cols)[row])
        raw = g.bit_generator.random_raw(size * words).reshape(size, words)
        bits.append(np.array(
            [(int(raw[row, j // 8]) >> (8 * (j % 8) + 7)) & 1
             for j in range(cfg.bits_per_use)], dtype=np.uint8))
        zw = g.standard_normal(2 * size * cfg.n_r)
        w = (zw[0::2] + 1j * zw[1::2]) * (1.0 / np.sqrt(2.0))
        wu.append(w.reshape(size, cfg.n_r)[row])
    return np.stack(hw), np.stack(bits), np.stack(wu)


@pytest.mark.parametrize("shape", [
    dict(baseline=True),                     # 4 payload bits: half a word
    dict(n_a=6),
    dict(n_r=8, n_a=8),
    dict(n_r=8, n_a=8, mod_order=64),        # 9 payload bits: two words
])
@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
@pytest.mark.parametrize("redraw", [0, 3])
@pytest.mark.parametrize("batch", [1, 7, 300])
def test_draw_trials_matches_per_trial_streams(shape, seed, redraw, batch):
    cfg = SimConfig(master_seed=seed, **shape)
    trials = np.arange(batch) * 5 + 11
    got = _draw_trials(cfg, trials, redraw)
    ref = _draw_reference(cfg, trials, redraw)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.shape == r.shape
        assert g.tobytes() == r.tobytes()  # bit-identical, signed zeros too


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="N_a must be >= N_r"):
        SimConfig(n_a=2, n_r=4).validate()
    with pytest.raises(ConfigError, match="power of two"):
        SimConfig(n_r=3).validate()
    with pytest.raises(ConfigError, match="mod_order"):
        SimConfig(mod_order=8).validate()
    with pytest.raises(ConfigError, match="N > N_b > N_a"):
        SimConfig(portsel="mce-tmd", n_b=16).validate()
    with pytest.raises(ConfigError, match="N_a=5 exceeds the port count"):
        SimConfig(n1=2, n2=2, n_a=5, n_r=4).validate()
    with pytest.raises(ConfigError, match="tmd or mce-tmd"):
        SimConfig(n1=5, n2=5, portsel="optimal").validate()
    with pytest.raises(ConfigError, match="N_r <= 8"):
        SimConfig(n1=4, n2=5, n_r=16, n_a=16, portsel="optimal").validate()
    with pytest.raises(ConfigError, match="select_snr_db is required"):
        SimConfig(precoder="mmse", portsel="optimal").validate()
    with pytest.raises(ConfigError, match="gamma"):
        SimConfig(gamma=1.5).validate()
    with pytest.raises(ConfigError, match="SNR point"):
        SimConfig(snr_db=()).validate()
    for bad in (float("nan"), -float("inf")):
        with pytest.raises(ConfigError, match="NaN or -inf"):
            SimConfig(snr_db=(0.0, bad)).validate()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="surface extents"):
            SimConfig(w1=bad).validate()
        with pytest.raises(ConfigError, match="surface extents"):
            SimConfig(w2=bad).validate()
        with pytest.raises(ConfigError, match="select_snr_db must be finite"):
            SimConfig(precoder="mmse", select_snr_db=bad).validate()
    # valid default passes and returns itself
    cfg = SimConfig()
    assert cfg.validate() is cfg


def test_variant_names():
    assert SimConfig().variant == "fa-rsm-zf-optimal-mld"
    assert SimConfig(baseline=True, precoder="mmse",
                     detector="rttd").variant == "rsm-mmse-rttd"


def test_validate_checks_field_types():
    with pytest.raises(ConfigError, match="^n_r must be an integer, got 4.0$"):
        SimConfig(n_r=4.0).validate()
    with pytest.raises(ConfigError, match="baseline must be true or false"):
        SimConfig(baseline=0).validate()
    with pytest.raises(ConfigError, match="snr_db must be a list of numbers"):
        SimConfig(snr_db=(0.0, "10")).validate()
    # numpy scalars are numbers too
    SimConfig(trials=np.int64(10), w1=np.float64(0.5), gamma=1,
              snr_db=(np.float64(0.0), 5)).validate()


def test_bits_accounting():
    cfg = SimConfig(mod_order=16, n_r=4)
    assert cfg.bits_per_use == 6
    sw = run_ber_sweep(replace(cfg, **FAST, trials=600))
    assert sw.points[0].bits == 600 * 6
    assert sw.points[0].trials == 600


def test_sweep_is_deterministic():
    cfg = SimConfig(**FAST, trials=600)
    a = run_ber_sweep(cfg)
    b = run_ber_sweep(cfg)
    assert a == b


def test_seed_changes_results():
    a = run_ber_sweep(SimConfig(**FAST, trials=2000, master_seed=0))
    b = run_ber_sweep(SimConfig(**FAST, trials=2000, master_seed=1))
    assert a.points[0].bit_errors != b.points[0].bit_errors


def test_thread_count_does_not_change_results(monkeypatch):
    cfg = SimConfig(trials=5000, snr_db=(0.0, 6.0), portsel="tmd")
    monkeypatch.delenv("FARSM_THREADS", raising=False)
    serial = run_ber_sweep(cfg)
    monkeypatch.setenv("FARSM_THREADS", "4")
    assert worker_count() == 4
    threaded = run_ber_sweep(cfg)
    assert serial == threaded


INVARIANCE_CASES = {
    "tmd": (dict(portsel="tmd", snr_db=(0.0, 6.0), master_seed=31),
            ("mld",)),
    "zf-optimal": (dict(portsel="optimal", snr_db=(0.0, 6.0),
                        master_seed=32), ("mld",)),
    "mmse-mce-tmd-64qam": (dict(precoder="mmse", portsel="mce-tmd",
                                mod_order=64, snr_db=(10.0, 20.0),
                                master_seed=33), ("mld", "med", "rttd")),
    "first-redraws": (dict(w1=0.05, w2=0.05, portsel="first",
                           snr_db=(0.0, 90.0), master_seed=5), ("mld",)),
}


@pytest.mark.parametrize("name", sorted(INVARIANCE_CASES))
def test_batch_size_and_threads_do_not_change_results(name, monkeypatch):
    # 600 trials is no multiple of any batch size here, so every run ends
    # on a partial batch; 257 and 64 cut batches across blocks of trials.
    # Under MMSE the ratio histograms, built from every batch's energy
    # ratios, must not move either
    shape, detectors = INVARIANCE_CASES[name]
    cfg = SimConfig(trials=600, **shape)
    runs, ratio_runs = {}, {}
    for batch in (2048, 257, 64):
        for threads in ("1", "2"):
            monkeypatch.setattr(simulate, "_BATCH", batch)
            monkeypatch.setenv("FARSM_THREADS", threads)
            runs[batch, threads] = run_ber_sweep_multi(cfg, detectors)
            if cfg.precoder == "mmse":
                ratio = run_ratio_sweep(cfg)
                ratio_runs[batch, threads] = (
                    ratio.selection_redraws, ratio.screen_redraws,
                    [(h.counts.tolist(), h.median) for h in ratio.histograms])
    want = runs[2048, "1"]
    if name == "first-redraws":
        assert want["mld"].redraws > 0
    for key, got in runs.items():
        assert got == want, key
    for key, got in ratio_runs.items():
        assert got == ratio_runs[2048, "1"], key


@pytest.mark.parametrize("redraw", [0, 3])
def test_draw_trials_rows_do_not_depend_on_the_trial_array(redraw):
    cfg = SimConfig(n_r=8, n_a=8, mod_order=64, master_seed=(1 << 64) - 1)
    whole = _draw_trials(cfg, np.arange(1100), redraw)
    trials = np.array([700, 3, 259, 2, 511, 1099, 258, 3])
    for got, ref in zip(_draw_trials(cfg, trials, redraw), whole):
        assert got.tobytes() == ref[trials].tobytes()


@pytest.mark.parametrize("w", [1.0, 0.5])
def test_mce_tmd_selection_equals_one_row_calls(w):
    # redraws select one trial at a time, so a selection must not depend
    # on the batch it was made in
    cfg = SimConfig(w1=w, w2=w, portsel="mce-tmd", trials=300).validate()
    root, pairs = _port_model(cfg)
    hb = _draw_trials(cfg, np.arange(300))[0] @ root
    idx, failed = _select_indices(cfg, hb, pairs)
    for b in range(300):
        idx1, failed1 = _select_indices(cfg, hb[b:b + 1], pairs)
        assert idx1[0].tolist() == idx[b].tolist(), b
        assert failed1[0] == failed[b]


def test_worker_count_rejects_garbage(monkeypatch):
    monkeypatch.setenv("FARSM_THREADS", "zero")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.setenv("FARSM_THREADS", "-2")
    with pytest.raises(ConfigError):
        worker_count()


def test_threaded_sweeps_keep_their_batch_threads(monkeypatch):
    # batch j runs on thread j mod FARSM_THREADS, the same thread in every
    # sweep, so it reuses the malloc arena its earlier batches left mapped
    monkeypatch.setenv("FARSM_THREADS", "2")
    monkeypatch.setattr(simulate, "_BATCH", 64)
    run_batch = simulate._run_batch
    seen = {}

    def spy(cfg, ports, trials, *args):
        seen[int(trials[0]) // 64] = threading.current_thread()
        return run_batch(cfg, ports, trials, *args)

    monkeypatch.setattr(simulate, "_run_batch", spy)
    cfg = SimConfig(trials=256, snr_db=(0.0,), portsel="tmd")
    run_ber_sweep(cfg)
    first = dict(seen)
    run_ber_sweep(cfg)
    assert all(seen[j] is first[j] for j in range(4))
    assert first[0] is first[2] and first[1] is first[3]
    assert first[0] is not first[1]


# Minor page faults of warm sweeps, printed as JSON by a fresh interpreter:
# two warm-up sweeps of each config, then ``runs`` more of each.
_WARM_FAULTS = """
import json, resource, sys
from farsm.simulate import SimConfig, run_ber_sweep

def faults(cfg):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_ber_sweep(cfg)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

configs = {
    "zf-tmd": SimConfig(trials=4096, portsel="tmd",
                        snr_db=tuple(2.5 * i for i in range(7))),
    "mmse-mce-rttd-64": SimConfig(
        trials=4096, precoder="mmse", portsel="mce-tmd", detector="rttd",
        mod_order=64, n_b=12, snr_db=tuple(2.5 * i for i in range(13))),
}
out = {}
for name, cfg in configs.items():
    faults(cfg)
    faults(cfg)
    out[name] = [faults(cfg) for _ in range(int(sys.argv[1]))]
print(json.dumps(out))
"""


@pytest.mark.skipif(simulate._libc_mallopt() is None,
                    reason="libc has no mallopt")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_warm_sweeps_take_no_page_faults(threads):
    # freed batch memory stays mapped, so a warm sweep touches no new page;
    # at glibc's default malloc thresholds a ZF TMD sweep here took 4544
    # faults. Two batch threads hand small blocks between their malloc
    # arenas, so a warm arena still grows by a 128 KiB block now and then
    # (97-129 faults in 3 of 50 measured sequences): with two threads the
    # fewest faults of three sweeps must be under the bound.
    runs = 1 if threads == "1" else 3
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = dict(os.environ, FARSM_THREADS=threads, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _WARM_FAULTS, str(runs)],
                         env=env, check=True, capture_output=True, text=True)
    for name, faults in json.loads(out.stdout).items():
        assert min(faults) < 64, (name, faults)


@pytest.mark.parametrize("shape", [
    dict(),
    dict(n_r=8, n_a=8, mod_order=64),        # 9 payload bits: two words
], ids=["4x4-4qam", "8x8-64qam"])
def test_run_trial_matches_sweep_counts(shape):
    cfg = SimConfig(trials=128, snr_db=(4.0,), portsel="mce-tmd",
                    precoder="mmse", detector="rttd", **shape)
    sweep = run_ber_sweep(cfg)
    errors = 0
    for t in range(cfg.trials):
        res = run_trial(cfg, 4.0, t)
        errors += int(np.sum(res.tx_bits != res.rx_bits))
    assert errors == sweep.points[0].bit_errors


def test_run_trial_matches_sweep_counts_with_redraws():
    # a tiny aperture with the first ports makes singular ZF Grams common,
    # so the sweep recomputes its once-per-batch precoder after redraws.
    # Every trial is ill conditioned here: only at 90 and 120 dB do the
    # re-drawn trials decode differently from the channels they replaced
    cfg = SimConfig(w1=0.05, w2=0.05, portsel="first", trials=600,
                    snr_db=(0.0, 30.0, 90.0, 120.0), master_seed=5)
    sweep = run_ber_sweep(cfg)
    assert sweep.redraws > 0
    for p, snr in enumerate(cfg.snr_db):
        errors = redraws = 0
        for t in range(cfg.trials):
            res = run_trial(cfg, snr, t)
            errors += int(np.sum(res.tx_bits != res.rx_bits))
            redraws += res.redraws
        assert errors == sweep.points[p].bit_errors
        assert redraws == sweep.redraws  # the ZF screen ignores the SNR


def test_mmse_run_trial_matches_sweep_counts_with_redraws():
    # the MMSE twin of the test above: the sweep regularizes one Gram per
    # batch for every point, so that Gram must be built after the redraws.
    # run_trial screens at its own SNR and the sweep at the tightest point,
    # so both redraw the same trials only at 120 dB; at 0 and 30 dB no
    # trial fails the screen
    cfg = SimConfig(w1=0.05, w2=0.05, precoder="mmse", detector="rttd",
                    portsel="first", trials=600,
                    snr_db=(0.0, 30.0, 90.0, 120.0), master_seed=5)
    sweep = run_ber_sweep(cfg)
    assert sweep.redraws > 0
    errors = redraws = 0
    for t in range(cfg.trials):
        res = run_trial(cfg, cfg.snr_db[-1], t)
        errors += int(np.sum(res.tx_bits != res.rx_bits))
        redraws += res.redraws
    assert errors == sweep.points[-1].bit_errors
    assert redraws == sweep.redraws


REDRAW_CASES = {
    # golden case, 6 redraws: the first ports never degenerate in selection
    "mmse-first-golden": (CONFIGS["mmse-first-redraws-16qam"], "screen"),
    "zf-first": (dict(w1=0.05, w2=0.05, portsel="first", trials=600,
                      snr_db=(0.0, 90.0), master_seed=5), "screen"),
    # at 0.0015 wavelengths most MCE-TMD selections degenerate
    "zf-mce-tmd": (dict(w1=0.0015, w2=0.0015, portsel="mce-tmd", trials=300,
                        snr_db=(0.0, 90.0), master_seed=5), "both"),
}


@pytest.mark.parametrize("name", sorted(REDRAW_CASES))
def test_redraws_are_split_by_cause(name, monkeypatch):
    shape, causes = REDRAW_CASES[name]
    cfg = SimConfig(**shape)
    # the trials drawn again, counted where they are drawn
    redrawn = []
    draw = simulate._draw_and_screen

    def counted_draw(cfg, ports, trials, n0, redraw=0):
        if redraw:
            redrawn.append(trials.size)
        return draw(cfg, ports, trials, n0, redraw)

    monkeypatch.setattr(simulate, "_draw_and_screen", counted_draw)
    sweep = run_ber_sweep(cfg)
    assert sweep.selection_redraws + sweep.screen_redraws == sum(redrawn)
    assert sweep.screen_redraws > 0
    assert (sweep.selection_redraws > 0) == (causes == "both")
    if name == "mmse-first-golden":
        assert sweep.redraws == GOLDEN[STREAM_VERSION][
            "mmse-first-redraws-16qam"][0] == 6
        ratios = run_ratio_sweep(cfg)
        assert (ratios.redraws, ratios.selection_redraws,
                ratios.screen_redraws) == (sweep.redraws, 0, sweep.redraws)


@pytest.mark.parametrize("portsel,first_failed", [("tmd", 1), ("first", 0)])
def test_redraw_exhaustion_names_the_first_failed_trial(portsel, first_failed):
    # at a thousandth of a wavelength every channel is near rank one; under
    # TMD trial 0 finds a precodable draw within its redraws, trial 1 does not
    cfg = SimConfig(w1=0.001, w2=0.001, portsel=portsel, trials=50,
                    snr_db=(10.0,))
    with pytest.raises(NumericalError,
                       match=f"^trial {first_failed} still degenerate "
                             f"after 8 redraws$"):
        run_ber_sweep(cfg)


def _detector_batch(precoder, rows, seed=3):
    """Precoded 16-QAM receive vectors at 5 dB over random 4 x 6 channels,
    with the factor (U, d) of the gain matrices (None for ZF) as the detect
    stage takes it."""
    g = np.random.Generator(np.random.Philox(seed))
    h_sel = (g.standard_normal((rows, 4, 6))
             + 1j * g.standard_normal((rows, 4, 6))) / np.sqrt(2.0)
    wu = (g.standard_normal((rows, 4))
          + 1j * g.standard_normal((rows, 4))) / np.sqrt(2.0)
    points = build_qam(16).points
    k_idx = g.integers(0, 4, rows)
    s = points[g.integers(0, 16, rows)]
    n0 = 10.0 ** -0.5
    if precoder == "zf":
        beta, inv, factor, failed = _precode_batch(SimConfig(), h_sel, n0)
        assert not failed.any()
        # the sent columns (H P) e_k, as the sweep builds them
        cols = zf_sent_columns(h_sel, inv, beta, k_idx)
    else:
        u, lam = mmse_factor(h_sel)
        d, beta = mmse_scales(lam, 4 * n0)
        factor = u, d
        hp = beta[:, None, None] * gain_matrices(u, d)
        cols = np.take_along_axis(hp, k_idx[:, None, None], axis=2)[:, :, 0]
    return (_receive_batch(cols, s, wu, n0), beta, factor, points)


@pytest.mark.parametrize("precoder", ["zf", "mmse"])
@pytest.mark.parametrize("rows, gamma, branches", [
    (300, 0.6, "both"),
    (300, 1.0, "med"),       # empty joint-search subset
    (300, 0.0, "mld"),       # empty energy-detector subset
    (1, 0.6, "either"),
])
def test_gated_rttd_equals_both_branches_on_the_whole_batch(
        precoder, rows, gamma, branches):
    y, beta, factor, points = _detector_batch(precoder, rows)
    cfg = SimConfig(precoder=precoder, detector="rttd", gamma=gamma)
    coarse = energy_ratio(y) < gamma
    k_med, m_med = stage_med(y, beta, factor, points)
    k_mld, m_mld = mld(y, beta, factor, points)
    k_hat, m_hat, mask = _detect_batch("rttd", cfg, y, beta, factor, points)
    assert np.array_equal(mask, coarse)
    assert np.array_equal(k_hat, np.where(coarse, k_med, k_mld))
    assert np.array_equal(m_hat, np.where(coarse, m_med, m_mld))
    taken = {"both": 0 < coarse.sum() < rows, "med": coarse.all(),
             "mld": not coarse.any(), "either": True}
    assert taken[branches]


@pytest.mark.parametrize("w, portsel", [(1.0, "tmd"), (0.05, "first")])
def test_zf_sent_columns_equal_the_one_channel_precoder(w, portsel):
    # the sweep keeps beta and the sent column (H P) e_k = H (P e_k) of each
    # trial, never H P; on engine draws its beta is zf_precoder's, bit for
    # bit, and its column is zf_precoder's (H P) e_k up to rounding. At
    # 0.05 wavelengths some Grams of the first 4 ports fail the screen, and
    # zf_precoder raises on exactly those rows.
    cfg = SimConfig(w1=w, w2=w, portsel=portsel, master_seed=13).validate()
    ports = _port_model(cfg)
    degenerate, ill, (bits, _, hb, beta, col) = simulate._draw_and_screen(
        cfg, ports, np.arange(600), 1.0)
    idx = _select_indices(cfg, hb, ports[1])[0]
    h_sel = np.take_along_axis(hb, idx[:, None, :], axis=2)
    k = bits_to_indices(bits, cfg.spatial_bits)[0]
    assert not degenerate.any()
    assert ill.any() == (w < 1)
    for b in range(len(h_sel)):
        if ill[b]:
            with pytest.raises(SingularChannelError):
                zf_precoder(h_sel[b])
            continue
        ref = zf_precoder(h_sel[b])
        assert beta[b] == ref.beta
        assert (np.abs(col[b] - (h_sel[b] @ ref.matrix)[:, k[b]]).max()
                <= 1e-9 * ref.beta)


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-9,
                               atol=1e-9 * np.abs(want).max())


@pytest.mark.parametrize("rows", [1, 300])
@pytest.mark.parametrize("n_r, n_a", [(4, 6), (8, 10)])
@pytest.mark.parametrize("snr_db", [-5.0, 10.0, 30.0, 60.0])
def test_mmse_svd_route_matches_scalar_precoder(rows, n_r, n_a, snr_db):
    g = np.random.Generator(np.random.Philox(7 * n_r + rows))
    h_sel = (g.standard_normal((rows, n_r, n_a))
             + 1j * g.standard_normal((rows, n_r, n_a))) / np.sqrt(2.0)
    noise = NoiseModel.from_snr_db(snr_db)
    u, lam = mmse_factor(h_sel)
    d, beta = mmse_scales(lam, n_r * noise.n0)
    gain = gain_matrices(u, d)
    hp = beta[:, None, None] * gain
    assert np.isfinite(beta).all()
    for b in range(rows):
        ref = mmse_precoder(h_sel[b], noise)
        assert beta[b] == pytest.approx(ref.beta, rel=1e-9)
        _assert_close(gain[b], effective_gain_matrix(h_sel[b], noise))
        _assert_close(hp[b], h_sel[b] @ ref.matrix)
    # P = beta H^H U diag(1 / (lambda + N_r N_0)) U^H from the same factors
    inv = (u / (lam + n_r * noise.n0)[:, None, :]) @ u.conj().transpose(0, 2, 1)
    p = beta[:, None, None] * (h_sel.conj().transpose(0, 2, 1) @ inv)
    _assert_close(hp, h_sel @ p)
    power = np.einsum("bij,bij->b", p, p.conj()).real
    np.testing.assert_allclose(power, n_r, rtol=1e-9)


def test_mmse_sweep_factors_each_batch_once(monkeypatch):
    # the golden redraw case: one batch of 400 trials, 6 of them redrawn
    calls = {"eigh": [], "svd": [], "solve": 0, "gains": 0, "ml_rows": 0}
    eigh, svd = np.linalg.eigh, np.linalg.svd
    gains, ml = precoding.effective_gain_matrix, simulate._mld_batch

    def counted_eigh(a, *args, **kwargs):
        if a.ndim == 3:  # not the port model's one correlation matrix
            calls["eigh"].append(a.shape[0])
        return eigh(a, *args, **kwargs)

    def counted_svd(a, *args, **kwargs):
        calls["svd"].append(a.shape[0])
        return svd(a, *args, **kwargs)

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        raise AssertionError("the MMSE sweep solves nothing")

    def counted_gains(*args):
        calls["gains"] += 1
        return gains(*args)

    def counted_ml(y, beta, factor, points):
        calls["ml_rows"] += y.shape[0]
        u, d = factor  # (U, d), not a gain matrix
        assert u.shape == (y.shape[0], cfg.n_r, cfg.n_r)
        assert d.shape == y.shape
        return ml(y, beta, factor, points)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(precoding, "effective_gain_matrix", counted_gains)
    monkeypatch.setattr(simulate, "_mld_batch", counted_ml)
    cfg = SimConfig(**CONFIGS["mmse-first-redraws-16qam"])
    multi = run_ber_sweep_multi(cfg, ("mld", "med", "rttd"))
    sweep = multi["rttd"]
    assert sweep.redraws == 6 and calls["solve"] == 0
    # one factorization of the batch, then one per redraw attempt on its
    # trials only: eigh of every row, and the SVD of the rows above the
    # eigh bound, here every row of the 0.05-wavelength aperture
    assert calls["eigh"][0] == cfg.trials
    assert sum(calls["eigh"][1:]) == sweep.redraws
    assert len(calls["svd"]) == len(calls["eigh"])
    assert calls["svd"][0] == cfg.trials
    assert sum(calls["svd"][1:]) == sweep.redraws
    # the ML search takes every MLD row and some of RTTD's, each on its
    # rows of the factor: no gain matrix is formed
    rows = cfg.trials * len(cfg.snr_db)
    assert rows < calls["ml_rows"] < 2 * rows
    assert calls["gains"] == 0


def test_rttd_reports_energy_detector_rows_per_point():
    cfg = SimConfig(trials=2500, snr_db=(0.0, 10.0, 20.0), precoder="mmse",
                    portsel="tmd", mod_order=16, master_seed=4)
    multi = run_ber_sweep_multi(cfg, ("mld", "med", "rttd"))
    ratios = simulate._sweep(cfg, (), keep=("ratios",)).ratios.T
    want = tuple(int(np.count_nonzero(r < cfg.gamma)) for r in ratios)
    assert multi["rttd"].med_rows == want
    assert 0 < want[0] < want[-1] <= cfg.trials
    assert multi["mld"].med_rows is None and multi["med"].med_rows is None


def test_fold_keeps_the_trials_in_job_order(monkeypatch):
    # histograms and counts do not see the order of the batches; the kept
    # rows must still follow the trials, whichever thread ran each batch
    monkeypatch.setattr(simulate, "_BATCH", 64)
    monkeypatch.setenv("FARSM_THREADS", "2")
    cfg = SimConfig(trials=300, snr_db=(0.0, 10.0), portsel="tmd")
    tally = simulate._sweep(cfg, ("mld", "med"),
                            keep=("bits", "ratios", "rx"))
    assert tally.redraws == 0
    assert np.array_equal(tally.bits, _draw_trials(cfg, np.arange(300))[1])
    assert tally.ratios.shape == (300, 2)
    assert tally.rx.shape == (300, 2, 2, cfg.bits_per_use)
    for t in (0, 77, 299):
        assert np.array_equal(tally.rx[t, 0, 0],
                              run_trial(cfg, 0.0, t).rx_bits), t


def test_sweeps_keep_only_the_arrays_they_name(monkeypatch):
    # the ratio sweep holds no payload or decided bits, run_trial no
    # ratios, and a BER sweep no array at all
    tallies = {}
    sweep, run_batch = simulate._sweep, simulate._run_batch

    def spy_sweep(cfg, detectors, keep=()):
        tallies["sweep", keep] = tally = sweep(cfg, detectors, keep)
        return tally

    def spy_batch(cfg, ports, trials, detectors, keep=()):
        tallies["batch", keep] = tally = run_batch(cfg, ports, trials,
                                                   detectors, keep)
        return tally

    monkeypatch.setattr(simulate, "_sweep", spy_sweep)
    monkeypatch.setattr(simulate, "_run_batch", spy_batch)
    cfg = SimConfig(trials=40, snr_db=(0.0, 10.0), portsel="tmd")
    run_ratio_sweep(replace(cfg, precoder="mmse"))
    run_trial(cfg, 0.0, 3)
    run_ber_sweep(cfg)
    ratio = tallies["sweep", ("ratios",)]
    assert ratio.bits is None and ratio.rx is None
    assert ratio.channels is None and ratio.ratios.shape == (40, 2)
    trial = tallies["batch", ("bits", "rx")]
    assert trial.ratios is None and trial.channels is None
    ber = tallies["sweep", ()]
    assert all(getattr(ber, name) is None
               for name in ("bits", "ratios", "rx", "channels"))


def test_draw_channels_are_the_screened_first_port_draws():
    # draw_channels keeps the coloured draws a first-port ZF sweep keeps,
    # redrawn trials included, whatever selection and precoder cfg names
    cfg = SimConfig(w1=0.05, w2=0.05, trials=7, portsel="tmd",
                    precoder="mmse", baseline=True)
    drawn = simulate.draw_channels(cfg, 50)
    assert drawn.channels.shape == (50, 4, 16)
    assert drawn.screen_redraws == 2 and drawn.selection_redraws == 0
    first = replace(cfg, baseline=False, portsel="first", precoder="zf",
                    trials=50)
    model = build_correlation_model(port_coordinates(0.05, 0.05, 4, 4))
    hs = _draw_trials(first, np.arange(50))[0] @ model.root
    _, _, failed = zf_precoders(hs[:, :, :4])
    assert np.count_nonzero(failed) == 2
    assert np.allclose(drawn.channels[~failed], hs[~failed], rtol=0,
                       atol=1e-12)
    assert not np.allclose(drawn.channels[failed], hs[failed])
    with pytest.raises(ConfigError, match="draws must be >= 1"):
        simulate.draw_channels(cfg, 0)


def test_run_trial_is_reproducible():
    cfg = SimConfig(portsel="tmd")
    a = run_trial(cfg, 3.0, 41)
    b = run_trial(cfg, 3.0, 41)
    assert np.array_equal(a.tx_bits, b.tx_bits)
    assert np.array_equal(a.rx_bits, b.rx_bits)


def test_infinite_snr_is_noiseless(recwarn):
    for precoder in ("zf", "mmse"):
        sw = run_ber_sweep(SimConfig(trials=300, snr_db=(float("inf"),),
                                     portsel="tmd", precoder=precoder))
        assert sw.points[0].bit_errors == 0
    assert not recwarn.list


def test_multi_detector_rejects_repeated_names():
    cfg = SimConfig(trials=10, snr_db=(0.0, 15.0), portsel="tmd")
    with pytest.raises(ConfigError, match="'mld' is listed more than once"):
        run_ber_sweep_multi(cfg, ("mld", "med", "mld"))


def test_multi_detector_equals_single_runs():
    cfg = SimConfig(trials=1500, snr_db=(5.0,), precoder="mmse",
                    portsel="tmd")
    multi = run_ber_sweep_multi(cfg, ("mld", "med", "rttd"))
    for det, sweep in multi.items():
        single = run_ber_sweep(replace(cfg, detector=det))
        assert sweep == single


def test_ber_monotone_in_snr_smoke():
    sw = run_ber_sweep(SimConfig(trials=4000, snr_db=(0.0, 6.0, 12.0),
                                 portsel="tmd"))
    bers = [p.ber for p in sw.points]
    assert bers[0] > bers[-1]


def test_noiseless_mode_is_error_free():
    # 200 dB SNR: noise scaled by 1e-10, far below any decision boundary
    sw = run_ber_sweep(SimConfig(trials=400, snr_db=(200.0,), portsel="tmd",
                                 mod_order=64))
    assert sw.points[0].bit_errors == 0
    assert sw.points[0].ci_low == 0.0


def test_ratio_histograms_counts_and_edges():
    cfg = SimConfig(trials=2000, snr_db=(-5.0, 10.0), precoder="mmse",
                    portsel="tmd", bins=20)
    hists = run_ratio_sweep(cfg).histograms
    assert len(hists) == 2
    for h in hists:
        assert h.counts.sum() == h.total == 2000
        assert h.bin_edges.shape == (21,)
        assert (np.diff(h.bin_edges) > 0).all()
        assert h.bin_edges[0] == 0.0 and h.bin_edges[-1] == 1.0
        assert 0.0 <= h.median <= 1.0
    # low SNR skews high, high SNR skews low
    assert hists[0].median > hists[1].median


def test_ratio_histograms_single_point():
    cfg = SimConfig(precoder="mmse", portsel="tmd", bins=10, snr_db=(-5.0,),
                    trials=800)
    (h,) = run_ratio_sweep(cfg).histograms
    assert h.snr_db == -5.0
    assert h.total == 800


def test_ratio_histogram_requires_mmse():
    with pytest.raises(ConfigError, match="MMSE"):
        run_ratio_sweep(SimConfig(trials=10, precoder="zf", portsel="tmd"))


def test_baseline_has_no_selection_and_higher_errors():
    cfg = SimConfig(trials=5000, snr_db=(8.0,), portsel="tmd")
    fa = run_ber_sweep(cfg)
    bl = run_ber_sweep(replace(cfg, baseline=True))
    assert bl.variant == "rsm-zf-mld"
    assert bl.points[0].bit_errors > fa.points[0].bit_errors


def test_wide_aperture_first_ports_match_baseline():
    # W1=W2=50: ports decorrelate, so taking the first N_a ports is the
    # i.i.d. system in distribution; compare via confidence intervals
    cfg = SimConfig(trials=20_000, snr_db=(4.0,), w1=50.0, w2=50.0,
                    portsel="first")
    fa = run_ber_sweep(cfg).points[0]
    bl = run_ber_sweep(replace(cfg, baseline=True)).points[0]
    assert fa.ci_low < bl.ci_high and bl.ci_low < fa.ci_high


def test_write_ber_csv_schema(tmp_path):
    sw = run_ber_sweep(SimConfig(**FAST, trials=600))
    path = tmp_path / "out.csv"
    with open(path, "w") as fh:
        write_ber_csv(fh, [sw])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ("variant,snr_db,trials,bits,bit_errors,ber,ci_low,ci_high,"
                        "symbol_errors,ser")
    row = lines[1].split(",")
    assert row[0] == "fa-rsm-zf-tmd-mld"
    assert int(row[4]) == sw.points[0].bit_errors
    p = sw.points[0]
    assert int(row[8]) == p.symbol_errors > 0
    assert float(row[9]) == pytest.approx(p.symbol_errors / p.trials, rel=1e-9)


def test_berpoint_consistency():
    sw = run_ber_sweep(SimConfig(**FAST, trials=1000))
    p = sw.points[0]
    assert isinstance(p, BerPoint)
    assert p.ber == p.bit_errors / p.bits
    assert p.ci_low <= p.ber <= p.ci_high
    assert p.symbol_errors <= p.trials
    assert p.bit_errors <= p.symbol_errors * SimConfig().bits_per_use


def test_portsel_benchmark_counts():
    rows = portsel_benchmark(SimConfig(), repeats=5)
    by_name = {r.algorithm: r for r in rows}
    assert by_name["optimal"].evaluations == 1820
    assert by_name["tmd"].evaluations == 12
    assert by_name["mce-tmd"].evaluations == 12
    for r in rows:
        assert r.median_seconds > 0


def test_dump_channels_hook(tmp_path):
    path = tmp_path / "chan.csv"
    cfg = SimConfig(trials=3, snr_db=(5.0,), portsel="tmd",
                    dump_channels=str(path))
    run_ber_sweep(cfg)
    rows = np.loadtxt(path, delimiter=",")
    assert rows.shape == (3 * 4 * 16, 5)
    assert set(rows[:, 0]) == {0.0, 1.0, 2.0}
