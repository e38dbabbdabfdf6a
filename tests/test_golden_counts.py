"""Golden results: exact seeded outputs of small sweeps.

Each BER case pins the (bit_errors, symbol_errors) of every SNR point, for
MLD, MED and RTTD scored in one pass, plus the number of redraws. Each
ratio-histogram case pins the bin counts of every point exactly and its
median to 1e-6 relative. The BER counts were recorded before the RTTD
gating and the once-per-batch MMSE Gram, the histograms before MMSE
precoding moved to one SVD per batch. That route changes the MMSE gains
in their last digits and no count pinned here; one median, where the
old per-point solve was itself inaccurate, is pinned to a high-precision
value instead. Any change that keeps the random streams must reproduce
these results; a change that alters the streams on purpose records a new
stream version and new values here.
"""

import pytest

from farsm.simulate import (SimConfig, _run_batches, ratio_histograms,
                            run_ber_sweep_multi)

DETECTORS = ("mld", "med", "rttd")

# name: (config, redraws, {detector: [(bit_errors, symbol_errors), ...]})
GOLDEN = {
    "zf-tmd-4qam": (
        dict(precoder="zf", portsel="tmd", mod_order=4, trials=3000,
             snr_db=(0.0, 5.0, 10.0, 12.5), master_seed=11),
        0, {
            "mld": [(1961, 936), (227, 100), (0, 0), (0, 0)],
            "med": [(2056, 974), (255, 110), (0, 0), (0, 0)],
            "rttd": [(1959, 935), (229, 101), (0, 0), (0, 0)],
        }),
    "zf-optimal-4qam": (
        dict(precoder="zf", portsel="optimal", mod_order=4, trials=600,
             snr_db=(0.0, 5.0, 10.0), master_seed=12),
        0, {
            "mld": [(361, 181), (17, 10), (0, 0)],
            "med": [(375, 190), (25, 13), (0, 0)],
            "rttd": [(361, 181), (17, 10), (0, 0)],
        }),
    "mmse-mce-tmd-64qam": (
        dict(precoder="mmse", portsel="mce-tmd", n_b=12, mod_order=64,
             trials=2500, snr_db=(0.0, 10.0, 20.0, 25.0), master_seed=13),
        0, {
            "mld": [(4896, 2055), (1233, 957), (12, 11), (0, 0)],
            "med": [(5200, 2092), (1236, 963), (15, 12), (0, 0)],
            "rttd": [(5037, 2081), (1236, 963), (12, 11), (0, 0)],
        }),
    "mmse-optimal-16qam": (
        dict(precoder="mmse", portsel="optimal", select_snr_db=10.0,
             mod_order=16, trials=600, snr_db=(5.0, 10.0, 15.0),
             master_seed=14),
        0, {
            "mld": [(177, 122), (28, 20), (0, 0)],
            "med": [(239, 141), (77, 38), (26, 10)],
            "rttd": [(203, 127), (41, 28), (6, 2)],
        }),
    "mmse-first-redraws-16qam": (
        dict(w1=0.05, w2=0.05, precoder="mmse", portsel="first",
             mod_order=16, trials=400, snr_db=(0.0, 30.0, 90.0, 120.0),
             master_seed=5),
        6, {
            "mld": [(706, 241), (21, 10), (2, 1), (0, 0)],
            "med": [(983, 314), (468, 159), (34, 12), (0, 0)],
            "rttd": [(840, 276), (197, 66), (6, 3), (0, 0)],
        }),
    "zf-baseline-16qam-gamma0": (
        dict(baseline=True, precoder="zf", mod_order=16, gamma=0.0,
             trials=1500, snr_db=(5.0, 15.0), master_seed=15),
        0, {
            "mld": [(2654, 1098), (609, 318)],
            "med": [(2671, 1100), (611, 317)],
            "rttd": [(2654, 1098), (609, 318)],
        }),
    "mmse-baseline-64qam-gamma1": (
        dict(baseline=True, precoder="mmse", mod_order=64, gamma=1.0,
             trials=1500, snr_db=(10.0, 25.0), master_seed=16),
        0, {
            "mld": [(1048, 757), (89, 76)],
            "med": [(1264, 838), (107, 80)],
            "rttd": [(1264, 838), (107, 80)],
        }),
    "mmse-tmd-nr8-16qam": (
        dict(n_r=8, n_a=8, precoder="mmse", portsel="tmd", mod_order=16,
             trials=1200, snr_db=(0.0, 5.0, 10.0), master_seed=17),
        0, {
            "mld": [(1014, 458), (324, 174), (59, 29)],
            "med": [(1374, 578), (426, 222), (73, 40)],
            "rttd": [(1094, 508), (354, 198), (69, 39)],
        }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_counts(name):
    config, redraws, expected = GOLDEN[name]
    res = run_ber_sweep_multi(SimConfig(**config), DETECTORS)
    for det in DETECTORS:
        got = [(p.bit_errors, p.symbol_errors) for p in res[det].points]
        assert got == expected[det], det
        assert res[det].redraws == redraws


# name: (config, redraws, [(snr_db, median, leading bin counts), ...]);
# bins past the listed ones are empty
GOLDEN_HISTOGRAMS = {
    "mmse-tmd": (
        dict(precoder="mmse", portsel="tmd", trials=2000,
             snr_db=(0.0, 5.0, 10.0, 15.0), master_seed=21),
        0, [
            (0.0, 0.3671250159197128, [
                5, 19, 23, 45, 60, 68, 62, 77, 88, 63, 67, 64, 61, 61, 54, 63,
                54, 50, 38, 61, 49, 58, 44, 40, 52, 35, 32, 30, 42, 31, 28, 39,
                36, 17, 32, 24, 20, 25, 30, 24, 22, 29, 18, 32, 24, 27, 14, 33,
                12, 18]),
            (5.0, 0.15333129413993035, [
                25, 91, 154, 178, 155, 160, 154, 131, 120, 109, 98, 69, 71, 46,
                46, 30, 32, 32, 36, 25, 19, 23, 17, 18, 24, 12, 10, 6, 7, 4, 5,
                5, 8, 7, 8, 4, 5, 9, 4, 3, 5, 3, 4, 9, 3, 7, 4, 2, 1, 2]),
            (10.0, 0.055212681580381014, [
                205, 469, 430, 321, 173, 136, 86, 60, 36, 22, 14, 14, 7, 8, 2,
                5, 4, 4, 0, 1, 1, 0, 0, 1, 0, 1]),
            (15.0, 0.018362318810859417, [1107, 657, 171, 47, 11, 6, 1]),
        ]),
    "mmse-first-redraws": (
        dict(w1=0.05, w2=0.05, precoder="mmse", portsel="first", trials=400,
             snr_db=(0.0, 60.0, 120.0), master_seed=5),
        6, [
            (0.0, 0.6168461956109303, [
                0, 0, 0, 0, 2, 4, 2, 2, 1, 6, 6, 7, 4, 5, 6, 7, 9, 10, 10, 10,
                9, 11, 12, 9, 6, 11, 9, 9, 10, 13, 11, 16, 14, 10, 11, 6, 13,
                5, 16, 10, 10, 10, 10, 15, 10, 11, 9, 7, 7, 9]),
            (60.0, 0.2061256833976876, [
                14, 25, 28, 27, 22, 14, 22, 16, 13, 15, 14, 16, 10, 5, 12, 13,
                6, 6, 8, 7, 7, 10, 4, 3, 4, 4, 5, 3, 2, 3, 4, 4, 1, 5, 7, 3, 2,
                2, 7, 4, 2, 2, 3, 5, 3, 2, 1, 3, 1, 1]),
            # the median recorded with the per-point solve, 3.862905e-4,
            # was 1.9e-5 off: this one is a 50-digit evaluation of the same
            # selected channels, noise and payloads
            (120.0, 0.0003862980622548122, [397, 2, 0, 1]),
        ]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_HISTOGRAMS))
def test_golden_ratio_histograms(name):
    config, redraws, expected = GOLDEN_HISTOGRAMS[name]
    cfg = SimConfig(**config)
    hists = ratio_histograms(cfg)
    assert [h.snr_db for h in hists] == [e[0] for e in expected]
    for h, (snr, median, lead) in zip(hists, expected):
        counts = h.counts.tolist()
        assert counts == lead + [0] * (cfg.bins - len(lead)), snr
        assert h.median == pytest.approx(median, rel=1e-6), snr
    assert _run_batches(cfg, ())[1] == redraws
