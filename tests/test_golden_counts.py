"""Golden error counts: exact seeded results of small sweeps.

Each case pins the (bit_errors, symbol_errors) of every SNR point, for MLD,
MED and RTTD scored in one pass, plus the number of redraws. The counts were
recorded before the RTTD gating and the once-per-batch MMSE Gram, and any
change that keeps the random streams must reproduce them exactly. A change
that alters the streams on purpose records a new stream version and new
counts here.
"""

import pytest

from farsm.simulate import SimConfig, run_ber_sweep_multi

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
