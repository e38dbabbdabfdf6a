"""End-to-end acceptance checks for the whole simulator.

Each test covers one numbered acceptance item and prints a single
``[PASS]``/``[FAIL]`` line (routed past pytest's capture) with its wall time,
so a full run reads as a short scorecard. Runtime budgets are asserted.

The Monte Carlo items run at desk scale (1e5 trials per SNR point), where
curve orderings and dB gaps at BER 1e-3 are resolvable but absolute values
at 1e-4 and below are not.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import stage_med
from farsm.channel import SeededRng, restrict_to_ports, sample_correlated_channel
from farsm.correlation import build_correlation_model, port_coordinates
from farsm.detection import mld
from farsm.modulation import build_qam
from farsm.precoding import (NoiseModel, effective_gain_matrix, mmse_factor,
                             mmse_precoder, mmse_scales, zf_precoder)
from farsm.selection import (PortSet, initial_trace_state, smw_downdate,
                             tmd_select, tmd_trace_metric)
from farsm.simulate import (SimConfig, _receive_batch, run_ber_sweep,
                            run_ber_sweep_multi, run_ratio_sweep)
from farsm.theory import (NestedSetPair, mmse_mse, mmse_mse_difference,
                          zf_capacity_loss, zf_capacity_loss_bound)


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _run(num, label, budget_s):
        t0 = time.perf_counter()
        try:
            yield
            elapsed = time.perf_counter() - t0
            assert elapsed < budget_s, (
                f"acceptance {num} took {elapsed:.1f}s, budget {budget_s}s")
        except BaseException:
            elapsed = time.perf_counter() - t0
            with capsys.disabled():
                print(f"[FAIL] acceptance {num}: {label} ({elapsed:.1f}s)")
            raise
        with capsys.disabled():
            print(f"[PASS] acceptance {num}: {label} ({elapsed:.1f}s)")
    return _run


def _random_channel(rng, n_r, n):
    z = rng.standard_normal((2, n_r, n))
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


def snr_at_ber(points, target):
    """SNR (dB) where the measured curve crosses ``target``, interpolating
    linearly in log-BER."""
    pts = [(p.snr_db, p.ber) for p in points]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if y0 <= target and y0 > 0:
            return x0
        if y0 > target and 0.0 < y1 <= target:
            t = (math.log10(y0) - math.log10(target)) / (
                math.log10(y0) - math.log10(y1))
            return x0 + t * (x1 - x0)
    raise AssertionError(f"BER curve never crosses {target:g} inside the sweep")


# -- 1: rank-one downdate machinery -----------------------------------------

def test_downdate_state_matches_direct_inversion(announce):
    with announce(1, "greedy removal state and choices match direct inversion",
                  budget_s=30):
        rng = np.random.default_rng(101)
        for _ in range(500):
            h = _random_channel(rng, 4, 16)
            state = initial_trace_state(h)
            replayed = []
            while len(state.active) > 4:
                active = np.array(state.active)
                cols = h[:, active - 1]
                # oracle: invert every candidate's reduced Gram from scratch
                mats = np.stack([np.delete(cols, j, axis=1)
                                 for j in range(len(active))])
                grams = mats @ mats.conj().transpose(0, 2, 1)
                traces = np.trace(np.linalg.inv(grams), axis1=1, axis2=2).real
                order = np.sort(traces)
                tie_free = order[1] - order[0] > 1e-9 * max(1.0, order[0])

                metrics = [tmd_trace_metric(state, int(p), h) for p in active]
                chosen = int(active[int(np.argmin(metrics))])
                if tie_free:
                    assert chosen == int(active[int(np.argmin(traces))])
                replayed.append(chosen)

                state = smw_downdate(state, chosen, h)
                h_rest = restrict_to_ports(h, state.active)
                direct = np.linalg.inv(h_rest @ h_rest.conj().T)
                rel = (np.linalg.norm(state.inverse - direct)
                       / np.linalg.norm(direct))
                assert rel <= 1e-9, rel
            assert tmd_select(h, 4) == PortSet(state.active)


# -- 2: precoder identities ---------------------------------------------------

def test_precoder_identities_and_limit(announce):
    with announce(2, "precoder identities hold and MMSE degenerates to ZF",
                  budget_s=10):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            n_a = int(rng.integers(4, 9))
            h = _random_channel(rng, 4, n_a)
            zf = zf_precoder(h)
            assert abs(np.trace(zf.matrix @ zf.matrix.conj().T).real - 4) <= 1e-9
            resid = np.linalg.norm(h @ zf.matrix - zf.beta * np.eye(4))
            assert resid / zf.beta <= 1e-9

            noise = NoiseModel(float(rng.uniform(1e-3, 1.0)))
            mm = mmse_precoder(h, noise)
            assert abs(np.trace(mm.matrix @ mm.matrix.conj().T).real - 4) <= 1e-9
            gain = effective_gain_matrix(h, noise)
            assert np.linalg.norm(h @ mm.matrix - mm.beta * gain) <= 1e-9

        for _ in range(100):
            h = _random_channel(rng, 4, int(rng.integers(4, 9)))
            zf = zf_precoder(h)
            mm = mmse_precoder(h, NoiseModel(1e-12))
            gap = (np.linalg.norm(mm.matrix - zf.matrix)
                   / np.linalg.norm(zf.matrix))
            assert gap <= 1e-5, gap


# -- 3: noiseless exactness ---------------------------------------------------

def test_noiseless_detection_is_exact(announce):
    with announce(3, "noiseless runs decode every (antenna, symbol) pair",
                  budget_s=5):
        points = build_qam(4).points
        model = build_correlation_model(port_coordinates(1.0, 1.0, 4, 4))
        design = NoiseModel(1e-6)
        # every (antenna, symbol) pair, one per row
        k, m = np.divmod(np.arange(4 * points.size), points.size)
        rows = k.size
        for trial in range(30):
            rng = SeededRng(master_seed=33, stream_id=trial).generator()
            h = sample_correlated_channel(model, 4, rng)
            h_act = restrict_to_ports(h, tmd_select(h, 4))
            zf = zf_precoder(h_act)
            mm = mmse_precoder(h_act, design)
            # the gain matrix as its factor (U, d), as the detectors take it
            u, lam = mmse_factor(h_act[None])
            d = mmse_scales(lam, 4 * design.n0)[0]
            factor = (np.broadcast_to(u, (rows, 4, 4)),
                      np.broadcast_to(d, (rows, 4)))
            # unit noise is drawn and scaled by sqrt(n0) = 0
            z = rng.standard_normal((2, rows, 4))
            wu = (z[0] + 1j * z[1]) / np.sqrt(2.0)
            for p, g in ((zf, None), (mm, factor)):
                # the sent column (H P) e_k of each row
                y = _receive_batch((h_act @ p.matrix)[:, k].T, points[m], wu,
                                   0.0)
                beta = np.full(rows, p.beta)
                detectors = (mld, stage_med) if g is None else (mld,)
                for detect in detectors:
                    k_hat, m_hat = detect(y, beta, g, points)
                    assert np.array_equal(k_hat, k)
                    assert np.array_equal(m_hat, m)


# -- 4: channel statistics ----------------------------------------------------

def test_correlated_channel_statistics(announce):
    with announce(4, "sample covariance reproduces the port correlation",
                  budget_s=20):
        model = build_correlation_model(port_coordinates(1.0, 1.0, 4, 4))
        rng = SeededRng(master_seed=44, stream_id=0)
        rows = sample_correlated_channel(model, 100_000, rng)
        sample_cov = (rows.conj().T @ rows) / rows.shape[0]
        rel = (np.linalg.norm(sample_cov - model.matrix)
               / np.linalg.norm(model.matrix))
        assert rel <= 0.05, rel
        adjacent = float(sample_cov[0, 1].real)
        assert abs(adjacent - 0.413497) <= 0.01, adjacent


# -- 5: theory curve properties ----------------------------------------------

def test_theory_curves_have_claimed_shapes(announce):
    with announce(5, "capacity-loss and MSE curves behave as derived",
                  budget_s=30):
        model = build_correlation_model(port_coordinates(1.0, 1.0, 4, 4))
        full = PortSet(range(1, 17))
        pairs = [NestedSetPair(inner=PortSet(range(1, 5)), outer=full),
                 NestedSetPair(inner=PortSet(range(1, 5)),
                               outer=PortSet(range(1, 9))),
                 NestedSetPair(inner=PortSet(range(5, 9)), outer=full)]
        n0_grid = np.logspace(1.0, -6.0, 40)  # SNR -10 dB up to 60 dB
        for draw in range(50):
            rng = SeededRng(master_seed=55, stream_id=draw)
            h = sample_correlated_channel(model, 4, rng)

            losses = [zf_capacity_loss(h, pairs[0], NoiseModel(n0))
                      for n0 in n0_grid]
            assert np.all(np.diff(losses) >= -1e-12)  # shrinks as noise grows
            bound = zf_capacity_loss_bound(h, pairs[0])
            assert losses[-1] < bound
            assert (bound - losses[-1]) / bound <= 1e-3

            mses = [mmse_mse(h, PortSet(range(1, na + 1)), NoiseModel(0.1))
                    for na in (4, 6, 8, 10, 16)]
            assert np.all(np.diff(mses) < 0)  # more ports, lower MSE
            over_snr = [mmse_mse(h, pairs[0].inner, NoiseModel(n0))
                        for n0 in n0_grid]
            assert np.all(np.diff(over_snr) < 0)  # higher SNR, lower MSE

            for pair in pairs:
                assert mmse_mse_difference(h, pair, NoiseModel(0.1)) > 0


# -- 6: Monte Carlo orderings -------------------------------------------------

SNR_GRID = (0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0)
DESK_TRIALS = 100_000


def test_ber_orderings_at_desk_scale(announce):
    with announce(6, "BER curves show the claimed orderings and dB gaps",
                  budget_s=900):
        base = dict(snr_db=SNR_GRID, trials=DESK_TRIALS, master_seed=7)
        zf_opt = run_ber_sweep_multi(
            SimConfig(**base, portsel="optimal"), ("mld", "med"))
        zf_tmd = run_ber_sweep(SimConfig(**base, portsel="tmd"))
        zf_mce = run_ber_sweep(SimConfig(**base, portsel="mce-tmd"))
        mmse = run_ber_sweep_multi(
            SimConfig(**base, precoder="mmse", portsel="optimal",
                      select_snr_db=18.0, gamma=0.6),
            ("mld", "med", "rttd"))
        baseline = run_ber_sweep(SimConfig(**base, baseline=True))

        # (a) the fluid antenna beats fixed antennas at every SNR point
        for fa, rsm in zip(zf_opt["mld"].points, baseline.points):
            assert fa.ci_high < rsm.ci_low, fa.snr_db

        # (b) optimal <= tmd <= mce-tmd, compatible with the intervals,
        # and the greedy selectors stay close at BER 1e-3
        for opt, tmd, mce in zip(zf_opt["mld"].points, zf_tmd.points,
                                 zf_mce.points):
            assert opt.ci_low <= tmd.ci_high, opt.snr_db
            assert tmd.ci_low <= mce.ci_high, tmd.snr_db
        ref = snr_at_ber(zf_opt["mld"].points, 1e-3)
        assert snr_at_ber(zf_tmd.points, 1e-3) - ref <= 1.0
        assert snr_at_ber(zf_mce.points, 1e-3) - ref <= 1.5

        # (c) energy detection collapses under MMSE but not under ZF
        for lo, hi in zip(mmse["mld"].points, mmse["med"].points):
            if lo.snr_db >= 10.0:
                assert hi.ci_low > lo.ci_high, lo.snr_db
        gap = abs(snr_at_ber(zf_opt["med"].points, 1e-3)
                  - snr_at_ber(zf_opt["mld"].points, 1e-3))
        assert gap <= 0.3, gap

        # (d) the ratio test detector hugs full ML under MMSE
        gap = abs(snr_at_ber(mmse["rttd"].points, 1e-3)
                  - snr_at_ber(mmse["mld"].points, 1e-3))
        assert gap <= 0.3, gap


# -- 7: energy ratio histogram ------------------------------------------------

def test_ratio_histogram_skew_directions(announce):
    with announce(7, "energy ratio concentrates only at high SNR",
                  budget_s=120):
        cfg = SimConfig(precoder="mmse", portsel="tmd",
                        snr_db=(-5.0, 10.0), trials=1_000_000, master_seed=11)
        low, high = run_ratio_sweep(cfg).histograms
        assert low.total == high.total == 1_000_000
        assert low.median > 0.5, low.median
        assert high.median < 0.5, high.median


# -- 8: ratio test interpolates its parents ----------------------------------

def test_rttd_extremes_are_bit_identical(announce):
    with announce(8, "gamma 0/1 reproduce pure ML / pure energy detection",
                  budget_s=60):
        base = dict(precoder="mmse", portsel="tmd",
                    snr_db=(0.0, 5.0, 10.0), trials=20_000, master_seed=3)
        always_mld = run_ber_sweep(SimConfig(**base, detector="rttd",
                                             gamma=0.0))
        always_med = run_ber_sweep(SimConfig(**base, detector="rttd",
                                             gamma=1.0))
        mld = run_ber_sweep(SimConfig(**base, detector="mld"))
        med_ = run_ber_sweep(SimConfig(**base, detector="med"))
        assert always_mld.points == mld.points
        assert always_med.points == med_.points


# -- 9: diminishing returns from extra active ports ---------------------------

def test_more_active_ports_help_with_diminishing_returns(announce):
    with announce(9, "extra active ports help less and less, more so when packed",
                  budget_s=600):
        def curve(width):
            pts = []
            for n_a in (4, 6, 8, 10):
                cfg = SimConfig(w1=width, w2=width, n_a=n_a, portsel="tmd",
                                snr_db=(5.0,), trials=200_000, master_seed=17)
                pts.append(run_ber_sweep(cfg).points[0])
            return pts

        total = {}
        for width in (0.5, 2.0):
            pts = curve(width)
            slack = max((p.ci_high - p.ci_low) / 2 for p in pts)
            bers = [p.ber for p in pts]
            assert np.all(np.diff(bers) <= 0), (width, bers)
            gains = -np.diff(bers)
            assert np.all(np.diff(gains) <= slack), (width, gains)
            total[width] = bers[0] - bers[-1]
        assert total[0.5] > total[2.0], total
