"""Monte Carlo engine: BER sweeps, ratio histograms, selection benchmarks.

Every trial owns a counter-based random stream keyed by the master seed and
the trial index, so results are bit-identical for a given seed no matter how
trials are batched or parallelized, and a failed trial can be re-drawn from
a derived sub-stream without disturbing its neighbours. One trial draws, in
fixed order: the channel, the payload bits, and a unit noise vector that is
scaled per SNR point. Sharing the channel draw across the SNR grid makes the
sweep a common-random-numbers design: each point remains an independent
estimate, but curve shapes and curve-to-curve gaps are far less noisy.

The public entry points accept a :class:`SimConfig`; trials are processed in
fixed-size batches through vectorized selection / precoding / detection
kernels. The detectors and the bit mapping are the stacked kernels of
:mod:`farsm.detection` and :mod:`farsm.modulation`, and :func:`run_trial`
runs a batch of one through the same stages as the sweep.
A batch draws its trials through one Philox generator re-keyed to each
trial's stream, which yields exactly the values of a fresh per-trial
generator; keying streams by blocks of trials instead would vectorize the
draws but change every seeded result. The ZF precoder does not depend on
the noise level, so a batch builds it once, at the precodability screen,
and rebuilds it only when failed trials were re-drawn. MMSE takes one SVD
of the selected channels per batch, after any redraws, and builds G and
beta at each SNR point by rescaling the eigenvalues sigma^2 of H H^H.
RTTD runs the joint ML search only on the rows its ratio test sends there
and reports, per point, how many rows the energy detector decided.
``FARSM_THREADS`` caps how many worker threads run batches concurrently
(default 1); the reduction is a sum of per-batch integer counters, so the
thread count never changes results.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from farsm.channel import (SeededRng, dump_channels_csv,
                           sample_correlated_channel)
from farsm.correlation import (SortedPairArrays, build_correlation_model,
                               port_coordinates, sorted_pair_correlations)
from farsm.errors import ConfigError, NumericalError
from farsm.detection import energy_ratio, med
# every ML search runs through this module global, which the benchmark's
# tracer patches to count the rows that reach it
from farsm.detection import mld as _mld_batch
from farsm.modulation import bits_to_indices, build_qam, indices_to_bits
from farsm.precoding import NoiseModel, _screened_hermitian_inverse
from farsm.selection import (_batch_mce_stage1, _batch_optimal, _batch_tmd,
                             mce_tmd_select, optimal_select, tmd_select)

_BATCH = 2048
_MAX_REDRAWS = 8

_PRECODERS = ("zf", "mmse")
_PORTSELS = ("optimal", "tmd", "mce-tmd", "first")
_DETECTORS = ("mld", "med", "rttd")

# stream-id layout: bits 0..39 trial, 40..47 redraw attempt, 48..55 purpose
PURPOSE_TRIAL = 0
PURPOSE_THEORY = 1
PURPOSE_BENCH = 2


def stream_id(trial: int, redraw: int = 0, purpose: int = PURPOSE_TRIAL) -> int:
    """Pack a (trial, redraw, purpose) triple into a 64-bit stream id."""
    if not 0 <= trial < (1 << 40):
        raise ValueError(f"trial index {trial} out of range")
    if not 0 <= redraw < (1 << 8):
        raise ValueError(f"redraw count {redraw} out of range")
    return trial | (redraw << 40) | (purpose << 48)


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulated link.

    Defaults follow the reference setup: a 4 x 4 port grid on a one-by-one
    wavelength surface, four receive antennas, four active ports, 4-QAM.
    ``baseline`` replaces the fluid antenna with N_a fixed uncorrelated
    transmit antennas (no selection), the traditional benchmark.
    """

    w1: float = 1.0
    w2: float = 1.0
    n1: int = 4
    n2: int = 4
    n_r: int = 4
    n_a: int = 4
    n_b: int = 12
    mod_order: int = 4
    precoder: str = "zf"
    portsel: str = "optimal"
    detector: str = "mld"
    gamma: float = 0.6
    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0)
    trials: int = 100_000
    master_seed: int = 0
    baseline: bool = False
    select_snr_db: float | None = None
    bins: int = 50
    dump_channels: str | None = None

    @property
    def n_ports(self) -> int:
        return self.n1 * self.n2

    @property
    def spatial_bits(self) -> int:
        return self.n_r.bit_length() - 1

    @property
    def symbol_bits(self) -> int:
        return self.mod_order.bit_length() - 1

    @property
    def bits_per_use(self) -> int:
        return self.spatial_bits + self.symbol_bits

    def validate(self) -> "SimConfig":
        if self.n1 < 1 or self.n2 < 1:
            raise ConfigError(f"port counts must be >= 1, got {self.n1}x{self.n2}")
        if not (0 < self.w1 < math.inf and 0 < self.w2 < math.inf):
            raise ConfigError(
                f"surface extents must be finite and > 0, got {self.w1}x{self.w2}")
        if self.n_r < 2 or self.n_r & (self.n_r - 1):
            raise ConfigError(
                f"N_r must be a power of two >= 2 for whole-bit spatial "
                f"mapping, got {self.n_r}")
        if self.mod_order not in (4, 16, 64):
            raise ConfigError(f"mod_order must be 4, 16 or 64, got {self.mod_order}")
        if self.n_a < self.n_r:
            raise ConfigError("N_a must be >= N_r for precoder invertibility")
        if not self.baseline and self.n_a > self.n_ports:
            raise ConfigError(
                f"N_a={self.n_a} exceeds the port count N={self.n_ports}")
        if self.precoder not in _PRECODERS:
            raise ConfigError(f"precoder must be one of {_PRECODERS}")
        if self.portsel not in _PORTSELS:
            raise ConfigError(f"portsel must be one of {_PORTSELS}")
        if self.detector not in _DETECTORS:
            raise ConfigError(f"detector must be one of {_DETECTORS}")
        if not self.baseline and self.portsel == "mce-tmd" and not (
                self.n_a < self.n_b < self.n_ports):
            raise ConfigError(
                f"two-stage selection needs N > N_b > N_a, got "
                f"N={self.n_ports}, N_b={self.n_b}, N_a={self.n_a}")
        if not self.baseline and self.portsel == "optimal" and self.n_ports > 20:
            raise ConfigError(
                "exhaustive selection is limited to N <= 20 ports; "
                "use tmd or mce-tmd")
        if not self.baseline and self.portsel == "optimal" and self.n_r > 8:
            # the k x k minor tables behind exhaustive scoring hold
            # C(N_r, k) C(N, k) entries per trial: gigabytes at N_r = 16
            raise ConfigError(
                "exhaustive selection is limited to N_r <= 8; "
                "use tmd or mce-tmd")
        if (not self.baseline and self.portsel == "optimal"
                and self.precoder == "mmse" and self.select_snr_db is None):
            raise ConfigError(
                "select_snr_db is required when combining MMSE precoding "
                "with exhaustive selection (its capacity depends on the "
                "noise level)")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")
        if len(self.snr_db) == 0:
            raise ConfigError("at least one SNR point is required")
        # +inf is the noiseless point; NaN and -inf give no noise level
        if not all(-math.inf < s <= math.inf for s in self.snr_db):
            raise ConfigError(
                f"SNR points must not be NaN or -inf, got {self.snr_db}")
        if self.select_snr_db is not None and not math.isfinite(
                self.select_snr_db):
            raise ConfigError(
                f"select_snr_db must be finite, got {self.select_snr_db}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed < (1 << 64):
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        if self.bins < 1:
            raise ConfigError(f"bins must be >= 1, got {self.bins}")
        return self

    @property
    def variant(self) -> str:
        if self.baseline:
            return f"rsm-{self.precoder}-{self.detector}"
        return f"fa-rsm-{self.precoder}-{self.portsel}-{self.detector}"


@dataclass(frozen=True)
class BerPoint:
    """Error counts at one SNR point, with a 95% Wilson interval on the BER."""

    snr_db: float
    trials: int
    bits: int
    bit_errors: int
    symbol_errors: int
    ber: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class SweepResult:
    """Per-point counts of one detector; ``med_rows`` is RTTD's count of
    decisions taken by the cheap energy detector at each point (None for
    the other detectors)."""

    variant: str
    points: tuple[BerPoint, ...]
    redraws: int
    med_rows: tuple[int, ...] | None = None


@dataclass(frozen=True)
class RatioHistogram:
    """Distribution of the second-to-first receive energy ratio at one SNR."""

    snr_db: float
    bin_edges: np.ndarray
    counts: np.ndarray
    total: int
    median: float


_Z95 = 1.959963984540054


def wilson_interval(errors: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("sample count must be positive")
    p = errors / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    lo = 0.0 if errors == 0 else max(center - half, 0.0)
    hi = 1.0 if errors == n else min(center + half, 1.0)
    return lo, hi


def _popcount_sum(values: np.ndarray) -> int:
    """Total set bits across an integer array."""
    total = 0
    v = values.copy()
    while v.any():
        total += int((v & 1).sum())
        v >>= 1
    return total


def worker_count() -> int:
    """Worker-thread cap from FARSM_THREADS (default 1)."""
    raw = os.environ.get("FARSM_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"FARSM_THREADS must be a positive integer, got {raw!r}")
    return n


# ---------------------------------------------------------------------------
# batched trial pipeline
# ---------------------------------------------------------------------------

def _draw_trials(cfg: SimConfig, trials: np.ndarray, redraw: int = 0):
    """Per-trial stream draws for a batch: channel factor, bits, unit noise.

    Trial t reads the stream SeededRng(master_seed, stream_id(t, redraw)) in
    fixed order: 2 N_r N normals for the channel, the payload bits as
    ``integers(0, 2, dtype=uint8)`` would draw them, and 2 N_r normals for
    the noise. One Philox serves the whole batch: before each trial it is
    re-keyed to a state equal to that of a fresh ``Philox(key=...)``, so no
    per-trial generator is built and every value matches SeededRng's.
    """
    n_cols = cfg.n_a if cfg.baseline else cfg.n_ports
    b = trials.size
    zh = np.empty((b, 2, cfg.n_r, n_cols))
    zw = np.empty((b, 2, cfg.n_r))
    words = -(-cfg.bits_per_use // 8)
    raw = np.empty((b, words), dtype=np.uint64)
    bitgen = np.random.Philox(key=0)
    g = np.random.Generator(bitgen)
    key = np.array([cfg.master_seed, 0], dtype=np.uint64)
    fresh = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for i, t in enumerate(trials.tolist()):
        key[1] = stream_id(t, redraw)
        bitgen.state = fresh
        g.standard_normal(out=zh[i])
        raw[i] = bitgen.random_raw(words)
        g.standard_normal(out=zw[i])
    bits = _payload_bits(raw, cfg.bits_per_use)
    zh *= 1.0 / math.sqrt(2.0)
    zw *= 1.0 / math.sqrt(2.0)
    hw = np.empty((b, cfg.n_r, n_cols), dtype=complex)
    hw.real, hw.imag = zh[:, 0], zh[:, 1]
    wu = np.empty((b, cfg.n_r), dtype=complex)
    wu.real, wu.imag = zw[:, 0], zw[:, 1]
    return hw, bits, wu


def _payload_bits(raw: np.ndarray, n_bits: int) -> np.ndarray:
    """(B, n_bits) uint8 bits from (B, ceil(n_bits / 8)) raw Philox words.

    ``Generator.integers(0, 2, dtype=uint8)`` takes bit j from the top bit
    of byte j of the 32-bit halves of the raw 64-bit outputs, low half
    first (Lemire's bounded draw with range 2 never rejects). That is bit
    8 (j % 8) + 7 of word j // 8. A half word it leaves buffered is never
    read, since the noise normals that follow consume whole 64-bit words.
    """
    j = np.arange(n_bits)
    shift = (8 * (j % 8) + 7).astype(np.uint64)
    return ((raw[:, j // 8] >> shift) & np.uint64(1)).astype(np.uint8)


def _port_model(cfg: SimConfig):
    """(root, pairs) for drawing and selecting: the correlation root that
    colours a channel draw, and MCE-TMD's ranked port pairs (None where
    unused; both None for the baseline)."""
    if cfg.baseline:
        return None, None
    model = build_correlation_model(
        port_coordinates(cfg.w1, cfg.w2, cfg.n1, cfg.n2))
    return model.root, (sorted_pair_correlations(model)
                        if cfg.portsel == "mce-tmd" else None)


def _select_indices(cfg: SimConfig, hb: np.ndarray,
                    pairs: SortedPairArrays | None):
    """(B, N_a) selected 0-based column indices plus a failure mask."""
    b, _, n = hb.shape
    if cfg.baseline or cfg.portsel == "first":
        idx = np.broadcast_to(np.arange(cfg.n_a, dtype=np.intp), (b, cfg.n_a))
        return idx.copy(), np.zeros(b, dtype=bool)
    if cfg.portsel == "tmd":
        return _batch_tmd(hb, cfg.n_a)
    if cfg.portsel == "mce-tmd":
        masks = _batch_mce_stage1(hb, pairs, cfg.n_b)
        return _batch_tmd(hb, cfg.n_a, active=masks)
    # exhaustive: ZF ranking is noise-independent, MMSE uses the pinned level
    n0_sel = 1.0
    if cfg.precoder == "mmse":
        n0_sel = 10.0 ** (-cfg.select_snr_db / 10.0)
    return _batch_optimal(hb, cfg.n_a, cfg.precoder, n0_sel)


def _precode_batch(cfg: SimConfig, h_sel: np.ndarray, n0: float, svd=None):
    """Batched precoder quantities: (beta (B,), hp (B,N_r,N_r), gain or None,
    failed).

    Without ``svd`` the (regularized) Gram is inverted and screened, so
    ``failed`` flags unsolvable or ill-conditioned matrices. MMSE callers
    may pass ``svd = np.linalg.svd(h_sel, full_matrices=False)[:2]``: with
    H = U diag(sigma) V^H, G and beta come from the eigenvalues sigma^2 of
    H H^H rescaled to this noise level, hp = beta G, and nothing is solved.
    ``failed`` also flags non-finite gains.
    """
    n_r = h_sel.shape[1]
    with np.errstate(invalid="ignore", divide="ignore"):
        if svd is not None:
            # sigma^2 keeps the small eigenvalues that set G at high SNR
            # accurate; eigh of the formed Gram would lose them to rounding
            u, lam = svd[0], svd[1] ** 2
            d = lam + n_r * n0
            gain = (u * (lam / d)[:, None, :]) @ u.conj().transpose(0, 2, 1)
            beta = np.sqrt(n_r / (lam / d ** 2).sum(axis=1))
            return beta, beta[:, None, None] * gain, gain, ~np.isfinite(beta)
        gram = h_sel @ h_sel.conj().transpose(0, 2, 1)
        if cfg.precoder == "zf":
            inv, failed = _screened_hermitian_inverse(gram)
            beta = np.sqrt(n_r / np.trace(inv, axis1=1, axis2=2).real)
            p = beta[:, None, None] * (inv @ h_sel).conj().transpose(0, 2, 1)
            gain, hp = None, h_sel @ p
        else:
            inv, failed = _screened_hermitian_inverse(
                gram + (n_r * n0) * np.eye(n_r))
            gain = gram @ inv
            beta = np.sqrt(n_r / np.einsum("bij,bji->b", gain, inv).real)
            hp = beta[:, None, None] * gain
    return beta, hp, gain, failed | ~np.isfinite(beta)


def _receive_batch(hp: np.ndarray, k_idx: np.ndarray, s: np.ndarray,
                   wu: np.ndarray, n0: float) -> np.ndarray:
    """y = (H P) s e_k + sqrt(n0) w for a batch."""
    cols = np.take_along_axis(hp, k_idx[:, None, None], axis=2)[:, :, 0]
    return cols * s[:, None] + math.sqrt(n0) * wu


def _detect_batch(det: str, cfg: SimConfig, y: np.ndarray, beta: np.ndarray,
                  gain: np.ndarray | None, points: np.ndarray):
    """Batched detection; returns (k_hat, m_hat, coarse), k and m 0-based.

    ``coarse`` is RTTD's (B,) mask of rows decided by the energy detector
    (ratio below gamma) and None for the other detectors. RTTD runs each
    branch only on its own rows.
    """
    if det == "mld":
        return (*_mld_batch(y, beta, gain, points), None)
    if det == "med":
        return (*med(y, beta, gain, points), None)
    if det == "rttd":
        coarse = energy_ratio(y) < cfg.gamma
        k_hat = np.empty(y.shape[0], dtype=np.intp)
        m_hat = np.empty(y.shape[0], dtype=np.intp)
        for rows, branch in ((coarse, med), (~coarse, _mld_batch)):
            if rows.any():
                k_hat[rows], m_hat[rows] = branch(
                    y[rows], beta[rows], None if gain is None else gain[rows],
                    points)
        return k_hat, m_hat, coarse
    raise ConfigError(f"detector must be one of {_DETECTORS}")


def _redraw_failed(cfg: SimConfig, pairs, trials: np.ndarray,
                   hw: np.ndarray, bits: np.ndarray, wu: np.ndarray,
                   idx: np.ndarray, failed: np.ndarray, root) -> int:
    """Re-draw failed trials from derived sub-streams, in place.

    A trial fails when its selected channel cannot be precoded (singular
    Gram) or selection itself degenerates. Each failure re-draws channel,
    bits and noise from the (trial, attempt) stream. Returns the number of
    redraws consumed.
    """
    total = 0
    for i in np.flatnonzero(failed):
        t = int(trials[i])
        for attempt in range(1, _MAX_REDRAWS + 1):
            h1, b1, w1 = _draw_trials(cfg, np.array([t]), redraw=attempt)
            hb1 = h1 if cfg.baseline else h1 @ root
            idx1, bad1 = _select_indices(cfg, hb1, pairs)
            total += 1
            if not bad1[0]:
                # gram screen at the tightest operating point
                hsel1 = np.take_along_axis(hb1, idx1[:, None, :], axis=2)
                n0_min = 10.0 ** (-max(cfg.snr_db) / 10.0)
                _, _, _, pf = _precode_batch(cfg, hsel1, n0_min)
                if not pf[0]:
                    hw[i], bits[i], wu[i], idx[i] = h1[0], b1[0], w1[0], idx1[0]
                    failed[i] = False
                    break
        else:
            raise NumericalError(
                f"trial {t} still degenerate after {_MAX_REDRAWS} redraws")
    return total


def _draw_precodable(cfg: SimConfig, root, pairs, trials: np.ndarray):
    """Draw, select and screen a batch, re-drawing the trials that fail.

    The screen runs at the tightest noise level of ``cfg.snr_db``, as the
    redraws' does. Returns (hb, bits, wu, redraws, precode), where
    precode(n0) gives (beta, hp, gain) of the final selections at noise
    level n0. The ZF precoder does not depend on the noise, so its screen
    result serves every level; MMSE rescales the eigenvalues of one SVD.
    """
    n0_screen = 10.0 ** (-max(cfg.snr_db) / 10.0)
    hw, bits, wu = _draw_trials(cfg, trials)
    hb = hw if cfg.baseline else hw @ root
    idx, failed = _select_indices(cfg, hb, pairs)
    h_sel = np.take_along_axis(hb, idx[:, None, :], axis=2)
    screen = _precode_batch(cfg, h_sel, n0_screen)
    failed |= screen[3]
    redraws = 0
    if failed.any():
        redraws = _redraw_failed(cfg, pairs, trials, hw, bits, wu, idx,
                                 failed, root)
        hb = hw if cfg.baseline else hw @ root
        h_sel = np.take_along_axis(hb, idx[:, None, :], axis=2)
        if cfg.precoder == "zf":
            screen = _precode_batch(cfg, h_sel, n0_screen)
    if cfg.precoder == "zf":
        return hb, bits, wu, redraws, lambda n0: screen[:3]
    svd = np.linalg.svd(h_sel, full_matrices=False)[:2]
    return (hb, bits, wu, redraws,
            lambda n0: _precode_batch(cfg, h_sel, n0, svd)[:3])


def _run_batches(cfg: SimConfig, detectors: tuple[str, ...],
                 collect_ratios: bool = False):
    """Core sweep: per-detector, per-point error counts over all trials.

    Returns (counts, redraws, ratios) where counts[det][point] is
    (bit_errors, symbol_errors, med_rows), med_rows counting the RTTD
    decisions taken by the energy detector (0 for other detectors), and
    ratios[point] is an array of energy ratios (empty unless requested).
    """
    cfg.validate()
    points = build_qam(cfg.mod_order).points
    root, pairs = _port_model(cfg)
    mb = cfg.symbol_bits
    n0s = [10.0 ** (-s / 10.0) for s in cfg.snr_db]
    if cfg.dump_channels:
        open(cfg.dump_channels, "w", encoding="ascii").close()  # batches append

    def one_batch(lo: int, hi: int):
        trials = np.arange(lo, hi)
        hb, bits, wu, redraws, precode = _draw_precodable(
            cfg, root, pairs, trials)
        if cfg.dump_channels:
            dump_channels_csv(cfg.dump_channels, zip(trials.tolist(), hb))
        k_idx, m_idx = bits_to_indices(bits, cfg.spatial_bits)
        tx = (k_idx << mb) | m_idx
        s = points[m_idx]
        counts = {d: [] for d in detectors}
        ratios = []
        for n0 in n0s:
            beta, hp, gain = precode(n0)
            y = _receive_batch(hp, k_idx, s, wu, n0)
            if collect_ratios:
                ratios.append(energy_ratio(y))
            for d in detectors:
                k_hat, m_hat, coarse = _detect_batch(d, cfg, y, beta, gain,
                                                     points)
                rx = (k_hat.astype(np.intp) << mb) | m_hat.astype(np.intp)
                diff = np.bitwise_xor(tx, rx)
                counts[d].append((
                    _popcount_sum(diff), int(np.count_nonzero(diff)),
                    0 if coarse is None else int(np.count_nonzero(coarse))))
        return counts, redraws, ratios

    edges = list(range(0, cfg.trials, _BATCH)) + [cfg.trials]
    jobs = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    workers = worker_count()
    if workers > 1 and len(jobs) > 1 and not cfg.dump_channels:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(lambda j: one_batch(*j), jobs))
    else:
        results = [one_batch(*j) for j in jobs]

    n_pts = len(cfg.snr_db)
    totals = {d: [[0, 0, 0] for _ in range(n_pts)] for d in detectors}
    redraws = 0
    ratio_arrays = [[] for _ in range(n_pts)]
    for counts, rd, ratios in results:
        redraws += rd
        for d in detectors:
            for p in range(n_pts):
                for j in range(3):
                    totals[d][p][j] += counts[d][p][j]
        for p, arr in enumerate(ratios):
            ratio_arrays[p].append(arr)
    merged = [np.concatenate(a) if a else np.empty(0) for a in ratio_arrays]
    return totals, redraws, merged


def run_ber_sweep(cfg: SimConfig) -> SweepResult:
    """Simulate the configured link across its SNR grid."""
    res = run_ber_sweep_multi(cfg, (cfg.detector,))
    return res[cfg.detector]


def run_ber_sweep_multi(cfg: SimConfig,
                        detectors: tuple[str, ...]) -> dict[str, SweepResult]:
    """One pass of the engine scored by several detectors at once.

    All detectors see identical channels, payloads and noise, which makes
    detector-to-detector comparisons paired. Equivalent to, and bit-identical
    with, separate ``run_ber_sweep`` calls per detector under the same seed.
    """
    for i, d in enumerate(detectors):
        if d not in _DETECTORS:
            raise ConfigError(f"detector must be one of {_DETECTORS}")
        if d in detectors[:i]:
            raise ConfigError(f"detector {d!r} is listed more than once")
    totals, redraws, _ = _run_batches(cfg, tuple(detectors))
    out = {}
    for d in detectors:
        pts = []
        bits_per_point = cfg.trials * cfg.bits_per_use
        for p, snr in enumerate(cfg.snr_db):
            be, se, _ = totals[d][p]
            lo, hi = wilson_interval(be, bits_per_point)
            pts.append(BerPoint(snr_db=float(snr), trials=cfg.trials,
                                bits=bits_per_point, bit_errors=be,
                                symbol_errors=se, ber=be / bits_per_point,
                                ci_low=lo, ci_high=hi))
        med_rows = tuple(t[2] for t in totals[d]) if d == "rttd" else None
        out[d] = SweepResult(variant=replace(cfg, detector=d).variant,
                             points=tuple(pts), redraws=redraws,
                             med_rows=med_rows)
    return out


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial: transmitted and detected bit blocks."""

    tx_bits: np.ndarray
    rx_bits: np.ndarray
    redraws: int


def run_trial(cfg: SimConfig, snr_db: float, trial_index: int) -> TrialResult:
    """Run a single trial of the configured link at one SNR point.

    Deterministic in (master seed, trial index); shares every numerical code
    path with the batched sweep. A sweep is exactly this repeated, except
    under MMSE with redraws: the sweep screens precodability at the
    tightest SNR of its grid and this function at its own.
    """
    cfg = replace(cfg, snr_db=(float(snr_db),)).validate()
    points = build_qam(cfg.mod_order).points
    root, pairs = _port_model(cfg)
    n0 = 10.0 ** (-snr_db / 10.0)
    # cfg holds this one point, so the screen runs at the trial's own SNR
    _, bits, wu, redraws, precode = _draw_precodable(
        cfg, root, pairs, np.array([trial_index]))
    beta, hp, gain = precode(n0)
    k_idx, m_idx = bits_to_indices(bits, cfg.spatial_bits)
    y = _receive_batch(hp, k_idx, points[m_idx], wu, n0)
    k_hat, m_hat, _ = _detect_batch(cfg.detector, cfg, y, beta, gain, points)
    rx_bits = indices_to_bits(k_hat, m_hat, cfg.spatial_bits, cfg.symbol_bits)
    return TrialResult(tx_bits=bits[0], rx_bits=rx_bits[0], redraws=redraws)


def ratio_histograms(cfg: SimConfig) -> list[RatioHistogram]:
    """Histogram of the receive energy ratio at each configured SNR point.

    Requires the MMSE precoder (the ratio statistic is defined for it). All
    points share the per-trial channel and noise draws, so point-to-point
    comparisons are paired.
    """
    cfg.validate()
    if cfg.precoder != "mmse":
        raise ConfigError("the energy-ratio histogram requires the MMSE precoder")
    _, _, ratios = _run_batches(cfg, (), collect_ratios=True)
    out = []
    for snr, arr in zip(cfg.snr_db, ratios):
        counts, edges = np.histogram(arr, bins=cfg.bins, range=(0.0, 1.0))
        out.append(RatioHistogram(snr_db=float(snr), bin_edges=edges,
                                  counts=counts, total=int(arr.size),
                                  median=float(np.median(arr))))
    return out


def ratio_histogram(cfg: SimConfig, snr_db: float, trials: int) -> RatioHistogram:
    """Energy-ratio histogram at one SNR point over the given trial count."""
    cfg = replace(cfg, snr_db=(float(snr_db),), trials=trials)
    return ratio_histograms(cfg)[0]


# ---------------------------------------------------------------------------
# selection benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkRow:
    algorithm: str
    median_seconds: float
    evaluations: int


def portsel_benchmark(cfg: SimConfig, repeats: int = 25) -> list[BenchmarkRow]:
    """Median wall-clock per selection call for the three strategies.

    ``evaluations`` counts candidate evaluations (exhaustive) or removal
    steps (greedy variants). The strategies are timed round-robin per
    channel, best-of-3 each, so scheduler noise and clock-frequency drift
    hit all three alike instead of whichever ran last. At the reference
    sizes N=16, N_b=12, N_a=4 the cost ordering exhaustive > tmd > mce-tmd
    is asserted; a violation raises NumericalError.
    """
    # every strategy runs, so the whole constraint set applies
    replace(cfg, portsel="optimal").validate()
    replace(cfg, portsel="mce-tmd").validate()
    model = build_correlation_model(
        port_coordinates(cfg.w1, cfg.w2, cfg.n1, cfg.n2))
    pairs = sorted_pair_correlations(model)
    n = cfg.n_ports
    noise = NoiseModel(1.0)
    channels = [sample_correlated_channel(
                    model, cfg.n_r,
                    SeededRng(cfg.master_seed, stream_id(i, purpose=PURPOSE_BENCH)))
                for i in range(repeats)]

    strategies = [
        ("optimal", lambda h: optimal_select(h, cfg.n_a, "zf", noise),
         math.comb(n, cfg.n_a)),
        ("tmd", lambda h: tmd_select(h, cfg.n_a), n - cfg.n_a),
        ("mce-tmd", lambda h: mce_tmd_select(h, pairs, cfg.n_b, cfg.n_a),
         (n - cfg.n_b) + (cfg.n_b - cfg.n_a)),
    ]
    spans: dict[str, list[float]] = {name: [] for name, _, _ in strategies}
    for h in channels:
        for name, fn, _ in strategies:
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                fn(h)
                best = min(best, time.perf_counter() - t0)
            spans[name].append(best)

    rows = [BenchmarkRow(name, float(np.median(spans[name])), evals)
            for name, _, evals in strategies]
    if (n, cfg.n_b, cfg.n_a) == (16, 12, 4):
        t = {r.algorithm: r.median_seconds for r in rows}
        if not t["optimal"] > t["tmd"] > t["mce-tmd"]:
            raise NumericalError(
                f"selection cost ordering violated: {t}")
    return rows


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_ber_csv(fh, sweeps: list[SweepResult]) -> None:
    """Write sweep results as CSV rows with the standard header."""
    fh.write("variant,snr_db,trials,bits,bit_errors,ber,ci_low,ci_high\n")
    for sw in sweeps:
        for p in sw.points:
            fh.write(f"{sw.variant},{p.snr_db:.10g},{p.trials},{p.bits},"
                     f"{p.bit_errors},{p.ber:.10g},{p.ci_low:.10g},"
                     f"{p.ci_high:.10g}\n")
