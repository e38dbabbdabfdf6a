"""Monte Carlo engine: BER sweeps, ratio histograms, selection benchmarks.

Trials draw from counter-based random streams keyed by the master seed and
a stream id, so results are bit-identical for a given seed no matter how
trials are batched or parallelized, and a failed trial can be re-drawn from
a derived sub-stream without disturbing its neighbours. One trial draws a
channel, its payload bits, and a unit noise vector that is scaled per SNR
point. Sharing the channel draw across the SNR grid makes the sweep a
common-random-numbers design: each point remains an independent estimate,
but curve shapes and curve-to-curve gaps are far less noisy.

The public entry points accept a :class:`SimConfig`; trials are processed in
fixed-size batches through vectorized selection / precoding / detection
kernels. The detectors and the bit mapping are the stacked kernels of
:mod:`farsm.detection` and :mod:`farsm.modulation`, and :func:`run_trial`
runs a batch of one through the same stages as the sweep.
Streams are keyed per block of 256 consecutive trials (stream version 2):
a block draws all its channels, then all its payloads, then all its noise
with one vectorized call each, and a batch draws every block it touches
whole, so no value depends on the batch bounds; a redraw is a block of one
trial on its own sub-stream. Drawing, colouring, selecting and screening
the precoder is one step. A batch takes it once for its trials and then
once per redraw attempt for the trials still failed, as one batch, writing
the trials that pass back into the batch in place, and redraws are
counted by cause (a degenerate selection or a failed screen). The draw is
coloured in place, a row block at a time. The ZF precoder does not depend
on the noise level, so the screen's serves every SNR point, and the step
keeps only beta and each trial's sent column (H P) e_k = H (P e_k), built
from row k of the inverse Gram (``precoding.zf_sent_columns``); neither P
nor H P is formed. MMSE factors the selected channels once in that step,
H H^H = U diag(lambda) U^H by eigh of the formed Gram, or by the SVD of H
on the rows too ill conditioned for that (``precoding.mmse_factor``); the
screen reads the same factor (a redraw factors only its own trials), and
each SNR point forms from U and the rescaled eigenvalues d only what its
receiver reads: the sent column g_k of G, the diagonal entries G[k, k] of
the energy detector's rows, and the projections g_k^H y and ||g_k||^2 of
the rows that reach the joint ML search (``detection.mld``); G is never
formed. One detect stage serves MLD (no energy-detector rows), MED (all
rows) and RTTD, which runs the joint ML search only on the rows its ratio
test sends there and reports, per point, how many rows the energy
detector decided.
``FARSM_THREADS`` caps how many worker threads run batches concurrently
(default 1). Each batch returns one record of its results (``_Tally``),
and ``_fold`` combines the records in job order, so the thread count never
changes results. Batch j runs on worker thread j mod ``FARSM_THREADS``,
and the threads live as long as the process. The first sweep of a process
fixes glibc's malloc thresholds (``_keep_batch_memory``), so a batch's
freed working memory stays mapped for the next batch.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from farsm.channel import (SeededRng, dump_channels_csv,
                           sample_correlated_channel)
from farsm.correlation import (SortedPairArrays, build_correlation_model,
                               port_coordinates, sorted_pair_correlations)
from farsm.errors import ConfigError, NumericalError
from farsm.detection import energy_ratio, med_symbols, ratio_of, strongest
# every ML search runs through this module global, which the benchmark's
# tracer patches to count the rows that reach it
from farsm.detection import mld as _mld_batch
from farsm.modulation import bits_to_indices, build_qam, indices_to_bits
from farsm.precoding import (NoiseModel, mmse_factor, mmse_scales,
                             mmse_screen, zf_precoders, zf_sent_columns)
from farsm.selection import (_ROW_BLOCK, _batch_mce_tmd, _batch_optimal,
                             _batch_tmd, mce_tmd_select, optimal_select,
                             tmd_select)

_BATCH = 2048
_BLOCK = 256  # trials per first-draw stream; _BATCH is 8 blocks
_MAX_REDRAWS = 8

_PRECODERS = ("zf", "mmse")
_PORTSELS = ("optimal", "tmd", "mce-tmd", "first")
_DETECTORS = ("mld", "med", "rttd")

# Version of the random streams a sweep draws from (the stream-id layout
# below and the order of the draws in _draw_trials). Manifests record it;
# a change that moves any seeded number bumps it.
STREAM_VERSION = 2

# stream-id layout: bits 0..39 trial, 40..47 redraw attempt, 48..55 purpose
PURPOSE_TRIAL = 0
PURPOSE_THEORY = 1
PURPOSE_BENCH = 2


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# SimConfig field annotation -> (check, expected kind); "X | None" also
# admits None. Ints reject bool and float, floats accept int.
_FIELD_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (_is_real, "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "tuple[float, ...]": (lambda v: isinstance(v, (tuple, list))
                          and all(map(_is_real, v)), "a list of numbers"),
}


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
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.type.endswith(" | None"):
                continue
            check, expected = _FIELD_TYPES[f.type.removesuffix(" | None")]
            if not check(value):
                raise ConfigError(
                    f"{f.name} must be {expected}, got {value!r}")
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
class _Redraws:
    """The trials a run redrew, by cause: ``selection_redraws`` because
    their port selection degenerated, ``screen_redraws`` because their
    precoder failed the condition screen; ``redraws`` is their sum."""

    selection_redraws: int
    screen_redraws: int

    @property
    def redraws(self) -> int:
        return self.selection_redraws + self.screen_redraws


@dataclass(frozen=True)
class SweepResult(_Redraws):
    """Per-point counts of one detector, with the sweep's redraws;
    ``med_rows`` is RTTD's count of decisions taken by the cheap energy
    detector at each point (None for the other detectors)."""

    variant: str
    points: tuple[BerPoint, ...]
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


@functools.cache
def _batch_thread(index: int) -> ThreadPoolExecutor:
    """Worker thread ``index``, kept for the life of the process.

    A thread keeps its malloc arena for life, so with batch j of every
    sweep on thread j mod FARSM_THREADS each arena sees the same batches
    and reuses the memory they left mapped. Threads started afresh per
    sweep faulted their stacks in again and could draw cold or new arenas.
    """
    return ThreadPoolExecutor(max_workers=1)


# mallopt(3) parameters and the values _keep_batch_memory sets. glibc
# returns a freed block above M_MMAP_THRESHOLD to the kernel at once, and
# trims the heap top above M_TRIM_THRESHOLD; both start at 128 KiB and rise
# only when a large mmap'd block is freed. A batch's working memory is a
# few MB, so at the defaults each batch faulted it back in: 4544 minor
# faults per warm 4096-trial ZF TMD sweep and 844 per 256-trial exhaustive
# ZF sweep (a fresh process running one config); with the thresholds set,
# about 0. Setting them also stops the dynamic adjustment.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's cap on 64-bit builds
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD  # the ratio glibc's own adjustment keeps


def _libc_mallopt():
    """libc's ``mallopt``, or None where the C library has none."""
    try:
        return ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None


@functools.cache
def _keep_batch_memory() -> None:
    """Keep freed batch memory mapped for the rest of the process.

    Sets glibc's M_MMAP_THRESHOLD to 32 MiB and M_TRIM_THRESHOLD to 64 MiB
    once per process. This is a process-wide allocator setting: it also
    holds for other code in the process. Does nothing where libc has no
    ``mallopt``.
    """
    mallopt = _libc_mallopt()
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


# ---------------------------------------------------------------------------
# batched trial pipeline
# ---------------------------------------------------------------------------

def _draw_trials(cfg: SimConfig, trials: np.ndarray, redraw: int = 0):
    """Channel factor, payload bits and unit noise of the given trials.

    First draws come in blocks of ``_BLOCK`` trials, block b reading the
    stream (master_seed, stream_id(b)); redraw a of trial t is a block of
    one on stream_id(t, a). A block of S trials draws, in order, its channel
    normals into the float64 view of a complex (S, N_r, N) array, its
    payloads as ``random_raw`` words and its noise normals into the float64
    view of a complex (S, N_r) array; both are then scaled by 1/sqrt(2).
    Every block ``trials`` touch is drawn whole and their rows are returned
    in order, so no value depends on the batch or the order of ``trials``.
    """
    n_cols = cfg.n_a if cfg.baseline else cfg.n_ports
    words = -(-cfg.bits_per_use // 8)
    size = 1 if redraw else _BLOCK
    blocks = np.array(sorted(set((trials // size).tolist())))
    hw = np.empty((blocks.size, size, cfg.n_r, n_cols), dtype=complex)
    wu = np.empty((blocks.size, size, cfg.n_r), dtype=complex)
    raw = np.empty((blocks.size, size, words), dtype=np.uint64)
    for j, b in enumerate(blocks.tolist()):
        g = SeededRng(cfg.master_seed, stream_id(b, redraw)).generator()
        g.standard_normal(out=hw[j].view(np.float64))
        raw[j] = g.bit_generator.random_raw((size, words))
        g.standard_normal(out=wu[j].view(np.float64))
    hw *= 1.0 / math.sqrt(2.0)
    wu *= 1.0 / math.sqrt(2.0)
    bits = _payload_bits(raw.reshape(-1, words), cfg.bits_per_use)
    rows = np.searchsorted(blocks, trials // size) * size + trials % size
    if np.array_equal(rows, np.arange(rows[0], rows[0] + rows.size)):
        rows = slice(rows[0], rows[0] + rows.size)  # views, no gather
    return (hw.reshape(-1, cfg.n_r, n_cols)[rows], bits[rows],
            wu.reshape(-1, cfg.n_r)[rows])


def _payload_bits(raw: np.ndarray, n_bits: int) -> np.ndarray:
    """(B, n_bits) uint8 bits from (B, ceil(n_bits / 8)) raw Philox words.

    Bit j is the top bit of byte j of the little-endian words, bit
    8 (j % 8) + 7 of word j // 8.
    """
    return raw.astype("<u8", copy=False).view(np.uint8)[:, :n_bits] >> 7


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
        return _batch_mce_tmd(hb, pairs, cfg.n_b, cfg.n_a)
    # exhaustive: ZF ranking is noise-independent, MMSE uses the pinned level
    n0_sel = 1.0
    if cfg.precoder == "mmse":
        n0_sel = 10.0 ** (-cfg.select_snr_db / 10.0)
    return _batch_optimal(hb, cfg.n_a, cfg.precoder, n0_sel)


def _precode_batch(cfg: SimConfig, h_sel: np.ndarray, n0: float):
    """Batched precoder quantities: (beta (B,), inv, gain, failed).

    This is the precodability screen at noise level n0, and it returns what
    the SNR points are built from. ZF inverts and screens the Gram
    (``precoding.zf_precoders``), and its precoder serves every point: inv
    is the inverse Gram A (B, N_r, N_r), from which ``_draw_and_screen``
    builds only the sent columns, gain None. MMSE factors the batch once
    (``precoding.mmse_factor``) and returns the factor (U, lambda) of H H^H
    = U diag(lambda) U^H as ``gain``, inv None; the screen reads the same
    factor (``precoding.mmse_screen``), so nothing is solved. ``failed``
    flags the trials that fail the screen or whose beta is not finite.
    """
    if cfg.precoder == "mmse":
        n_r = h_sel.shape[1]
        u, lam = mmse_factor(h_sel)
        beta = mmse_scales(lam, n_r * n0)[1]
        failed = mmse_screen(u, lam, n_r * n0) | ~np.isfinite(beta)
        return beta, None, (u, lam), failed
    beta, inv, failed = zf_precoders(h_sel)
    return beta, inv, None, failed


def _receive_batch(cols: np.ndarray, s: np.ndarray, wu: np.ndarray,
                   n0: float) -> np.ndarray:
    """y = (H P) s e_k + sqrt(n0) w for a batch, from the sent columns
    ``cols`` = (H P) e_k (B, N_r)."""
    return cols * s[:, None] + math.sqrt(n0) * wu


def _detect_batch(det: str, cfg: SimConfig, y: np.ndarray, beta: np.ndarray,
                  gain, points: np.ndarray):
    """Batched detection; returns (k_hat, m_hat, coarse), k and m 0-based.

    ``gain`` is None under ZF and under MMSE the factor (U, d) of the gain
    matrices G = U diag(d) U^H. One gate serves every detector: the energy
    detector decides MED's rows, none of MLD's and RTTD's rows whose energy
    ratio lies below gamma, each from its strongest entry y_k and the scale
    beta (ZF) or beta G[k, k] (MMSE), with G[k, k] = sum_j |U_kj|^2 d_j. The
    other rows go to the joint ML search with their rows of the factor; G
    is not formed. MLD computes no energies. ``coarse`` is RTTD's (B,) mask of
    energy-detector rows and None for the other detectors.
    """
    if det not in _DETECTORS:
        raise ConfigError(f"detector must be one of {_DETECTORS}")
    n = y.shape[0]
    if det == "mld":
        k_hat, coarse = np.empty(n, dtype=np.intp), np.zeros(n, dtype=bool)
    else:
        e, k_hat = strongest(y)
        coarse = (ratio_of(e, k_hat) < cfg.gamma if det == "rttd"
                  else np.ones(n, dtype=bool))
    m_hat = np.empty(n, dtype=np.intp)
    rows = np.flatnonzero(coarse)
    if rows.size:
        k = k_hat[rows]
        scale = beta[rows]
        if gain is not None:
            uk = gain[0][rows, k]
            scale = scale * ((uk.real ** 2 + uk.imag ** 2)
                             * gain[1][rows]).sum(axis=1)
        m_hat[rows] = med_symbols(y[rows, k], scale, points)
    rows = np.flatnonzero(~coarse)
    if rows.size:
        if rows.size == n:
            rows = slice(None)  # every row: views, no gather
        k_hat[rows], m_hat[rows] = _mld_batch(
            y[rows], beta[rows],
            None if gain is None else tuple(g[rows] for g in gain), points)
    return k_hat, m_hat, coarse if det == "rttd" else None


def _draw_and_screen(cfg: SimConfig, ports, trials: np.ndarray, n0: float,
                     redraw: int = 0):
    """Draw redraw attempt ``redraw`` of ``trials``; colour, select, screen.

    Returns (degenerate, ill, rows). ``degenerate`` flags the trials whose
    port selection degenerates and ``ill`` the others that fail the
    precodability screen at noise level n0. ``rows`` holds the trials'
    payload bits, unit noise and coloured channels, then what the SNR points
    are built from: the ZF beta and sent columns (H P) e_k (B, N_r)
    (``precoding.zf_sent_columns``), or the MMSE factor (U, lambda). The
    draw is coloured in place, ``_ROW_BLOCK`` trials per product, so no
    second (B, N_r, N) array is made.
    """
    root, pairs = ports
    hb, bits, wu = _draw_trials(cfg, trials, redraw)
    if not cfg.baseline:
        buf = np.empty((min(len(hb), _ROW_BLOCK), *hb.shape[1:]),
                       dtype=complex)
        for lo in range(0, len(hb), _ROW_BLOCK):
            blk = hb[lo:lo + _ROW_BLOCK]
            blk[...] = np.matmul(blk, root, out=buf[:len(blk)])
        del buf
    idx, degenerate = _select_indices(cfg, hb, pairs)
    h_sel = np.take_along_axis(hb, idx[:, None, :], axis=2)
    beta, inv, factor, ill = _precode_batch(cfg, h_sel, n0)
    if factor is None:
        k = bits_to_indices(bits, cfg.spatial_bits)[0]
        factor = beta, zf_sent_columns(h_sel, inv, beta, k)
    return degenerate, ill & ~degenerate, (bits, wu, hb, *factor)


def _redraw_failed(cfg: SimConfig, ports, trials: np.ndarray,
                   degenerate: np.ndarray, ill: np.ndarray, rows: tuple,
                   n0: float) -> tuple[int, int]:
    """Re-draw the failed trials of a batch from derived sub-streams.

    Attempt a re-draws every trial still failed as one batch, from the
    (trial, a) streams, through the same draw, colour, select and screen
    step as the first draw, and writes the trials that pass into the
    batch's ``rows`` in place; the others go on to attempt a + 1. Returns
    the redraws consumed as (selection, screen), each redraw counted under
    the cause its trial failed by in the attempt before. A trial still
    failed after ``_MAX_REDRAWS`` attempts raises, naming the first such
    trial.
    """
    pending = np.flatnonzero(degenerate | ill)
    cause = degenerate[pending]
    selection = screen = 0
    for attempt in range(1, _MAX_REDRAWS + 1):
        selection += int(np.count_nonzero(cause))
        screen += int(cause.size - np.count_nonzero(cause))
        deg, bad, new = _draw_and_screen(cfg, ports, trials[pending], n0,
                                         attempt)
        bad |= deg
        for row, fresh in zip(rows, new):
            row[pending[~bad]] = fresh[~bad]
        pending, cause = pending[bad], deg[bad]
        if not pending.size:
            return selection, screen
    raise NumericalError(f"trial {trials[pending[0]]} still degenerate "
                         f"after {_MAX_REDRAWS} redraws")


@dataclass(frozen=True)
class _Tally(_Redraws):
    """A batch's redraws, counts and, with ``keep``, arrays, or those of a
    sweep's batches combined by ``_fold``.

    counts[i, p] is the int64 (bit errors, symbol errors, energy-detector
    rows) of detector i at point p, the last being RTTD's rows decided by
    its energy detector (0 for the others). Each kept array (None without
    ``keep``) has one row per trial: the payload bits (B, n_bits), the
    energy ratios (B, P) and the decided bits (B, P, D, n_bits).
    """

    counts: np.ndarray
    bits: np.ndarray | None = None
    ratios: np.ndarray | None = None
    rx: np.ndarray | None = None


def _fold(tallies: list[_Tally]) -> _Tally:
    """The batch tallies combined in job order. A field without a default
    is a sum; a kept array is concatenated over the batches in one call."""
    merged = {}
    for f in fields(_Tally):
        parts = [getattr(t, f.name) for t in tallies]
        if f.default is MISSING:
            merged[f.name] = sum(parts)
        elif parts[0] is not None:
            merged[f.name] = np.concatenate(parts)
    return _Tally(**merged)


def _run_batch(cfg: SimConfig, ports, trials: np.ndarray,
               detectors: tuple[str, ...], keep: bool = False) -> _Tally:
    """Run one batch of trials through every stage of the link.

    The trials are drawn and screened at the tightest noise level of
    ``cfg.snr_db``, failures re-drawn; then each SNR point precodes,
    receives and detects. ZF sends the same columns (H P) e_k at every
    point, built once per batch (and per redraw) without H P itself.
    MMSE builds, per point, only d = lambda / (lambda + N_r n0) and beta
    from the batch's factor, and sends beta g_k with g_k = U (d * conj(U[k,
    :])), the row of U gathered once per batch. Returns the batch's
    :class:`_Tally`, its redraws those of ``_redraw_failed``. Without
    ``keep`` no array of a point outlives the point.
    """
    points = build_qam(cfg.mod_order).points
    n0s = [10.0 ** (-s / 10.0) for s in cfg.snr_db]
    degenerate, ill, rows = _draw_and_screen(cfg, ports, trials, min(n0s))
    redraws = (_redraw_failed(cfg, ports, trials, degenerate, ill, rows,
                              min(n0s))
               if degenerate.any() or ill.any() else (0, 0))
    bits, wu, hb, *built = rows
    if cfg.dump_channels:
        dump_channels_csv(cfg.dump_channels, zip(trials.tolist(), hb))
    mb = cfg.symbol_bits
    k_idx, m_idx = bits_to_indices(bits, cfg.spatial_bits)
    tx = (k_idx << mb) | m_idx
    s = points[m_idx]
    if cfg.precoder == "mmse":
        u, lam = built
        u_k = u[np.arange(k_idx.size), k_idx].conj()
    else:
        (beta, col), gain = built, None
    counts = np.zeros((len(detectors), len(n0s), 3), dtype=np.int64)
    shape = (len(bits), len(n0s), len(detectors), cfg.bits_per_use)
    kept = dict(bits=bits, ratios=np.empty(shape[:2]),
                rx=np.empty(shape, dtype=np.uint8)) if keep else {}
    for p, n0 in enumerate(n0s):
        if cfg.precoder == "mmse":
            d, beta = mmse_scales(lam, cfg.n_r * n0)
            col = beta[:, None] * np.einsum("brj,bj->br", u, d * u_k)
            gain = u, d
        y = _receive_batch(col, s, wu, n0)
        if keep:
            kept["ratios"][:, p] = energy_ratio(y)
        for i, det in enumerate(detectors):
            k_hat, m_hat, coarse = _detect_batch(det, cfg, y, beta, gain,
                                                 points)
            diff = tx ^ ((k_hat << mb) | m_hat)
            bit_errors = np.count_nonzero(np.unpackbits(diff.view(np.uint8)))
            counts[i, p] = (bit_errors, np.count_nonzero(diff),
                            0 if coarse is None else np.count_nonzero(coarse))
            if keep:
                kept["rx"][:, p, i] = indices_to_bits(k_hat, m_hat,
                                                      cfg.spatial_bits, mb)
    return _Tally(*redraws, counts, **kept)


def _sweep(cfg: SimConfig, detectors: tuple[str, ...],
           keep: bool = False) -> _Tally:
    """Core sweep: every batch of the trials through ``_run_batch``, the
    tallies folded in job order, so no result depends on the thread
    count."""
    cfg.validate()
    _keep_batch_memory()
    ports = _port_model(cfg)
    if cfg.dump_channels:
        open(cfg.dump_channels, "w", encoding="ascii").close()  # batches append
    edges = list(range(0, cfg.trials, _BATCH)) + [cfg.trials]
    jobs = [np.arange(lo, hi) for lo, hi in zip(edges, edges[1:])]

    def one_batch(trials):
        return _run_batch(cfg, ports, trials, detectors, keep)

    workers = worker_count()
    if workers > 1 and len(jobs) > 1 and not cfg.dump_channels:
        futures = [_batch_thread(i % workers).submit(one_batch, job)
                   for i, job in enumerate(jobs)]
        try:
            return _fold([f.result() for f in futures])
        finally:
            for f in futures:  # after a failed batch, drop those not begun
                f.cancel()
    return _fold([one_batch(j) for j in jobs])


def _run_batches(cfg: SimConfig, detectors: tuple[str, ...],
                 collect_ratios: bool = False):
    """``_sweep`` as the (counts, redraws, ratios[point]) triple that the
    benchmark's self-test reads."""
    t = _sweep(cfg, detectors, collect_ratios)
    return t.counts, t.redraws, None if t.ratios is None else t.ratios.T


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
    tally = _sweep(cfg, tuple(detectors))
    bits_per_point = cfg.trials * cfg.bits_per_use
    out = {}
    for d, rows in zip(detectors, tally.counts.tolist()):
        pts = []
        for snr, (be, se, _) in zip(cfg.snr_db, rows):
            lo, hi = wilson_interval(be, bits_per_point)
            pts.append(BerPoint(snr_db=float(snr), trials=cfg.trials,
                                bits=bits_per_point, bit_errors=be,
                                symbol_errors=se, ber=be / bits_per_point,
                                ci_low=lo, ci_high=hi))
        med_rows = tuple(r[2] for r in rows) if d == "rttd" else None
        out[d] = SweepResult(variant=replace(cfg, detector=d).variant,
                             points=tuple(pts),
                             selection_redraws=tally.selection_redraws,
                             screen_redraws=tally.screen_redraws,
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

    Deterministic in (master seed, trial index): the trial runs as a batch
    of one through the sweep's per-batch stages, re-drawn as the sweep
    would re-draw it. A sweep is exactly this repeated, except under MMSE
    with redraws: the sweep screens precodability at the tightest SNR of
    its grid and this function at its own.
    """
    cfg = replace(cfg, snr_db=(float(snr_db),), dump_channels=None).validate()
    tally = _run_batch(cfg, _port_model(cfg), np.array([trial_index]),
                       (cfg.detector,), keep=True)
    return TrialResult(tx_bits=tally.bits[0], rx_bits=tally.rx[0, 0, 0],
                       redraws=tally.redraws)


@dataclass(frozen=True)
class RatioSweep(_Redraws):
    """Every SNR point's energy-ratio histogram, with the sweep's redraws."""

    histograms: tuple[RatioHistogram, ...]


def run_ratio_sweep(cfg: SimConfig) -> RatioSweep:
    """Histogram of the receive energy ratio at each configured SNR point.

    Requires the MMSE precoder (the ratio statistic is defined for it). All
    points share the per-trial channel and noise draws, so point-to-point
    comparisons are paired.
    """
    cfg.validate()
    if cfg.precoder != "mmse":
        raise ConfigError("the energy-ratio histogram requires the MMSE precoder")
    tally = _sweep(cfg, (), keep=True)
    out = []
    for snr, arr in zip(cfg.snr_db, tally.ratios.T):
        counts, edges = np.histogram(arr, bins=cfg.bins, range=(0.0, 1.0))
        out.append(RatioHistogram(snr_db=float(snr), bin_edges=edges,
                                  counts=counts, total=int(arr.size),
                                  median=float(np.median(arr))))
    return RatioSweep(histograms=tuple(out),
                      selection_redraws=tally.selection_redraws,
                      screen_redraws=tally.screen_redraws)


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
    # every strategy runs on the port grid, so the whole constraint set
    # applies, the baseline flag notwithstanding
    replace(cfg, portsel="optimal", baseline=False).validate()
    replace(cfg, portsel="mce-tmd", baseline=False).validate()
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
    """Write sweep results as CSV rows with the standard header.

    ``ser`` is the symbol error rate: symbol errors (a wrong antenna or
    point) over trials, one symbol per trial.
    """
    fh.write("variant,snr_db,trials,bits,bit_errors,ber,ci_low,ci_high,"
             "symbol_errors,ser\n")
    for sw in sweeps:
        for p in sw.points:
            fh.write(f"{sw.variant},{p.snr_db:.10g},{p.trials},{p.bits},"
                     f"{p.bit_errors},{p.ber:.10g},{p.ci_low:.10g},"
                     f"{p.ci_high:.10g},{p.symbol_errors},"
                     f"{p.symbol_errors / p.trials:.10g}\n")
