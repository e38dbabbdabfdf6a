"""Active-port subset selection.

Three strategies pick N_a of the N fluid-antenna ports per channel draw:

* ``optimal_select``: exhaustive capacity maximization over all C(N, N_a)
  subsets. Exact but combinatorial; guarded to N <= 20. Each candidate's
  capacity comes from the singular values of its N_r x N_a channel, all
  candidates in one batched SVD (``_subset_capacities``).
* ``tmd_select``: greedy removal of N - N_a ports, each step discarding the
  port whose removal grows tr((H H^H)^(-1)) the least. The growth caused by
  removing column h from an active set with inverse Gram A is
  ||A h||^2 / (1 - h^H A h), and the inverse Gram is maintained across
  removals by a rank-one (Sherman-Morrison) downdate instead of refactoring;
  the growths of the remaining ports follow by rank-one recurrences in
  A h / sqrt(1 - h^H A h). Removed ports score +inf, so a step is a plain
  argmin, masked only on rows whose winner is not finite or removable.
* ``mce_tmd_select``: a cheaper two-stage variant. Stage one walks a static,
  geometry-ranked list of port pairs and repeatedly removes the weaker member
  of the most channel-correlated pair within the leading window, until N_b
  ports survive; stage two runs the greedy trace rule on the survivors.

All port indices at this interface are 1-based, matching the grid layout.
Internal helpers prefixed with ``_batch`` operate on stacks of channels and
exist for the Monte Carlo engine. The greedy trace rule has one
implementation, ``_batch_tmd``: ``tmd_select`` is its one-row case, and
``mce_tmd_select`` and the engine's ``_batch_mce_tmd`` run their stage two
through it on the gathered survivor columns. ``TraceState``,
``tmd_trace_metric`` and ``smw_downdate`` spell the rule out one port at a
time and are its oracle. Stage one has two walks: ``mce_tmd_select`` reads
the whole ranked pair list and is the oracle of ``_batch_mce_stage1``, which
forms |h_i^H h_j| only for a prefix that ``_stage1_depth`` sizes from the
pair list alone so that every window ends inside it. The
engine's exhaustive search (``_batch_optimal``) gets each candidate's Gram
polynomials from principal-minor tables of H^H H, a tile of trials per numpy
call; each table entry is a sum of squared magnitudes |det H[R, J]|^2,
formed by elementwise squares and row sums in the tile's own buffers.
Under MMSE it takes each trial's first capacity maximum. Under ZF the
capacity falls as tr(W^-1) grows, so it ranks the candidates by tr(W^-1) =
e_{N_r-1} / e_{N_r} alone and applies the condition screen only to each
trial's winner; a trial whose winner fails screens every candidate. The
first minimum that passes is the first over the screened candidates too, so
the search stays exact (see the principal-minor section below).
``_subset_capacities`` is its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from farsm.channel import restrict_to_ports
from farsm.correlation import SortedPairArrays
from farsm.errors import ConfigError, NumericalError, SingularChannelError
from farsm.precoding import (MAX_CONDITION, NoiseModel,
                             _screened_hermitian_inverse, mmse_precoder,
                             zf_precoder)

# A removal denominator 1 - h^H A h at or below this marks the port as
# non-removable (removal would make the remaining Gram singular).
REMOVAL_EPS = 1e-12

_EXHAUSTIVE_MAX_PORTS = 20

# _batch_optimal scores trials in tiles: as many trials as keep the widest
# level of their minor tables (C(N_r, k) C(N, k) complex entries per trial)
# within this count, 560 KiB per table; the workspace holds four. Larger
# tiles spread the fixed cost of each numpy call over more trials, until
# the tables fall out of cache. At N_r = 4, N = 16 a tile is 16 trials.
# Re-timed once the ZF search ranked by tr(W^-1) and stopped forming
# capacities: on a 2-core Intel Xeon VM with numpy 2.4, a 256-trial ZF
# search took 12% longer at 6 trials per tile, 5% at 8, 2% at 12, 4% at 20,
# 5% at 24 and 21% at 32 (paired medians of 40 interleaved calls). Peak
# memory grows with the tile: before the re-timing, the zf-optimal
# benchmark peaked 1.1 MB higher at 16 than at 12. At N_r = 8 a tile is
# one trial.
_OPTIMAL_TILE_MINORS = 35_840

# Trials per block of the stacked work that is read once per trial, so that
# no (B, N_r, N) temporary is made: _batch_tmd's Gram and first scores, and
# the engine's colouring of a draw. Every trial's arithmetic is the same in
# any block, so no result depends on it. At N_r = 4, N = 16 a block of
# complex (N_r, N) channels is 256 KiB.
_ROW_BLOCK = 256


@dataclass(frozen=True)
class PortSet:
    """Sorted tuple of distinct 1-based port indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise ValueError("port set must not be empty")
        if any(i < 1 for i in idx):
            raise ValueError(f"port indices are 1-based, got {idx}")
        if len(set(idx)) != len(idx):
            raise ValueError(f"port indices must be distinct, got {idx}")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)

    def __contains__(self, port):
        return port in self.indices


def capacity_of_set(h: np.ndarray, ports: PortSet, precoder_kind: str,
                    noise: NoiseModel) -> float:
    """Capacity (bits per channel use) of the precoded restricted channel.

    C = log2 det(I + (1 / (N_r N_0)) (H P)(H P)^H) with P the requested
    precoder built on the restricted channel.
    """
    if noise.n0 <= 0:
        raise ValueError("capacity evaluation needs a positive noise power")
    h_sel = restrict_to_ports(h, ports)
    n_r = h_sel.shape[0]
    if precoder_kind == "zf":
        prec = zf_precoder(h_sel)
    elif precoder_kind == "mmse":
        prec = mmse_precoder(h_sel, noise)
    else:
        raise ValueError(f"unknown precoder kind {precoder_kind!r}")
    hp = h_sel @ prec.matrix
    m = np.eye(n_r) + (hp @ hp.conj().T) / (n_r * noise.n0)
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0:
        raise NumericalError("capacity determinant not positive")
    return float(logdet / math.log(2.0))


@lru_cache(maxsize=8)
def _subset_table(n: int, k: int) -> np.ndarray:
    """All k-subsets of range(n) as a (C(n,k), k) int array, lexicographic."""
    return np.array(list(combinations(range(n), k)), dtype=np.intp)


def optimal_select(h: np.ndarray, n_a: int, precoder_kind: str,
                   noise: NoiseModel) -> PortSet:
    """Exhaustive capacity-maximizing port subset.

    Evaluates every C(N, N_a) candidate and returns the best; exact ties
    resolve to the lexicographically smallest index list. Refuses N > 20,
    where the candidate count stops being desk-scale: use tmd_select or
    mce_tmd_select instead.
    """
    n = h.shape[1]
    if n > _EXHAUSTIVE_MAX_PORTS:
        raise ConfigError(
            f"exhaustive selection over C({n}, {n_a}) candidates is out of "
            "budget for N > 20; use tmd_select or mce_tmd_select")
    if not h.shape[0] <= n_a <= n:
        raise ValueError(f"need N_r <= N_a <= N, got N_a={n_a}")
    subsets = _subset_table(n, n_a)
    scores = _subset_capacities(h, subsets, precoder_kind, noise.n0)
    best = int(np.argmax(scores))  # first max = lexicographically smallest
    if not np.isfinite(scores[best]):
        raise SingularChannelError("every candidate subset is singular")
    return PortSet(tuple(int(p) + 1 for p in subsets[best]))


def _subset_capacities(h: np.ndarray, subsets: np.ndarray, kind: str,
                       n0: float) -> np.ndarray:
    """Capacity of every candidate subset of ``h`` (N_r x N), one SVD each.

    With lambda the squared singular values of H_I and c = N_r N_0, the
    precoded channel is beta G, G = U diag(g) U^H: ZF has g = 1 and
    beta^2 = N_r / sum 1 / lambda; MMSE has g = lambda / (lambda + c) and
    beta^2 = N_r / sum lambda / (lambda + c)^2. The capacity is
    sum log2(1 + beta^2 g^2 / c). A candidate scores -inf by the rule of
    the engine's kernel, _minor_capacities, applied to its own lambda: under
    ZF where the Gram's bound tr(W) tr(W^-1) exceeds MAX_CONDITION
    (_trace_bound_exceeded), and under both precoders where the capacity is
    not finite.
    """
    if kind not in ("zf", "mmse"):
        raise ValueError(f"unknown precoder kind {kind!r}")
    n_r = h.shape[0]
    c = n_r * n0
    # (S, N_r), each row in descending order
    lam = np.linalg.svd(np.moveaxis(h[:, subsets], 0, 1),
                        compute_uv=False) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "zf":
            tr_inv = np.sum(1.0 / lam, axis=1)
            beta2 = n_r / tr_inv
            cap = n_r * np.log2(1.0 + beta2 / c)
            bad = (_trace_bound_exceeded(lam.sum(axis=1), tr_inv, 1.0)
                   | ~np.isfinite(cap))
        else:
            d = lam + c
            beta2 = n_r / np.sum(lam / d ** 2, axis=1)
            cap = np.log2(1.0 + beta2[:, None] * (lam / d) ** 2 / c).sum(axis=1)
            bad = ~np.isfinite(cap)
    cap[bad] = -np.inf
    return cap


# ---------------------------------------------------------------------------
# greedy trace-minimizing removal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceState:
    """Inverse Gram of the currently active ports, kept across removals.

    Attributes:
        inverse: (N_r, N_r) Hermitian inverse of H_active H_active^H.
        active: sorted tuple of 1-based ports still in the set.
    """

    inverse: np.ndarray
    active: tuple[int, ...]


def initial_trace_state(h: np.ndarray, ports: PortSet | None = None) -> TraceState:
    """Invert the Gram of the given ports (default: all) into a TraceState;
    a Gram failing _batch_tmd's screen raises SingularChannelError."""
    active = tuple(ports) if ports is not None else tuple(range(1, h.shape[1] + 1))
    h_act = restrict_to_ports(h, active)[None]
    inv, failed = _screened_hermitian_inverse(
        h_act @ h_act.conj().transpose(0, 2, 1))
    if failed[0]:
        raise SingularChannelError(
            "active-port Gram matrix is singular or ill conditioned")
    return TraceState(inverse=inv[0], active=active)


def tmd_trace_metric(state: TraceState, port: int, h: np.ndarray) -> float:
    """Growth of tr((H H^H)^(-1)) caused by removing ``port`` from the set.

    Equals ||A h||^2 / (1 - h^H A h) for the port's column h and the current
    inverse Gram A; the removal that grows the trace least is the one the
    greedy rule takes. A denominator at or below 1e-12 means the remaining
    columns would no longer span the receive space.
    """
    if port not in state.active:
        raise ValueError(f"port {port} is not active")
    col = h[:, port - 1]
    v = state.inverse @ col
    den = 1.0 - float(np.real(col.conj() @ v))
    if den <= REMOVAL_EPS:
        raise SingularChannelError(
            f"port {port} is non-removable (denominator {den:.3e})")
    return float(np.real(v.conj() @ v)) / den


def smw_downdate(state: TraceState, port: int, h: np.ndarray) -> TraceState:
    """Remove ``port`` from the active set, updating the inverse Gram.

    Rank-one update A' = A + (A h)(A h)^H / (1 - h^H A h); no refactoring.
    """
    if port not in state.active:
        raise ValueError(f"port {port} is not active")
    col = h[:, port - 1]
    v = state.inverse @ col
    den = 1.0 - float(np.real(col.conj() @ v))
    if den <= REMOVAL_EPS:
        raise SingularChannelError(
            f"port {port} is non-removable (denominator {den:.3e})")
    inv = state.inverse + np.outer(v, v.conj()) / den
    active = tuple(p for p in state.active if p != port)
    return TraceState(inverse=inv, active=active)


def tmd_select(h: np.ndarray, n_a: int) -> PortSet:
    """Greedy trace-minimizing removal down to n_a active ports.

    The one-row case of _batch_tmd: ties on the removal metric resolve to
    the smallest port index, and a row that _batch_tmd fails (its Gram
    fails the condition screen) raises SingularChannelError.
    """
    n = h.shape[1]
    if not 2 <= h.shape[0] <= n_a <= n:
        raise ValueError(f"need 2 <= N_r <= N_a <= N, got N_r={h.shape[0]}, "
                         f"N_a={n_a}, N={n}")
    return _tmd_ports(h, np.arange(n), n_a)


def _tmd_ports(h: np.ndarray, cols: np.ndarray, n_a: int) -> PortSet:
    """_batch_tmd on the columns ``cols`` (0-based) of one channel, as a
    PortSet; raises SingularChannelError when the row fails."""
    idx, failed = _batch_tmd(h[None, :, cols].astype(complex, copy=False),
                             n_a)
    if failed[0]:
        raise SingularChannelError(
            "active-port Gram matrix is singular or ill conditioned")
    return PortSet(tuple(int(p) + 1 for p in cols[idx[0]]))


# ---------------------------------------------------------------------------
# two-stage low-complexity selection
# ---------------------------------------------------------------------------

def mce_tmd_select(h: np.ndarray, pairs: SortedPairArrays, n_b: int,
                   n_a: int) -> PortSet:
    """Correlation-guided pruning to n_b ports, then greedy removal to n_a.

    Stage one repeats N - N_b times: among the first min(N_b, remaining)
    entries of the geometry-ranked pair list (pairs containing removed ports
    drop out), find the pair with the largest channel inner product
    |h_n^H h_nbar| and remove its smaller-norm member; on a norm tie the
    larger port index goes. Stage two runs _batch_tmd on the survivors'
    columns.
    """
    n = h.shape[1]
    if not 2 <= h.shape[0] <= n_a < n_b < n:
        raise ValueError(
            f"need 2 <= N_r <= N_a < N_b < N, got N_r={h.shape[0]}, "
            f"N_a={n_a}, N_b={n_b}, N={n}")
    gram = h.conj().T @ h
    norms2 = gram.diagonal().real
    # pair scores never change (h is fixed), so compute them all once from
    # the Gram; the whole point of stage one is that no per-iteration
    # algebra is needed. The walk below is plain Python on purpose: the
    # windowed scan over a short ranked list is cheaper than array masking.
    # It reads the whole list, so it is the oracle of the engine's
    # _batch_mce_stage1, which scores only the prefix a window can reach.
    scores = np.abs(gram[pairs.first - 1, pairs.second - 1]).tolist()
    firsts = pairs.first.tolist()
    seconds = pairs.second.tolist()
    dead: set[int] = set()

    for _ in range(n - n_b):
        best = -1.0
        best_pos = -1
        seen = 0
        pos = 0
        # first min(n_b, remaining) live entries of the ranked pair list;
        # strict > keeps the earliest rank on a score tie
        while seen < n_b and pos < len(firsts):
            if firsts[pos] not in dead and seconds[pos] not in dead:
                seen += 1
                if scores[pos] > best:
                    best = scores[pos]
                    best_pos = pos
            pos += 1
        lo, hi = firsts[best_pos], seconds[best_pos]
        dead.add(lo if norms2[hi - 1] > norms2[lo - 1] else hi)

    survivors = [p for p in range(n) if p + 1 not in dead]
    return _tmd_ports(h, np.asarray(survivors, dtype=np.intp), n_a)


# ---------------------------------------------------------------------------
# subset capacities from principal-minor tables
# ---------------------------------------------------------------------------
# Both capacities are functions of the elementary symmetric polynomials e_k
# of a candidate's N_r x N_r Gram W = H_I H_I^H: ZF needs
# tr(W^-1) = e_{N_r-1} / e_{N_r}, and the regularized MMSE quantities are
# polynomial shifts of all of them. Scoring all C(N, N_a) candidates one
# factorization at a time, as optimal_select does, would dominate the Monte
# Carlo budget, so the engine's kernel (_minor_capacities) takes the e_k
# from tables shared by every candidate of a trial, and
# _subset_capacities, one SVD per candidate, is its reference.
#
# The tables hold principal minors. By
# Cauchy-Binet, e_k(W) is the sum of the k x k principal minors of K = H^H H
# over the candidate's columns, and each of those is
# det K[J, J] = sum_R |det H[R, J]|^2 over the k-row subsets R. So every
# k x k minor of H is tabulated once per trial, k = 1..N_r, each level by a
# Laplace expansion along the last column from the level below; the squared
# magnitudes are summed over R into P_k[J]; and a candidate's e_k is the sum
# of its C(N_a, k) entries of P_k. A level's sum is three elementwise
# passes: the real and imaginary parts are squared in one contiguous pass
# over a float view of the table, each pair is added into |det H[R, J]|^2,
# and the row subsets are added in order (k = N_r has a single one and
# needs no sum). An einsum over the 2-wide re/im axis and the R axis does
# the same additions in the same order but costs about four times as much
# on axes that short. Every term of these sums is >= 0, so they
# never cancel: at N_r = 8 on a half-wavelength aperture the capacities
# still agree with capacity_of_set to 1e-8 relative. Row and column subsets
# are indexed in colexicographic order, where the 0-based subset
# j_1 < ... < j_k has rank sum_t C(j_t, t), so dropping the largest element
# only drops its own term.
#
# Under ZF the engine never forms the capacities. The capacity
# N_r log2(1 + 1 / (N_0 tr(W^-1))) falls as tr(W^-1) grows, so
# _batch_optimal ranks the candidates by the key tr(W^-1) = e_{N_r-1} /
# e_{N_r}, reads only levels N_r - 1 and N_r (and the squared column norms
# of level 1, for tr(W)), and takes each trial's first minimum. It screens
# that winner alone (_zf_winners): its tr(W) is the sum of its ports'
# norms, its bound tr(W) tr(W^-1) is _trace_bound_exceeded's, and
# _zf_scores rejects it as _minor_capacities would. This is exact: the
# candidates that pass the screen are a subset of the trial's candidates,
# so if the first minimum of all of them passes, it is also the first
# minimum of those that pass. A trial whose winner fails screens every
# candidate and takes the first minimum of what is left. The one
# difference from the first maximum of the capacity is a tie that the
# log2 merges but the key separates, and that needs keys within a few
# ulps of each other.

def _shifted_elementary(es: list[np.ndarray], c: float, n: int) -> list[np.ndarray]:
    """Elementary symmetric polynomials of {sigma_i + c} from those of
    {sigma_i}."""
    e_ext = [np.ones_like(es[0])] + es
    out = []
    for k in range(1, n + 1):
        acc = np.zeros_like(es[0])
        for j in range(0, k + 1):
            acc += math.comb(n - j, k - j) * (c ** (k - j)) * e_ext[j]
        out.append(acc)
    return out


def _charpoly_eval(es: list[np.ndarray], x: complex, n: int) -> np.ndarray:
    """prod_k (sigma_k - x) from the elementary symmetric polynomials."""
    e_ext = [np.ones_like(es[0])] + es
    # the j = 0 and 1 terms without **, which would run numpy's elementwise
    # complex power; (-x)^0 = 1 and (-x)^1 = -x exactly, so every sum is
    # unchanged
    acc = e_ext[n] + e_ext[n - 1] * -x
    for j in range(2, n + 1):
        acc += e_ext[n - j] * ((-x) ** j)
    return acc


def _mmse_capacity(es: list[np.ndarray], n0: float, n_r: int):
    """MMSE capacity from e_1..e_{N_r}; returns (capacity, bad). Call under
    np.errstate(divide/invalid="ignore")."""
    c = n_r * n0
    fs = _shifted_elementary(es, c, n_r)
    f_n = fs[-1]
    tr_vinv = (fs[-2] if n_r > 1 else np.ones_like(f_n)) / f_n
    if n_r > 2:
        e2_inv = fs[-3] / f_n
    elif n_r == 2:
        e2_inv = 1.0 / f_n
    else:
        e2_inv = np.zeros_like(f_n)
    tr_vinv2 = tr_vinv ** 2 - 2.0 * e2_inv
    t = tr_vinv - c * tr_vinv2  # tr(W (W + cI)^-2)
    beta2 = n_r / t
    a = 1.0 + beta2 / (n_r * n0)
    r = (-c + 1j * c * np.sqrt(a - 1.0)) / a
    q = _charpoly_eval(es, r, n_r)
    cap = n_r * np.log2(a) + 2.0 * np.log2(np.abs(q)) - 2.0 * np.log2(f_n)
    return cap, ~(t > 0) | ~(f_n > 0)


def _colex_rank(subset) -> int:
    """Rank of a sorted 0-based subset among those of its size, colex order."""
    return sum(math.comb(j, t) for t, j in enumerate(subset, start=1))


@lru_cache(maxsize=8)
def _binomials(n: int) -> np.ndarray:
    """(n, n + 1) table of C(v, t)."""
    return np.array([[math.comb(v, t) for t in range(n + 1)]
                     for v in range(n)], dtype=np.intp)


@lru_cache(maxsize=32)
def _laplace_plan(n_r: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat gather plan for the k x k minors of an N_r x N matrix, k >= 2.

    A k x k minor table is stored flat as (row subset, column subset), both
    in colex order. Returns (entry, minor), both (k, C(n_r, k) C(n, k)):
    for row position p of each (R, J), the flat index into H of H[r_p, j_k]
    and the index into the (k-1) x (k-1) table of the minor without row r_p
    and column j_k.
    """
    row_sets = sorted(combinations(range(n_r), k), key=_colex_rank)
    rows = np.array(row_sets, dtype=np.intp)
    rest_r = np.array([[_colex_rank(s[:p] + s[p + 1:]) for p in range(k)]
                       for s in row_sets], dtype=np.intp)
    # the column subsets whose largest column is j hold the ranks from
    # C(j, k) on, ordered as the colex ranks of the rest
    binom = _binomials(n)
    last = np.repeat(np.arange(n, dtype=np.intp), binom[:, k - 1])
    rest_c = np.arange(last.size, dtype=np.intp) - binom[last, k]
    entry = rows.T[:, :, None] * n + last
    minor = rest_r.T[:, :, None] * math.comb(n, k - 1) + rest_c
    # cached plans live as long as the process; int32 halves them
    return (entry.reshape(k, -1).astype(np.int32),
            minor.reshape(k, -1).astype(np.int32))


def _minor_workspace(n_r: int, n: int, b: int) -> tuple[np.ndarray, ...]:
    """Four flat complex buffers, each holding the widest k x k minor table
    (k >= 1) of an N_r x N matrix for b trials. Level 1 counts because the
    level sums use two of the buffers as scratch.

    _principal_minors fills them level by level instead of allocating a
    table per level. Tables of tens to hundreds of KB, freed and allocated
    again on every tile, can each be mapped fresh by the allocator and
    page-fault on first touch; one workspace per exhaustive search does not.
    """
    widest = max(math.comb(n_r, k) * math.comb(n, k)
                 for k in range(1, n_r + 1))
    return tuple(np.empty(widest * b, dtype=complex) for _ in range(4))


def _principal_minors(hb: np.ndarray, levels: set[int],
                      work: tuple[np.ndarray, ...]) -> dict[int, np.ndarray]:
    """P_k[J, b] = det K[J, J] for K = H^H H and every k-column subset J.

    ``hb`` is (B, N_r, N); returns {k: (C(N, k), B) real} for k in
    ``levels`` (each <= N_r), J in colex order. Trials run along the last
    axis so every gather moves a contiguous row of B values. ``work`` is a
    _minor_workspace for at least B trials.
    """
    b, n_r, n = hb.shape
    h = np.ascontiguousarray(hb.transpose(1, 2, 0)).reshape(n_r * n, b)
    minors = h  # level 1: det H[{r}, {j}] at r * N + j
    out = {}
    for k in range(1, max(levels) + 1):
        if k > 1:
            entry, minor = _laplace_plan(n_r, n, k)
            below = minors
            # levels alternate between the first two buffers; the other two
            # hold one Laplace term and its factor. Indices are in range, so
            # mode="clip" only skips the copy take makes under "raise".
            minors, term, part = (
                buf[:entry.shape[1] * b].reshape(-1, b)
                for buf in (work[k % 2], work[2], work[3]))
            # Laplace along the last column: sign (-1)^(p + k - 1) on row p
            np.take(h, entry[k - 1], axis=0, out=minors, mode="clip")
            minors *= np.take(below, minor[k - 1], axis=0, out=part,
                              mode="clip")
            for p in range(k - 2, -1, -1):
                np.take(h, entry[p], axis=0, out=term, mode="clip")
                term *= np.take(below, minor[p], axis=0, out=part,
                                mode="clip")
                if (k - 1 - p) % 2:
                    minors -= term
                else:
                    minors += term
        if k in levels:
            # |det H[R, J]|^2 summed over R (see the section comment), in
            # the two buffers this level's Laplace terms no longer need
            rows = math.comb(n_r, k)
            sq = np.square(minors.view(np.float64).ravel(),
                           out=work[2].view(np.float64)[:2 * minors.size])
            if rows == 1:
                out[k] = np.add(sq[0::2], sq[1::2]).reshape(-1, b)
            else:
                mag = np.add(sq[0::2], sq[1::2],
                             out=work[3].view(np.float64)[:minors.size])
                out[k] = mag.reshape(rows, -1).sum(axis=0).reshape(-1, b)
    return out


@lru_cache(maxsize=32)
def _subset_ranks(n: int, n_a: int, pos: tuple[int, ...]) -> np.ndarray:
    """(S,) colex ranks, among the len(pos)-subsets of range(n), of the
    entries at positions ``pos`` of each candidate in _subset_table(n, n_a)."""
    subsets = _subset_table(n, n_a)
    binom = _binomials(n)
    rank = np.zeros(len(subsets), dtype=np.int32)
    for t, q in enumerate(pos, start=1):
        rank += binom[subsets[:, q], t]
    return rank


def _subset_sums(table: np.ndarray, n: int, n_a: int, k: int) -> np.ndarray:
    """(S, B): each candidate's sum of ``table`` (C(n, k), B), colex rows,
    over its k-subsets; candidates as in _subset_table(n, n_a)."""
    acc = None
    for pos in combinations(range(n_a), k):
        part = np.take(table, _subset_ranks(n, n_a, pos), axis=0)
        if acc is None:
            acc = part
        else:
            acc += part
    return acc


def _trace_bound_exceeded(tr_w, e_below, det):
    """The exhaustive search's ZF screen: tr(W) tr(W^-1) = tr_w e_below / det
    exceeds MAX_CONDITION (overstating cond(W) by up to N_r^2) or is NaN."""
    return ~(tr_w * e_below <= MAX_CONDITION * det)


def _zf_sums(hb: np.ndarray, n_a: int, work: tuple[np.ndarray, ...]):
    """The ZF search's inputs for a stack of channels ``hb`` (B, N_r, N):
    the level-1 table (N, B), each port's squared column norm, and the
    (S, B) e_{N_r-1} and e_{N_r} of the candidates _subset_table(N, n_a)."""
    n_r, n = hb.shape[1:]
    tables = _principal_minors(hb, {1, n_r - 1, n_r}, work)
    return (tables[1], _subset_sums(tables[n_r - 1], n, n_a, n_r - 1),
            _subset_sums(tables[n_r], n, n_a, n_r))


def _zf_scores(e_below, det, tr_w, n0: float, n_r: int):
    """(key, capacity, rejected) of ZF candidates from e_{N_r-1}
    (``e_below``), e_{N_r} (``det``) and tr(W) (``tr_w``), arrays of one
    shape.

    key = tr(W^-1) = e_below / det, and the capacity N_r log2(1 + 1 /
    (N_0 key)) falls as the key grows. A candidate is rejected where
    det > 0 fails, where 1/key is not finite and > 0 (the key is NaN, not
    > 0, too small to invert, or +inf, an overflow that the bound rejects
    anyway), where the capacity is not finite, and where the bound
    tr(W) tr(W^-1) exceeds MAX_CONDITION (_trace_bound_exceeded). A sum of
    squares is rarely exactly 0, so det > 0 alone cannot flag a singular
    Gram; the bound does. Call under np.errstate(divide/invalid="ignore").
    """
    key = e_below / det
    cap = np.multiply(key, n0)
    np.divide(1.0, cap, out=cap)
    cap += 1.0
    np.log2(cap, out=cap)
    cap *= n_r
    inv = 1.0 / key
    rejected = (~(det > 0) | ~(inv > 0) | ~(inv < np.inf) | ~np.isfinite(cap)
                | _trace_bound_exceeded(tr_w, e_below, det))
    return key, cap, rejected


def _minor_capacities(hb: np.ndarray, n_a: int, kind: str, n0: float,
                      work: tuple[np.ndarray, ...] | None = None
                      ) -> np.ndarray:
    """(B, S) capacities of the candidates _subset_table(N, n_a) for a stack
    of channels ``hb`` (B, N_r, N).

    Candidates that cannot be precoded score -inf: under ZF those that
    _zf_scores rejects, among them every candidate whose Gram condition
    bound tr(W) tr(W^-1) exceeds MAX_CONDITION, and under MMSE those whose
    capacity terms are not positive or not finite. Agrees with
    capacity_of_set to 1e-8 relative up to N_r = 8. ``work`` is a
    _minor_workspace for at least B trials, allocated when omitted.
    """
    n_r, n = hb.shape[1:]
    if kind not in ("zf", "mmse"):
        raise ValueError(f"unknown precoder kind {kind!r}")
    if work is None:
        work = _minor_workspace(n_r, n, hb.shape[0])
    if kind == "zf":
        norms2, e_below, det = _zf_sums(hb, n_a, work)
        tr_w = _subset_sums(norms2, n, n_a, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            _, cap, bad = _zf_scores(e_below, det, tr_w, n0, n_r)
    else:
        tables = _principal_minors(hb, set(range(1, n_r + 1)), work)
        es = [_subset_sums(tables[k], n, n_a, k) for k in range(1, n_r + 1)]
        with np.errstate(divide="ignore", invalid="ignore"):
            cap, bad = _mmse_capacity(es, n0, n_r)
        bad |= ~np.isfinite(cap)
    cap[bad] = -np.inf
    return cap.T


# ---------------------------------------------------------------------------
# batch variants for the Monte Carlo engine
# ---------------------------------------------------------------------------

def _masked_choice(cost, den, act):
    """_batch_tmd's port choice with the mask, on some of its rows: the
    first least cost among active ports with den > REMOVAL_EPS. Returns
    (ports, bad); a bad row has no finite cost and sheds its first active
    port, so that it still loses exactly one per step."""
    cost = np.where(act & (den > REMOVAL_EPS), cost, np.inf)
    j = np.argmin(cost, axis=1)
    bad = ~np.isfinite(cost[np.arange(len(j)), j])
    j[bad] = np.argmax(act[bad], axis=1)
    return j, bad


def _batch_tmd(hb: np.ndarray, n_a: int):
    """Greedy trace-minimizing removal on a stack of channels, from all N
    ports down to n_a.

    Returns (indices (B, n_a) 0-based ascending, failed (B,)).

    Each step removes the active port of least cost num_n / den_n, with
    num_n = ||A h_n||^2 and den_n = 1 - h_n^H A h_n for the inverse Gram A
    of the active ports (tmd_trace_metric); a tie goes to the smallest
    index, and a port with den_n <= REMOVAL_EPS (or NaN) is not removable.
    A removed port's num is +inf, so a step takes the first argmin of num /
    max(den, REMOVAL_EPS) with no mask. A finite winner with den >
    REMOVAL_EPS is active and is the masked rule's winner, ties included:
    masking only raises costs, and every column before the winner already
    costs strictly more (none is NaN, or argmin would return it). Only rows
    whose winner fails that check take the masked rule (_masked_choice).
    The scores are computed once, from V = A H after the screen, and then
    carried across removals by rank-one recurrences instead of being
    rescored. The Gram and those first scores are formed _ROW_BLOCK trials
    at a time, so no (B, N_r, N) temporary is made; each trial's
    arithmetic is the same in any block. Removing port j, with d = den_j,
    v = A h_j, vn = num_j = ||v||^2, a = v / sqrt(d) and c = 2 A a +
    (vn / d) a:

        den_n <- den_n - |a^H h_n|^2
        num_n <- num_n + Re(conj(a^H h_n) (c^H h_n))
        A     <- A + a a^H                            (smw_downdate)

    the same downdate as with w_n = (v^H h_n) / d and p_n = (A v)^H h_n:
    den_n -= d |w_n|^2, num_n += 2 Re(conj(p_n) w_n) + |w_n|^2 vn. A step
    thus costs three batched matvecs, two vector-matrix products (a^H H,
    c^H H) and six (B, N) elementwise passes; the last removal updates
    nothing. The carried scores equal rescored ones only up to rounding, so
    where two costs tie within rounding the pick can differ from that of a
    walk that rescores every port at every step, such as the tests' oracle
    built on tmd_trace_metric and smw_downdate.

    A row whose Gram fails the screen of _screened_hermitian_inverse is
    failed. A step with no finite cost fails its row too, but on a row that
    passed the screen that takes rounding: with k > N_r active ports the
    leverages h_n^H A h_n sum to tr(A H H^H) = N_r, so the dens sum to
    k - N_r >= 1 and one of them is >= 1/k, far above REMOVAL_EPS. The test
    stays as a guard against rounding. A failed row's removals update with
    d = 1 wherever den_j <= REMOVAL_EPS (or NaN), so no square root of a
    non-positive number is taken, and every row returns n_a indices.
    """
    b, n_r, n = hb.shape
    hb = np.ascontiguousarray(hb)
    gram = np.empty((b, n_r, n_r), dtype=complex)
    for lo in range(0, b, _ROW_BLOCK):
        blk = hb[lo:lo + _ROW_BLOCK]
        np.matmul(blk, blk.conj().transpose(0, 2, 1),
                  out=gram[lo:lo + _ROW_BLOCK])
    inv, failed = _screened_hermitian_inverse(gram)
    den, num = np.empty((b, n)), np.empty((b, n))
    # initial scores over float64 views (_ROW_BLOCK, N_r, 2N) of V = A H:
    # re and im products of each entry added, then the receive rows in
    # order; the two block buffers go before the loop
    v = np.empty((min(b, _ROW_BLOCK), n_r, n), dtype=complex)
    terms = np.empty((v.shape[0], n_r, 2 * n))
    for lo in range(0, b, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        blk = hb[rows]
        vb = np.matmul(inv[rows], blk, out=v[:blk.shape[0]]).view(np.float64)
        tb = np.multiply(blk.view(np.float64), vb, out=terms[:blk.shape[0]])
        np.add(tb[..., 0::2], tb[..., 1::2], out=tb[..., 0::2])
        np.subtract(1.0, tb[..., 0::2].sum(axis=1), out=den[rows])
        np.multiply(vb, vb, out=tb)
        np.add(tb[..., 0::2], tb[..., 1::2], out=tb[..., 0::2])
        tb[..., 0::2].sum(axis=1, out=num[rows])
    del gram, v, terms
    act = np.ones((b, n), dtype=bool)
    rows = np.arange(b)
    cost, t = np.empty((b, n)), np.empty((b, n))
    a = np.empty((b, n_r, 1), dtype=complex)
    ah, ch = (np.empty((b, 1, n), dtype=complex) for _ in range(2))
    # float64 views (B, 2N) of a^H H and c^H H, re and im interleaved
    af, cf = ah.view(np.float64)[:, 0], ch.view(np.float64)[:, 0]
    prod = np.empty((b, 2 * n))
    outer = np.empty_like(inv)
    for left in range(n - n_a, 0, -1):
        # removed ports cost +inf: no mask unless the winner fails its check
        np.divide(num, np.maximum(den, REMOVAL_EPS, out=cost), out=cost)
        j = np.argmin(cost, axis=1)
        redo = np.nonzero(~((den[rows, j] > REMOVAL_EPS)
                            & np.isfinite(cost[rows, j])))[0]
        if redo.size:
            j[redo], bad = _masked_choice(cost[redo], den[redo], act[redo])
            failed[redo[bad]] = True
        act[rows, j] = False
        if left == 1:
            break
        dj, vn = den[rows, j], num[rows, j]
        num[rows, j] = np.inf
        dj[~(dj > REMOVAL_EPS)] = 1.0  # dead rows only
        np.matmul(inv, hb[rows, :, j, None], out=a)  # v = A h_j
        a /= np.sqrt(dj)[:, None, None]
        c = 2.0 * (inv @ a) + (vn / dj)[:, None, None] * a
        np.matmul(a.conj().transpose(0, 2, 1), hb, out=ah)
        np.matmul(c.conj().transpose(0, 2, 1), hb, out=ch)
        np.multiply(af, af, out=prod)
        np.add(prod[:, 0::2], prod[:, 1::2], out=t)  # |a^H h_n|^2
        den -= t
        np.multiply(cf, af, out=prod)
        np.add(prod[:, 0::2], prod[:, 1::2], out=t)  # Re(conj(a^H h) c^H h)
        num += t
        np.matmul(a, a.conj().transpose(0, 2, 1), out=outer)
        inv += outer
    idx = np.nonzero(act)[1].reshape(b, n_a)
    return idx, failed


def _stage1_depth(pf: np.ndarray, ps: np.ndarray, n: int, n_b: int) -> int:
    """The ranked pairs stage one reads: the least prefix length P for which
    P minus the sum of the N - n_b - 1 largest port degrees (pairs holding
    the port) among the first P pairs is at least n_b, capped at the list
    length. The pair list (0-based members pf, ps) alone sets it.

    Removal r sees r <= N - n_b - 1 removed ports, which killed at most
    the sum of their degrees among the first P pairs, so at least n_b of
    them are live and the window of every removal ends inside the prefix.
    """
    hits = np.zeros((pf.size, n), dtype=np.intp)
    hits[np.arange(pf.size), pf] += 1
    hits[np.arange(pf.size), ps] += 1
    degrees = np.sort(np.cumsum(hits, axis=0), axis=1)
    killed = degrees[:, n_b + 1:].sum(axis=1)  # the N - n_b - 1 largest
    enough = np.arange(1, pf.size + 1) - killed >= n_b
    return int(np.argmax(enough)) + 1 if enough.any() else pf.size


def _batch_mce_stage1(hb: np.ndarray, pairs: SortedPairArrays,
                      n_b: int) -> np.ndarray:
    """Stage-one survivor masks (B, N) for a stack of channels.

    Same walk as mce_tmd_select, all trials at once: each removal scores
    the first n_b live entries of the ranked pair list and takes the first
    maximum among them. Only the prefix that _stage1_depth sizes from the
    pair list is scored; every window ends inside it, whatever the
    channel, so the walk is exact. On the 4x4 grid at n_b = 12 that is 24
    of the 120 pairs. Their |h_i^H h_j| are formed without the (B, N, N)
    Gram, adding the receive rows in order, and the port norms come from
    the channel.
    """
    b, n_r, n = hb.shape
    pf = pairs.first.astype(np.intp) - 1
    ps = pairs.second.astype(np.intp) - 1
    depth = _stage1_depth(pf, ps, n, n_b)
    pf, ps = pf[:depth], ps[:depth]
    # trials last, so each receive row's pair gathers copy whole rows
    ht = np.ascontiguousarray(hb.transpose(1, 2, 0))
    acc = ht[0, pf].conj()
    acc *= ht[0, ps]
    term = np.empty_like(acc)
    for r in range(1, n_r):
        np.conjugate(ht[r, pf], out=term)
        term *= ht[r, ps]
        acc += term
    inner = np.ascontiguousarray(np.abs(acc).T)
    sq = hb.real ** 2
    sq += hb.imag ** 2
    norms2 = sq.sum(axis=1)
    alive = np.ones((b, depth), dtype=bool)
    masks = np.ones((b, n), dtype=bool)
    rows = np.arange(b)
    for _ in range(n - n_b):
        window = alive & (np.cumsum(alive, axis=1) <= n_b)
        j = np.argmax(np.where(window, inner, -np.inf), axis=1)
        lo, hi = pf[j], ps[j]
        removed = np.where(norms2[rows, hi] > norms2[rows, lo], lo, hi)
        masks[rows, removed] = False
        alive &= (pf != removed[:, None]) & (ps != removed[:, None])
    return masks


def _batch_mce_tmd(hb: np.ndarray, pairs: SortedPairArrays, n_b: int,
                   n_a: int):
    """Two-stage MCE-TMD on a stack of channels: stage one prunes to n_b
    ports, stage two runs _batch_tmd on each row's n_b gathered survivors.

    Returns (indices (B, n_a) 0-based ascending, failed (B,)).
    """
    b = hb.shape[0]
    keep = np.nonzero(_batch_mce_stage1(hb, pairs, n_b))[1].reshape(b, n_b)
    idx, failed = _batch_tmd(np.take_along_axis(hb, keep[:, None, :], axis=2),
                             n_a)
    return np.take_along_axis(keep, idx, axis=1), failed


def _batch_optimal(hb: np.ndarray, n_a: int, kind: str, n0_sel: float):
    """Exhaustive selection on a stack of channels.

    Returns (indices (B, n_a) 0-based, failed (B,)). Trials are scored in
    tiles sized by _OPTIMAL_TILE_MINORS; a trial with no candidate left is
    failed and gets the first subset. Under MMSE a trial takes the first
    maximum of _minor_capacities; under ZF, the first minimum of tr(W^-1)
    among the candidates _zf_scores does not reject (_zf_winners).
    """
    b, n_r, n = hb.shape
    widest = max(math.comb(n_r, k) * math.comb(n, k)
                 for k in range(1, n_r + 1))
    tile = max(1, _OPTIMAL_TILE_MINORS // widest)
    work = _minor_workspace(n_r, n, min(tile, b))
    if kind == "zf":
        best, failed = _zf_winners(hb, n_a, n0_sel, tile, work)
    else:
        best = np.empty(b, dtype=np.intp)
        failed = np.empty(b, dtype=bool)
        for lo in range(0, b, tile):
            scores = _minor_capacities(hb[lo:lo + tile], n_a, kind, n0_sel,
                                       work)
            # first max = lexicographically smallest
            top = np.argmax(scores, axis=1)
            best[lo:lo + tile] = top
            failed[lo:lo + tile] = ~np.isfinite(
                scores[np.arange(top.size), top])
    return _subset_table(n, n_a)[np.where(failed, 0, best)], failed


def _zf_winners(hb: np.ndarray, n_a: int, n0: float, tile: int,
                work: tuple[np.ndarray, ...]):
    """(best (B,), failed (B,)): the first minimum of the ZF key among the
    candidates _subset_table(N, n_a) that _zf_scores does not reject,
    ``tile`` trials per _zf_sums call.

    Only the first minimum of the raw key on each row is screened, all
    rows at once after the tiles. If it passes, it is the row's answer: no
    key after it is smaller and none before it is as small (argmin returns
    a row's first NaN, and NaN is rejected), so screening the others
    cannot move it. The rows whose winner is rejected are scored again,
    every candidate screened, and take the first minimum of the rest; a
    row with none left is failed.
    """
    b, n_r, n = hb.shape
    best = np.empty(b, dtype=np.intp)
    e_below_best, det_best = np.empty(b), np.empty(b)
    norms2 = np.empty((n, b))
    for lo in range(0, b, tile):
        rows = slice(lo, lo + tile)
        norms2[:, rows], e_below, det = _zf_sums(hb[rows], n_a, work)
        with np.errstate(divide="ignore", invalid="ignore"):
            # the keys as (B, S), so argmin runs along contiguous rows
            top = np.argmin(np.divide(e_below.T, det.T, order="C"), axis=1)
        cols = np.arange(top.size)
        best[rows] = top
        e_below_best[rows], det_best[rows] = e_below[top, cols], det[top, cols]
    # tr(W) of each winner, its ports' norms added in _subset_sums' order so
    # the screen decides as _minor_capacities' does
    ports = _subset_table(n, n_a)[best]
    cols = np.arange(b)
    tr_w = norms2[ports[:, 0], cols]
    for t in range(1, n_a):
        tr_w = tr_w + norms2[ports[:, t], cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        failed = _zf_scores(e_below_best, det_best, tr_w, n0, n_r)[2]
    redo = np.flatnonzero(failed)
    for lo in range(0, redo.size, tile):
        rows = redo[lo:lo + tile]
        norms, e_below, det = _zf_sums(hb[rows], n_a, work)
        tr_w = _subset_sums(norms, n, n_a, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            key, _, rejected = _zf_scores(e_below, det, tr_w, n0, n_r)
        key[rejected] = np.inf
        top = np.argmin(key, axis=0)
        best[rows] = top
        failed[rows] = rejected[top, np.arange(rows.size)]
    return best, failed
