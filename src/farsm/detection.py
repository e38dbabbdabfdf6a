"""Receive-side detectors for precoded receive spatial modulation.

After precoding, the noiseless receive vector is beta * s_m * e_k (ZF) or
beta * s_m * g_k (MMSE, g_k the k-th column of the effective gain matrix G).
Detectors recover (k, m):

* ``mld_zf`` / ``mld_mmse``: joint maximum-likelihood search over all
  N_r x M hypotheses.
* ``med``: maximum energy detection. The strongest receive entry names the
  antenna; the symbol is demapped from that entry alone using the scalar
  gain (beta, or beta * G[k, k] for MMSE). One magnitude pass instead of a
  joint search.
* ``rttd``: threshold switch between the two. The ratio of the second
  largest to the largest receive energy measures how concentrated y is;
  concentrated vectors (ratio below gamma) are safe for the cheap path,
  the rest fall back to the joint search. The batched RTTD of the sweep
  engine (``farsm.simulate._detect_batch``) likewise runs the joint search
  only on the rows with ratio >= gamma.

Ties resolve to the smallest index pair (k, then m); all antenna indices at
this interface are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from farsm.modulation import Constellation


@dataclass(frozen=True)
class RttdConfig:
    """Threshold for the ratio test; gamma in [0, 1].

    gamma = 0 always takes the joint search, gamma = 1 (almost surely)
    always takes the energy path.
    """

    gamma: float = 0.6

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")


@dataclass(frozen=True)
class DetectionResult:
    """Detected antenna (1-based), symbol index, and which path decided.

    ``branch`` is 'mld' or 'med'; for the ratio-test detector it records the
    branch actually taken.
    """

    antenna: int
    symbol: int
    branch: str


def mld_zf(y: np.ndarray, beta: float,
           constellation: Constellation) -> DetectionResult:
    """Joint ML search for a zero-forced channel: argmin ||y - beta s_m e_k||.

    Only the k-th residual entry depends on the hypothesis, so the cost
    reduces to |y_k - beta s_m|^2 - |y_k|^2 per (k, m) pair.
    """
    d = y[:, None] - beta * constellation.points[None, :]
    cost = (d.real ** 2 + d.imag ** 2) - (np.abs(y) ** 2)[:, None]
    k, m = np.unravel_index(np.argmin(cost), cost.shape)
    return DetectionResult(antenna=int(k) + 1, symbol=int(m), branch="mld")


def mld_mmse(y: np.ndarray, beta: float, gain: np.ndarray,
             constellation: Constellation) -> DetectionResult:
    """Joint ML search against the MMSE effective columns beta * g_k."""
    z = gain.conj().T @ y                                    # g_k^H y
    gn = np.einsum("ij,ij->j", gain.conj(), gain).real       # ||g_k||^2
    c = beta * constellation.points
    cost = (np.abs(c) ** 2)[None, :] * gn[:, None] - 2.0 * np.real(
        np.conj(c)[None, :] * z[:, None])
    k, m = np.unravel_index(np.argmin(cost), cost.shape)
    return DetectionResult(antenna=int(k) + 1, symbol=int(m), branch="mld")


def mld_generic(y: np.ndarray, effective: np.ndarray,
                constellation: Constellation) -> DetectionResult:
    """Reference ML search by explicit residual enumeration.

    ``effective`` is the noiseless receive matrix whose column k is the
    response to antenna k at unit symbol. Slow; exists as an oracle for the
    specialized searches.
    """
    n_r = y.shape[0]
    best = (np.inf, 0, 0)
    for k in range(n_r):
        for m, s in enumerate(constellation.points):
            r = float(np.linalg.norm(y - s * effective[:, k]) ** 2)
            if r < best[0]:
                best = (r, k, m)
    return DetectionResult(antenna=best[1] + 1, symbol=best[2], branch="mld")


def med(y: np.ndarray, beta: float, constellation: Constellation,
        gain_diag: np.ndarray | None = None) -> DetectionResult:
    """Maximum energy detection: strongest entry names the antenna.

    ``gain_diag`` supplies the real diagonal of the MMSE effective gain
    matrix; when omitted the demap gain is beta alone (ZF).
    """
    k = int(np.argmax(np.abs(y) ** 2))
    scale = beta if gain_diag is None else beta * float(gain_diag[k])
    m = int(np.argmin(np.abs(y[k] - scale * constellation.points) ** 2))
    return DetectionResult(antenna=k + 1, symbol=m, branch="med")


def energy_ratio(y: np.ndarray) -> float:
    """Second-largest over largest receive energy, in [0, 1].

    An all-zero vector reports 1.0 (nothing is concentrated).
    """
    e = np.sort(np.abs(y) ** 2)
    if e[-1] == 0.0:
        return 1.0
    return float(e[-2] / e[-1])


def rttd(y: np.ndarray, beta: float, constellation: Constellation,
         config: RttdConfig, gain: np.ndarray | None = None) -> DetectionResult:
    """Ratio-test two-stage detection.

    Energy ratio below gamma routes to the energy detector, otherwise to the
    joint ML search. ``gain`` (the MMSE effective matrix) switches both
    branches to their MMSE forms.
    """
    if energy_ratio(y) < config.gamma:
        diag = None if gain is None else np.diag(gain).real
        r = med(y, beta, constellation, gain_diag=diag)
        return DetectionResult(antenna=r.antenna, symbol=r.symbol, branch="med")
    if gain is None:
        return mld_zf(y, beta, constellation)
    return mld_mmse(y, beta, gain, constellation)
