"""Receive-side detectors for precoded receive spatial modulation.

After precoding, the noiseless receive vector is beta * s_m * e_k (ZF) or
beta * s_m * g_k (MMSE, g_k the k-th column of the effective gain matrix G).
The detectors are stacked kernels: each takes B receive vectors ``y`` (B,
N_r), the per-row gains ``beta`` (B,), the per-row gain matrices ``gain``
(B, N_r, N_r) or None for ZF, and the constellation ``points``, and
returns the 0-based (k, m) of every row as two (B,) arrays.

* ``mld``: joint maximum-likelihood search over all N_r x M hypotheses.
* ``med``: maximum energy detection. The strongest receive entry names the
  antenna; the symbol is demapped from that entry alone using the scalar
  gain (beta, or beta * G[k, k] for MMSE). One magnitude pass instead of a
  joint search.
* ``energy_ratio``: the second largest over the largest receive energy,
  which measures how concentrated y is.

RTTD switches between the two detectors: rows whose ratio lies below gamma
are safe for the cheap energy path, the rest fall back to the joint search.
Its gate is the engine's detect stage, ``farsm.simulate._detect_batch``,
which runs each detector only on its own rows. ``mld_generic`` enumerates
residuals explicitly and is the oracle the kernels are tested against.

Ties resolve to the smallest index pair (k, then m).
"""

from __future__ import annotations

import numpy as np


def mld(y: np.ndarray, beta: np.ndarray, gain: np.ndarray | None,
        points: np.ndarray):
    """Joint ML search: argmin over (k, m) of ||y - beta s_m c_k||^2 per row.

    Under ZF (``gain`` None) c_k = e_k, so only the k-th residual entry
    depends on the hypothesis and the cost reduces to |y_k - beta s_m|^2 -
    |y_k|^2. Under MMSE c_k = g_k and the cost is |beta s_m|^2 ||g_k||^2 -
    2 Re(conj(beta s_m) g_k^H y). Returns (k, m), each (B,) and 0-based.
    """
    m_count = points.size
    if gain is None:
        d = y[:, :, None] - beta[:, None, None] * points[None, None, :]
        cost = (d.real ** 2 + d.imag ** 2) - (np.abs(y) ** 2)[:, :, None]
    else:
        z = np.einsum("brk,br->bk", gain.conj(), y)
        gn = np.einsum("brk,brk->bk", gain, gain.conj()).real
        c = beta[:, None] * points[None, :]
        cost = (np.abs(c) ** 2)[:, None, :] * gn[:, :, None] - 2.0 * np.real(
            np.conj(c)[:, None, :] * z[:, :, None])
    flat = np.argmin(cost.reshape(cost.shape[0], -1), axis=1)
    return flat // m_count, flat % m_count


def med(y: np.ndarray, beta: np.ndarray, gain: np.ndarray | None,
        points: np.ndarray):
    """Maximum energy detection: the strongest entry of each row names k.

    The symbol is the point nearest y_k / scale, scale being beta under ZF
    (``gain`` None) and beta times the real diagonal entry G[k, k] under
    MMSE. Returns (k, m), each (B,) and 0-based.
    """
    k = np.argmax(np.abs(y) ** 2, axis=1)
    yk = np.take_along_axis(y, k[:, None], axis=1)[:, 0]
    scale = beta
    if gain is not None:
        diag = np.diagonal(gain, axis1=1, axis2=2).real
        scale = beta * np.take_along_axis(diag, k[:, None], axis=1)[:, 0]
    m = np.argmin(np.abs(yk[:, None] - scale[:, None] * points[None, :]) ** 2,
                  axis=1)
    return k, m


def energy_ratio(y: np.ndarray) -> np.ndarray:
    """(B,) second-largest over largest receive energy, in [0, 1].

    An all-zero row reports 1 (nothing is concentrated).
    """
    e = np.abs(y) ** 2
    largest = e.max(axis=1)
    second = np.partition(e, e.shape[1] - 2, axis=1)[:, -2]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(largest > 0, second / np.maximum(largest, 1e-300), 1.0)


def mld_generic(y: np.ndarray, effective: np.ndarray, points: np.ndarray):
    """Reference ML search for one receive vector by residual enumeration.

    ``effective`` is the noiseless receive matrix whose column k is the
    response to antenna k at unit symbol. Returns the 0-based (k, m). Slow;
    exists as an oracle for the stacked kernels.
    """
    n_r = y.shape[0]
    best = (np.inf, 0, 0)
    for k in range(n_r):
        for m, s in enumerate(points):
            r = float(np.linalg.norm(y - s * effective[:, k]) ** 2)
            if r < best[0]:
                best = (r, k, m)
    return best[1], best[2]
