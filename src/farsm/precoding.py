"""Zero-forcing and MMSE transmit precoding for the activated port subset.

With H the N_r x N_a channel over the active ports (N_a >= N_r), the
precoders are

    ZF:    P = beta * H^H (H H^H)^(-1)
    MMSE:  P = beta * H^H (H H^H + N_r N_0 I)^(-1)

with beta chosen so the transmit power constraint tr(P P^H) = N_r holds:

    beta_ZF   = sqrt(N_r / tr((H H^H)^(-1)))
    beta_MMSE = sqrt(N_r / tr(H H^H (H H^H + N_r N_0 I)^(-2)))

ZF turns the effective channel into beta * I; MMSE turns it into beta * G
where G = H H^H (H H^H + N_r N_0 I)^(-1) is Hermitian with a dominant
diagonal that approaches identity as the noise vanishes.

With H H^H = U diag(lambda) U^H the noise enters only through lambda:
G = U diag(lambda / (lambda + N_r N_0)) U^H and beta_MMSE =
sqrt(N_r / sum lambda / (lambda + N_r N_0)^2). The engine builds G, beta
and H P = beta G for every SNR point from one SVD of H per batch (lambda =
sigma^2); the functions below solve per call and are its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from farsm.errors import SingularChannelError

# Gram (or regularized Gram) condition numbers beyond this are treated as
# singular and surface as SingularChannelError.
MAX_CONDITION = 1e12


@dataclass(frozen=True)
class NoiseModel:
    """Receiver noise power N_0, with SNR defined as -10 log10(N_0) dB."""

    n0: float

    def __post_init__(self):
        if self.n0 < 0:
            raise ValueError(f"noise power must be >= 0, got {self.n0}")

    @classmethod
    def from_snr_db(cls, snr_db: float) -> "NoiseModel":
        return cls(n0=10.0 ** (-snr_db / 10.0))

    @property
    def snr_db(self) -> float:
        if self.n0 == 0:
            return np.inf
        return -10.0 * np.log10(self.n0)


@dataclass(frozen=True)
class Precoder:
    """Precoding matrix plus the scalar gain the receiver relies on.

    Attributes:
        matrix: (N_a, N_r) complex precoder P, power-normalized.
        beta: positive normalization gain.
        kind: 'zf' or 'mmse'.
        noise_power_used: the N_0 the precoder was designed for (0 for ZF).
    """

    matrix: np.ndarray
    beta: float
    kind: str
    noise_power_used: float


def _checked_hermitian_inverse(m: np.ndarray, what: str) -> np.ndarray:
    """Invert a Hermitian positive-definite matrix, guarding conditioning."""
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise SingularChannelError(
            f"{what} is singular or ill conditioned (cond ~ {cond:.3e})", cond)
    return np.linalg.solve(m, np.eye(m.shape[0], dtype=m.dtype))


def _screened_hermitian_inverse(gram: np.ndarray):
    """Inverses of a stack of Hermitian matrices (B, n, n), with a screen.

    Returns (inverse, failed (B,)); failed flags matrices that cannot be
    solved at all and those whose 1-norm condition number exceeds
    MAX_CONDITION.
    """
    n = gram.shape[1]
    eye = np.broadcast_to(np.eye(n), gram.shape)
    failed = np.zeros(gram.shape[0], dtype=bool)
    try:
        inv = np.linalg.solve(gram, eye)
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
    failed |= ~np.isfinite(cond) | (cond > MAX_CONDITION)
    return inv, failed


def zf_precoder(h_active: np.ndarray) -> Precoder:
    """Zero-forcing precoder for the active-port channel."""
    n_r = h_active.shape[0]
    gram = h_active @ h_active.conj().T
    inv = _checked_hermitian_inverse(gram, "channel Gram matrix")
    beta = float(np.sqrt(n_r / np.trace(inv).real))
    matrix = beta * (h_active.conj().T @ inv)
    return Precoder(matrix=matrix, beta=beta, kind="zf", noise_power_used=0.0)


def mmse_precoder(h_active: np.ndarray, noise: NoiseModel) -> Precoder:
    """MMSE (regularized) precoder; degenerates to ZF as the noise vanishes."""
    n_r = h_active.shape[0]
    gram = h_active @ h_active.conj().T
    reg = gram + n_r * noise.n0 * np.eye(n_r)
    inv = _checked_hermitian_inverse(reg, "regularized channel Gram matrix")
    beta = float(np.sqrt(n_r / np.trace(gram @ inv @ inv).real))
    matrix = beta * (h_active.conj().T @ inv)
    return Precoder(matrix=matrix, beta=beta, kind="mmse",
                    noise_power_used=noise.n0)


def effective_gain_matrix(h_active: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Hermitian G = H H^H (H H^H + N_r N_0 I)^(-1).

    The MMSE effective channel is beta * G; detectors use its columns (and
    its diagonal for the low-complexity path).
    """
    n_r = h_active.shape[0]
    gram = h_active @ h_active.conj().T
    reg = gram + n_r * noise.n0 * np.eye(n_r)
    inv = _checked_hermitian_inverse(reg, "regularized channel Gram matrix")
    return gram @ inv

