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
G = U diag(d) U^H with d = lambda / (lambda + N_r N_0), and beta_MMSE =
sqrt(N_r / sum lambda / (lambda + N_r N_0)^2). U and lambda = sigma^2 come
from one SVD of H, which keeps the small eigenvalues that set G at high SNR
accurate; inverting the formed Gram loses them to rounding.
``mmse_factor``, ``mmse_scales``, ``mmse_screen`` and ``gain_matrices`` are
that route on a stack of channels. The engine factors a batch once and
forms, at each SNR point, only the parts of G its receiver reads;
``mmse_precoder`` and ``effective_gain_matrix`` are one-channel views of the
same route.
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
    """

    matrix: np.ndarray
    beta: float


def _checked_hermitian_inverse(m: np.ndarray, what: str) -> np.ndarray:
    """Invert a Hermitian positive-definite matrix, guarding conditioning."""
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise SingularChannelError(
            f"{what} is singular or ill conditioned (cond ~ {cond:.3e})", cond)
    return np.linalg.solve(m, np.eye(m.shape[0], dtype=m.dtype))


def _condition_exceeded(m: np.ndarray, m_inv: np.ndarray) -> np.ndarray:
    """(B,) flags: the 1-norm condition number ||M||_1 ||M^-1||_1 of each
    matrix is not finite or exceeds MAX_CONDITION."""
    cond = (np.abs(m).sum(axis=1).max(axis=1)
            * np.abs(m_inv).sum(axis=1).max(axis=1))
    return ~np.isfinite(cond) | (cond > MAX_CONDITION)


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
    return inv, failed | _condition_exceeded(gram, inv)


def mmse_factor(h: np.ndarray):
    """(U (B, N_r, N_r), lambda (B, N_r)) with H H^H = U diag(lambda) U^H,
    from one SVD of each channel of the stack h (B, N_r, N_a), N_a >= N_r."""
    u, sigma = np.linalg.svd(h, full_matrices=False)[:2]
    return u, sigma ** 2


def mmse_scales(lam: np.ndarray, c: float):
    """(d, beta) at regularization c = N_r N_0: the eigenvalues d = lambda /
    (lambda + c) (B, N_r) of G and the power normalization beta (B,)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        w = lam + c
        return lam / w, np.sqrt(lam.shape[1] / (lam / w ** 2).sum(axis=1))


def mmse_screen(u: np.ndarray, lam: np.ndarray, c: float) -> np.ndarray:
    """(B,) flags: the 1-norm condition number of R = H H^H + c I exceeds
    MAX_CONDITION or is not finite.

    R = U diag(lambda + c) U^H and R^-1 = U diag(1 / (lambda + c)) U^H are
    formed from the factor; nothing is solved. Since ||A||_1 <= sqrt(n)
    ||A||_2, the condition is at most N_r (lambda_max + c) / (lambda_min +
    c), so a row with that bound below MAX_CONDITION / 2 passes without
    forming R; the factor 2 covers the rounding of forming it. On 2048-trial
    batches of the benchmark's MMSE workload every row passes so, and the
    screen takes about a tenth of the time of forming R on every row. An
    inverse taken by a solve of the formed R differs from the one here in
    its last digits, by up to about 1e-4 relative near a condition of 1e12,
    so a channel whose condition lies within that rounding of MAX_CONDITION
    may be screened differently by the two routes.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        w = lam + c
        check = np.flatnonzero(~(lam.shape[1] * w.max(axis=1)
                                 <= MAX_CONDITION / 2 * w.min(axis=1)))
        failed = np.zeros(lam.shape[0], dtype=bool)
        if check.size:
            u, w = u[check], w[check][:, None, :]
            uh = u.conj().transpose(0, 2, 1)
            failed[check] = _condition_exceeded((u * w) @ uh, (u / w) @ uh)
    return failed


def gain_matrices(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The gain matrices G = U diag(d) U^H (B, N_r, N_r) of a factor."""
    return (u * d[:, None, :]) @ u.conj().transpose(0, 2, 1)


def _screened_factor(h_active: np.ndarray, noise: NoiseModel):
    """(U, lambda, c) of one channel as a stack of one, through the screen
    at c = N_r N_0; a failing channel raises SingularChannelError."""
    u, lam = mmse_factor(h_active[None])
    c = h_active.shape[0] * noise.n0
    if mmse_screen(u, lam, c)[0]:
        raise SingularChannelError(
            "regularized channel Gram matrix is singular or ill conditioned")
    return u, lam, c


def zf_precoder(h_active: np.ndarray) -> Precoder:
    """Zero-forcing precoder for the active-port channel."""
    n_r = h_active.shape[0]
    gram = h_active @ h_active.conj().T
    inv = _checked_hermitian_inverse(gram, "channel Gram matrix")
    beta = float(np.sqrt(n_r / np.trace(inv).real))
    matrix = beta * (h_active.conj().T @ inv)
    return Precoder(matrix=matrix, beta=beta)


def mmse_precoder(h_active: np.ndarray, noise: NoiseModel) -> Precoder:
    """MMSE (regularized) precoder; degenerates to ZF as the noise vanishes.

    P = beta H^H U diag(1 / (lambda + N_r N_0)) U^H, from the stacked route.
    """
    u, lam, c = _screened_factor(h_active, noise)
    beta = float(mmse_scales(lam, c)[1][0])
    inv = (u[0] / (lam[0] + c)) @ u[0].conj().T
    return Precoder(matrix=beta * (h_active.conj().T @ inv), beta=beta)


def effective_gain_matrix(h_active: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Hermitian G = H H^H (H H^H + N_r N_0 I)^(-1) = U diag(d) U^H.

    The MMSE effective channel is beta * G; detectors use its columns (and
    its diagonal for the low-complexity path).
    """
    u, lam, c = _screened_factor(h_active, noise)
    return gain_matrices(u, mmse_scales(lam, c)[0])[0]
