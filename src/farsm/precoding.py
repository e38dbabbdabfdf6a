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
sqrt(N_r / sum lambda / (lambda + N_r N_0)^2). The factor comes from eigh
of the formed Gram where its eigenvalue ratio lambda_max / lambda_min is at
most EIGH_MAX_RATIO, and from one SVD of H (lambda = sigma^2) elsewhere:
forming the Gram squares the condition, and above that ratio rounding
takes the small eigenvalues that set G at high SNR, which the SVD keeps
(``mmse_factor`` derives the bound). ``mmse_factor``, ``mmse_scales`` and
``mmse_screen`` are that route on a stack of channels. The engine factors
a batch once and forms, at each SNR point, only the parts of G its
receiver reads, never G; ``mmse_precoder`` and ``effective_gain_matrix``
(the one place G is formed) are its views on a stack of one, as
``zf_precoder`` is of ``zf_precoders``. Under ZF the engine keeps the
screened inverse Gram and forms only the sent columns (H P) e_k
(``zf_sent_columns``). Every route decides precodability
by one of two screens of the 1-norm condition number:
``_screened_hermitian_inverse`` for formed inverses, ``mmse_screen`` for
factors. The first is one Cholesky factor-and-invert of a whole stack, so
a Gram's inverse and flag are the same bit for bit alone and in a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from farsm.errors import SingularChannelError

# Gram (or regularized Gram) condition numbers beyond this are treated as
# singular and surface as SingularChannelError.
MAX_CONDITION = 1e12

# mmse_factor takes eigh of the formed Gram on rows whose eigenvalue ratio
# lambda_max / lambda_min is at most this, and the SVD of H on the others.
EIGH_MAX_RATIO = 1e4


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


def _condition_exceeded(m: np.ndarray, m_inv: np.ndarray) -> np.ndarray:
    """(B,) flags: the 1-norm condition number ||M||_1 ||M^-1||_1 of each
    matrix is not finite or exceeds MAX_CONDITION.

    Each 1-norm adds the rows of |M| in order and takes the maximum over the
    columns in order, both matrices of all B rows in each numpy call; the
    sums are those of ``np.abs(m).sum(axis=1)``, bit for bit.
    """
    b, n = m.shape[:2]
    a = np.empty((2, b, n, n))
    np.abs(m, out=a[0])
    np.abs(m_inv, out=a[1])
    col = a[:, :, 0].copy()
    for i in range(1, n):
        col += a[:, :, i]
    norm = col[..., 0].copy()
    for j in range(1, n):
        np.maximum(norm, col[..., j], out=norm)
    # NaN and +inf fail the comparison
    return ~(norm[0] * norm[1] <= MAX_CONDITION)


# [1, -1] per plane: (re, im) planes of z taken in reverse order and times
# this give those of -i z, i.e. (Im z, -Re z)
_SWAP = np.array([1.0, -1.0])[:, None, None]


def _screened_hermitian_inverse(gram: np.ndarray):
    """Inverses of a stack of Hermitian matrices (B, n, n), with a screen.

    Returns (inverse (B, n, n), failed (B,)); failed flags the matrices
    whose 1-norm condition number is not finite or exceeds MAX_CONDITION
    (``_condition_exceeded``).

    One Cholesky factor-and-invert of the whole stack, on float64 planes
    (re, im) of the augmented rows [G | I], trials last. Step j divides row
    j by the pivot sqrt(d_j) and takes conj(v_i) v, with v that row, from
    each row i > j; the rows then hold [L^H | X] with G = L L^H and X =
    L^-1, and G^-1 = X^H X is summed over the rows of X in order. The loops
    run over the matrix index only: O(n) numpy calls, each on a slab of all
    B rows. Every entry is a sum of float64 products taken elementwise, with
    no complex multiply and no reduction, so each row of the result is the
    same bit for bit in any stack. The inverse is exactly Hermitian and
    depends only on the upper triangle of G and the real part of its
    diagonal. Like LU, this is backward stable, with errors of order eps
    cond(G) (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, ch. 10). A pivot d_j that is not positive (an indefinite,
    singular or NaN matrix) makes 1 / sqrt(d_j), and with it (G^-1)_jj,
    NaN or infinite, which the screen flags. ``gram`` is only read.
    """
    b, n = gram.shape[:2]
    inv = np.empty((b, n, n), dtype=complex)
    # the result's memory, as float64 planes, holds each product term
    # before it holds the result: one fresh temporary fewer per term
    scratch = inv.view(np.float64).reshape(2, n, n, b)
    w = np.empty((2, n, 2 * n, b))
    w[0, :, :n] = gram.real.transpose(1, 2, 0)
    w[1, :, :n] = gram.imag.transpose(1, 2, 0)
    w[:, :, n:] = 0.0
    w[0].reshape(2 * n * n, b)[n::2 * n + 1] = 1.0
    with np.errstate(all="ignore"):
        for j in range(n - 1):
            # row j past the pivot: G's columns j+1.. and L^-1's 0..j
            v = w[:, j, j + 1:n + j + 1]
            v /= np.sqrt(w[0, j, j])
            vs = v[::-1] * _SWAP
            # rows i > j minus conj(v_i) v, re and im products apart
            rows = w[:, j + 1:, j + 1:n + j + 1]
            rows -= v[:, None] * v[0, :n - 1 - j, None]
            rows -= vs[:, None] * v[1, :n - 1 - j, None]
        w[:, n - 1, n:] /= np.sqrt(w[0, n - 1, n - 1])
        x = w[:, :, n:]
        # G^-1 = sum over k of conj(x_k)^T x_k, x_k row k of L^-1, into the
        # planes of (G^-1)^T; each term is summed before it is added, so
        # the result is exactly Hermitian
        acc = w[:, :, :n]
        acc[...] = 0.0
        for k in range(n):
            r = x[:, k, :k + 1]
            t = np.multiply(r[:, :, None], r[0],
                            out=scratch[:, :k + 1, :k + 1])
            t += (r[::-1] * _SWAP)[:, :, None] * r[1]
            acc[:, :k + 1, :k + 1] += t
    inv.view(np.float64).reshape(b, n, n, 2)[...] = acc.transpose(3, 2, 1, 0)
    del w, x, acc  # the planes go before the screen's buffers come
    return inv, _condition_exceeded(gram, inv)


def _padded_svd(h: np.ndarray):
    """Thin SVD (U, sigma, V^H) of a stack h (B, N_r, N_a), with zero columns
    padding H to N_r columns, so sigma holds N_r values also when N_a <
    N_r."""
    n_r, n_a = h.shape[1:]
    h = np.pad(h, ((0, 0), (0, 0), (0, max(n_r - n_a, 0))))
    return np.linalg.svd(h, full_matrices=False)


def mmse_factor(h: np.ndarray):
    """(U (B, N_r, N_r), lambda (B, N_r)) with H H^H = U diag(lambda) U^H
    for a stack of channels h (B, N_r, N_a), lambda descending.

    Each row takes eigh of its formed Gram, reordered to descending as the
    SVD returns it, so later sums over the eigenvalues keep their order.
    Rows whose computed ratio lambda_max / lambda_min is not at most
    EIGH_MAX_RATIO (NaN and lambda_min <= 0 included) take the SVD of H
    instead (``_padded_svd``), so lambda holds all N_r eigenvalues also
    when N_a < N_r.

    The bound. Forming the Gram and eigh are backward stable: the factor is
    exact for H H^H + E with ||E||_2 <= k eps lambda_max, where k grows as a
    low power of N_r and N_a (Golub & Van Loan, 4th ed., sections 8.1 and
    8.6). beta, G and its entries are smooth functions of R = H H^H + c I,
    c = N_r N_0, whose relative change under E is at most about ||E||_2 /
    (lambda_min + c) <= k eps lambda_max / lambda_min. That is worst at c
    = 0 (+inf dB), where beta = sqrt(N_r / sum 1 / lambda) follows the
    relative error of lambda_min. The engine's results are checked against
    a 50-digit oracle at 1e-9 relative; at the ratio 1e4, eps times the
    ratio is 2.2e-12, which leaves a factor 450 for k. On 512 draws of the
    first 4 ports of a 0.5-wavelength aperture, the k of beta at c = 0 was
    at most 0.5. The SVD works on H itself, so its error in lambda_min
    grows only as the square root of the ratio (Demmel & Veselic, SIAM J.
    Matrix Anal. Appl. 13(4), 1992).
    """
    lam, u = np.linalg.eigh(h @ h.conj().transpose(0, 2, 1))
    lam = np.ascontiguousarray(lam[:, ::-1])
    u = np.ascontiguousarray(u[:, :, ::-1])
    svd = np.flatnonzero(~((lam[:, 0] <= EIGH_MAX_RATIO * lam[:, -1])
                           & (lam[:, -1] > 0)))
    if svd.size:
        us, sigma = _padded_svd(h[svd])[:2]
        u[svd], lam[svd] = us, sigma ** 2
    return u, lam


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


def zf_precoders(h: np.ndarray):
    """ZF precoders of a stack h (B, N_r, N_a) in factored form: (beta (B,),
    A (B, N_r, N_r), failed (B,)) with A the screened inverse Gram (H
    H^H)^(-1), so that P = beta (A H)^H. failed flags the screen of
    _screened_hermitian_inverse and a beta that is not finite. P itself is
    not formed: ``zf_precoder`` builds it for one channel, and
    ``zf_sent_columns`` builds only the columns H P e_k a receiver sees."""
    n_r = h.shape[1]
    with np.errstate(invalid="ignore", divide="ignore"):
        gram = h @ h.conj().transpose(0, 2, 1)
        inv, failed = _screened_hermitian_inverse(gram)
        beta = np.sqrt(n_r / np.trace(inv, axis1=1, axis2=2).real)
    return beta, inv, failed | ~np.isfinite(beta)


def zf_sent_columns(h: np.ndarray, inv: np.ndarray, beta: np.ndarray,
                    k: np.ndarray) -> np.ndarray:
    """The sent columns (H P) e_k = H (P e_k) (B, N_r) of the ZF precoders
    (beta, A) of a stack h (B, N_r, N_a), for 0-based antennas k (B,).

    P e_k = beta conj(e_k^T A H)^T is column k of zf_precoder's P, from row
    k of A alone; the (N_a, N_r) precoders and the (N_r, N_r) products H P
    are never formed. The result differs from (H P) e_k only by rounding.
    """
    with np.errstate(invalid="ignore"):
        pk = (inv[np.arange(k.size), k, None, :] @ h).conj()
        pk *= beta[:, None, None]
        return (h @ pk.transpose(0, 2, 1))[:, :, 0]


def _screened(u: np.ndarray, lam: np.ndarray, c: float):
    """(u, lam) of a stack of one, or SingularChannelError if it fails
    mmse_screen at c."""
    if mmse_screen(u, lam, c)[0]:
        raise SingularChannelError(
            "channel Gram matrix is singular or ill conditioned")
    return u, lam


def _screened_factor(h_active: np.ndarray, c: float):
    """(U, lambda, V^H) of one channel H = U diag(sqrt(lambda)) V^H as stacks
    of one, from its SVD through mmse_screen at c, for the theory routes
    that need V^H; a failing channel raises SingularChannelError. lambda
    holds all N_r eigenvalues of H H^H (``_padded_svd``)."""
    u, sigma, vh = _padded_svd(h_active[None])
    return (*_screened(u, sigma ** 2, c), vh)


def zf_precoder(h_active: np.ndarray) -> Precoder:
    """Zero-forcing precoder for the active-port channel, the one-channel
    view of zf_precoders; a failing channel raises SingularChannelError."""
    beta, inv, failed = zf_precoders(h_active[None])
    if failed[0]:
        raise SingularChannelError(
            "channel Gram matrix is singular or ill conditioned")
    return Precoder(matrix=beta[0] * (inv[0] @ h_active).conj().T,
                    beta=float(beta[0]))


def mmse_precoder(h_active: np.ndarray, noise: NoiseModel) -> Precoder:
    """MMSE (regularized) precoder; degenerates to ZF as the noise vanishes.

    P = beta H^H U diag(1 / (lambda + N_r N_0)) U^H, from mmse_factor on a
    stack of one; a channel that fails mmse_screen raises
    SingularChannelError.
    """
    c = h_active.shape[0] * noise.n0
    u, lam = _screened(*mmse_factor(h_active[None]), c)
    beta = float(mmse_scales(lam, c)[1][0])
    inv = (u[0] / (lam[0] + c)) @ u[0].conj().T
    return Precoder(matrix=beta * (h_active.conj().T @ inv), beta=beta)


def effective_gain_matrix(h_active: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Hermitian G = H H^H (H H^H + N_r N_0 I)^(-1) = U diag(d) U^H.

    The MMSE effective channel is beta * G. The engine's detectors read G
    through its factor (U, d); the tests check that route against this.
    """
    c = h_active.shape[0] * noise.n0
    u, lam = _screened(*mmse_factor(h_active[None]), c)
    d = mmse_scales(lam, c)[0]
    return ((u * d[:, None, :]) @ u.conj().transpose(0, 2, 1))[0]
