"""Closed-form capacity-loss and MSE metrics for nested port sets.

These quantify what discarding ports costs, without Monte Carlo. For nested
sets inner c outer (strict), write H_out for the channel over the outer set,
B = (H_out H_out^H)^(-1), and H_rem for the columns of the removed ports
(outer minus inner). A rank-|removed| update gives

    tr((H_in H_in^H)^(-1)) = tr(B) + tr(D),
    D = B H_rem (I - H_rem^H B H_rem)^(-1) H_rem^H B,

so the ZF capacity lost by shrinking outer to inner has the closed form

    C_d = N_r log2(1 + tr(D) / (tr(B) (tr(B) + tr(D)) N_0 + tr(B)))

which approaches the noise-free ceiling N_r log2(1 + tr(D) / tr(B)) as N_0
vanishes. The MMSE symbol MSE for a set I is

    eps_I = N_r N_0 tr((H_I H_I^H + N_r N_0 I)^(-1)),

and the MSE penalty for shrinking the set has the same expanded structure
with B replaced by its regularized counterpart. Each routine evaluates both
the direct difference and the expanded form and insists they agree to 1e-9;
a disagreement means the inputs are too ill conditioned to trust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from farsm.channel import restrict_to_ports
from farsm.errors import NumericalError, SingularChannelError
from farsm.precoding import (NoiseModel, _screened_factor,
                             _screened_hermitian_inverse)
from farsm.selection import PortSet, capacity_of_set

_AGREEMENT_ATOL = 1e-9


@dataclass(frozen=True)
class NestedSetPair:
    """Strictly nested pair of port sets (inner a proper subset of outer)."""

    inner: PortSet
    outer: PortSet

    def __post_init__(self):
        inner, outer = set(self.inner), set(self.outer)
        if not inner < outer:
            raise ValueError(
                f"inner set {tuple(self.inner)} must be a proper subset of "
                f"outer set {tuple(self.outer)}")

    @property
    def removed(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.outer) - set(self.inner)))


def _removal_update(h: np.ndarray, pair: NestedSetPair,
                    shift: float) -> tuple[float, float]:
    """tr(B) and tr(D) for the outer inverse Gram (optionally regularized by
    ``shift`` * I) and the removed columns.

    Both come from one SVD H_out = U diag(s) V^H, without forming the Gram:
    B = U diag(1/d) U^H with d = s^2 + shift, and with V_r the columns of
    V^H at the removed ports, H_rem = U diag(s) V_r, so B H_rem =
    U diag(s/d) V_r and the core is I - V_r^H diag(s^2/d) V_r. The SVD is
    screened by mmse_screen at ``shift``, so without a shift an outer set
    of fewer than N_r ports fails; the core is inverted through
    _screened_hermitian_inverse.
    """
    _, lam, vh = _screened_factor(restrict_to_ports(h, pair.outer), shift)
    lam, vh = lam[0], vh[0]
    d = lam + shift
    removed = set(pair.removed)
    vr = vh[:, [i for i, p in enumerate(pair.outer) if p in removed]]
    w = (lam / d)[:, None]
    core = np.eye(vr.shape[1]) - vr.conj().T @ (w * vr)
    core_inv, failed = _screened_hermitian_inverse(core[None])
    if failed[0]:
        raise SingularChannelError(
            "removal update core is singular or ill conditioned")
    # tr(D) = tr(core^-1 (B H_rem)^H (B H_rem))
    bh_gram = vr.conj().T @ ((w / d[:, None]) * vr)
    return float(np.sum(1.0 / d)), float(np.trace(core_inv[0] @ bh_gram).real)


def zf_capacity_loss(h: np.ndarray, pair: NestedSetPair,
                     noise: NoiseModel) -> float:
    """ZF capacity lost by shrinking the outer port set to the inner one.

    Returns the closed form; raises if it disagrees with the directly
    computed capacity difference (full precoder + determinant route) by more
    than 1e-9 bits.
    """
    if noise.n0 <= 0:
        raise ValueError("capacity loss needs a positive noise power")
    n_r = h.shape[0]
    tr_b, tr_d = _removal_update(h, pair, 0.0)
    closed = n_r * math.log2(
        1.0 + tr_d / (tr_b * (tr_b + tr_d) * noise.n0 + tr_b))
    direct = (capacity_of_set(h, pair.outer, "zf", noise)
              - capacity_of_set(h, pair.inner, "zf", noise))
    if abs(closed - direct) > _AGREEMENT_ATOL:
        raise NumericalError(
            f"capacity-loss routes disagree: {closed!r} vs {direct!r}")
    return closed


def zf_capacity_loss_bound(h: np.ndarray, pair: NestedSetPair) -> float:
    """Noise-free ceiling of the ZF capacity loss: N_r log2(1 + trD / trB)."""
    n_r = h.shape[0]
    tr_b, tr_d = _removal_update(h, pair, 0.0)
    return n_r * math.log2(1.0 + tr_d / tr_b)


def mmse_mse(h: np.ndarray, ports: PortSet, noise: NoiseModel) -> float:
    """Symbol MSE of the MMSE design over the given port set: c sum 1 /
    (lambda + c), c = N_r N_0, from the screened factor of the precoder."""
    if noise.n0 <= 0:
        raise ValueError("MSE needs a positive noise power")
    c = h.shape[0] * noise.n0
    lam = _screened_factor(restrict_to_ports(h, ports), c)[1]
    return float(c * np.sum(1.0 / (lam + c)))


def mmse_mse_difference(h: np.ndarray, pair: NestedSetPair,
                        noise: NoiseModel) -> float:
    """MSE penalty for shrinking the outer port set to the inner one.

    Positive for any strict shrink. Computed both as the direct difference
    and through the removal update; the two must agree to 1e-9.
    """
    if noise.n0 <= 0:
        raise ValueError("MSE needs a positive noise power")
    n_r = h.shape[0]
    c = n_r * noise.n0
    _, tr_d = _removal_update(h, pair, c)
    closed = c * tr_d
    direct = mmse_mse(h, pair.inner, noise) - mmse_mse(h, pair.outer, noise)
    if abs(closed - direct) > _AGREEMENT_ATOL:
        raise NumericalError(
            f"MSE-difference routes disagree: {closed!r} vs {direct!r}")
    return closed
