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

Each routine takes a stack h (..., N_r, N), a 2-D h being a stack of one,
and returns an array of its leading shape from one factoring of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from farsm.channel import restrict_to_ports
from farsm.errors import NumericalError
from farsm.precoding import (NoiseModel, _padded_svd, _raise_failed,
                             _screened_hermitian_inverse, _stack, mmse_screen)
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


def _agreed(what: str, closed: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """``closed``, if it is within 1e-9 of ``direct`` on every channel; else
    NumericalError naming the first channel where it is not."""
    bad = np.flatnonzero(np.abs(closed - direct) > _AGREEMENT_ATOL)
    if bad.size:
        raise NumericalError(f"{what} routes disagree on draw {bad[0]}: "
                             f"{closed.flat[bad[0]]} vs {direct.flat[bad[0]]}")
    return closed


def _removal_update(h: np.ndarray, pair: NestedSetPair, shift: float):
    """tr(B) and tr(D) for the outer inverse Gram (optionally regularized by
    ``shift`` * I) and the removed columns, each of h's leading shape.

    Both come from one SVD H_out = U diag(s) V^H, without forming the Gram:
    B = U diag(1/d) U^H with d = s^2 + shift, and with V_r the columns of
    V^H at the removed ports, H_rem = U diag(s) V_r, so B H_rem =
    U diag(s/d) V_r and the core is I - V_r^H diag(s^2/d) V_r. The SVD is
    screened by mmse_screen at ``shift``, so without a shift an outer set
    of fewer than N_r ports fails; the core is inverted through
    _screened_hermitian_inverse.
    """
    h_out, lead = _stack(restrict_to_ports(h, pair.outer))
    u, sigma, vh = _padded_svd(h_out)
    lam = sigma ** 2
    _raise_failed(mmse_screen(u, lam, shift))
    d = lam + shift
    vr = vh[:, :, [i for i, p in enumerate(pair.outer) if p not in pair.inner]]
    vr_h = vr.conj().transpose(0, 2, 1)
    w = (lam / d)[:, :, None]
    core_inv, failed = _screened_hermitian_inverse(
        np.eye(vr.shape[2]) - vr_h @ (w * vr))
    _raise_failed(failed, "removal update core")
    # tr(D) = tr(core^-1 (B H_rem)^H (B H_rem))
    bh_gram = vr_h @ ((w / d[:, :, None]) * vr)
    tr_d = np.trace(core_inv @ bh_gram, axis1=1, axis2=2).real
    return np.sum(1.0 / d, axis=1).reshape(lead), tr_d.reshape(lead)


def zf_capacity_loss_curve(h: np.ndarray, pair: NestedSetPair,
                           noises) -> tuple[np.ndarray, np.ndarray]:
    """ZF capacity lost by shrinking the outer port set to the inner one, at
    each noise level of ``noises`` (P, ...), and its noise-free ceiling.

    tr(B), tr(D) and both sets' ZF precoders do not depend on the noise
    level, so the stack is factored once for every level. Returns the
    closed forms; raises if at any level, on any channel, the closed form
    disagrees with the directly computed capacity difference (full
    precoder + determinant route) by more than 1e-9 bits.
    """
    if any(noise.n0 <= 0 for noise in noises):
        raise ValueError("capacity loss needs a positive noise power")
    tr_b, tr_d = _removal_update(h, pair, 0.0)
    n_r = h.shape[-2]
    losses = np.empty((len(noises), *tr_b.shape))
    if len(noises):
        gap = (capacity_of_set(h, pair.outer, "zf", noises)
               - capacity_of_set(h, pair.inner, "zf", noises))
        for p, noise in enumerate(noises):
            closed = n_r * np.log2(
                1.0 + tr_d / (tr_b * (tr_b + tr_d) * noise.n0 + tr_b))
            losses[p] = _agreed("capacity-loss", closed, gap[..., p])
    return losses, n_r * np.log2(1.0 + tr_d / tr_b)


def zf_capacity_loss(h: np.ndarray, pair: NestedSetPair,
                     noise: NoiseModel) -> np.ndarray:
    """``zf_capacity_loss_curve`` at one noise level."""
    return zf_capacity_loss_curve(h, pair, (noise,))[0][0]


def zf_capacity_loss_bound(h: np.ndarray, pair: NestedSetPair) -> np.ndarray:
    """Noise-free ceiling of the ZF capacity loss: N_r log2(1 + trD / trB)."""
    return zf_capacity_loss_curve(h, pair, ())[1]


def mmse_mse(h: np.ndarray, ports: PortSet, noise: NoiseModel) -> np.ndarray:
    """Symbol MSE of the MMSE design over the given port set: c sum 1 /
    (lambda + c), c = N_r N_0, from the screened factor of the precoder."""
    if noise.n0 <= 0:
        raise ValueError("MSE needs a positive noise power")
    h_sel, lead = _stack(restrict_to_ports(h, ports))
    c = h_sel.shape[1] * noise.n0
    u, sigma = _padded_svd(h_sel)[:2]
    _raise_failed(mmse_screen(u, sigma ** 2, c))
    return (c * np.sum(1.0 / (sigma ** 2 + c), axis=1)).reshape(lead)


def mmse_mse_difference(h: np.ndarray, pair: NestedSetPair,
                        noise: NoiseModel) -> np.ndarray:
    """MSE penalty for shrinking the outer port set to the inner one.

    Positive for any strict shrink. Computed both as the direct difference
    and through the removal update; the two must agree to 1e-9 on every
    channel.
    """
    if noise.n0 <= 0:
        raise ValueError("MSE needs a positive noise power")
    c = h.shape[-2] * noise.n0
    closed = c * _removal_update(h, pair, c)[1]
    direct = mmse_mse(h, pair.inner, noise) - mmse_mse(h, pair.outer, noise)
    return _agreed("MSE-difference", closed, direct)
