"""Square QAM constellations and the joint spatial/symbol bit mapping.

Each channel use carries log2(N_r) + log2(M) bits: the leading bits pick the
targeted receive antenna k (natural binary, 0-based), the trailing bits pick
the QAM point m through its Gray label, which is m written in binary.
Constellations are normalized to unit mean symbol energy and labeled Gray
per axis, so nearest neighbors along either axis differ in exactly one bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SUPPORTED_ORDERS = (4, 16, 64)


@dataclass(frozen=True)
class Constellation:
    """Unit-energy square QAM constellation with Gray bit labels.

    ``points[m]`` is the complex symbol whose label is ``bit_labels[m]``; the
    label string concatenates the in-phase bits with the quadrature bits.
    """

    order: int
    points: np.ndarray
    bit_labels: tuple[str, ...]

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1


def _gray(i: int) -> int:
    return i ^ (i >> 1)


def build_qam(order: int) -> Constellation:
    """Build a unit-mean-energy square QAM constellation of the given order.

    Supported orders: 4, 16, 64. Amplitude levels per axis are the odd
    integers scaled by the usual normalization sqrt(2 (M - 1) / 3), and each
    axis carries a binary-reflected Gray label; a point's label is its
    in-phase bits followed by its quadrature bits.
    """
    if order not in _SUPPORTED_ORDERS:
        raise ValueError(f"order must be one of {_SUPPORTED_ORDERS}, got {order}")
    side = int(round(np.sqrt(order)))
    axis_bits = side.bit_length() - 1
    scale = np.sqrt(2.0 * (order - 1) / 3.0)
    # label value v sits at the level whose Gray code is v
    level_of_value = np.empty(side, dtype=int)
    for level in range(side):
        level_of_value[_gray(level)] = level
    amplitudes = 2.0 * np.arange(side) - (side - 1)

    points = np.empty(order, dtype=complex)
    labels = []
    for m in range(order):
        vi = m >> axis_bits          # leading bits: in-phase
        vq = m & (side - 1)          # trailing bits: quadrature
        re = amplitudes[level_of_value[vi]]
        im = amplitudes[level_of_value[vq]]
        points[m] = (re + 1j * im) / scale
        labels.append(format(m, f"0{2 * axis_bits}b"))
    return Constellation(order=order, points=points, bit_labels=tuple(labels))


def spectral_efficiency(order: int, n_r: int) -> float:
    """Bits per channel use: log2(order) + log2(n_r)."""
    return float(np.log2(order) + np.log2(n_r))


def bits_to_indices(bits: np.ndarray, spatial_bits: int):
    """Map (B, n) bit rows, MSB first, to 0-based (k, m), each (B,).

    The leading ``spatial_bits`` bits of a row read as natural binary give
    the antenna k; the rest give the point m whose label they are.
    """
    symbol_bits = bits.shape[1] - spatial_bits
    value = bits.astype(np.intp) @ (1 << np.arange(bits.shape[1])[::-1])
    return value >> symbol_bits, value & ((1 << symbol_bits) - 1)


def indices_to_bits(k: np.ndarray, m: np.ndarray, spatial_bits: int,
                    symbol_bits: int) -> np.ndarray:
    """Inverse of :func:`bits_to_indices`: (B, n) uint8 bit rows."""
    value = (k << symbol_bits) | m
    shifts = np.arange(spatial_bits + symbol_bits)[::-1]
    return ((value[:, None] >> shifts) & 1).astype(np.uint8)
