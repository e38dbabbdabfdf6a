import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from farsm.modulation import (bits_to_indices, build_qam, indices_to_bits,
                              spectral_efficiency)

ORDERS = (4, 16, 64)


@pytest.mark.parametrize("order", ORDERS)
def test_qam_unit_average_energy(order):
    c = build_qam(order)
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, rel=1e-12)


def test_16qam_corner_frozen():
    c = build_qam(16)
    # (3+3j)/sqrt(10): largest I and Q amplitudes, Gray label 1010, index 10
    corner = (3 + 3j) / np.sqrt(10.0)
    assert c.points[10] == pytest.approx(corner, rel=1e-15)
    assert c.bit_labels[10] == "1010"
    assert np.abs(c.points[10]) ** 2 == pytest.approx(1.8, rel=1e-14)


def test_4qam_is_scaled_qpsk():
    c = build_qam(4)
    expected = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}
    got = {complex(round(p.real * np.sqrt(2), 9), round(p.imag * np.sqrt(2), 9))
           for p in c.points}
    assert got == expected


@pytest.mark.parametrize("order", ORDERS)
def test_gray_labels_differ_by_one_bit_between_neighbours(order):
    c = build_qam(order)
    side = int(np.sqrt(order))
    d_min = 2.0 / np.sqrt(2.0 * (order - 1) / 3.0)
    for i in range(order):
        for j in range(i + 1, order):
            if abs(c.points[i] - c.points[j]) < d_min * 1.001:
                flips = bin(int(c.bit_labels[i], 2)
                            ^ int(c.bit_labels[j], 2)).count("1")
                assert flips == 1, (c.bit_labels[i], c.bit_labels[j])


@pytest.mark.parametrize("order", ORDERS)
def test_labels_are_unique_and_sized(order):
    c = build_qam(order)
    assert len(set(c.bit_labels)) == order
    assert all(len(b) == c.bits_per_symbol for b in c.bit_labels)
    # the mapping reads the symbol bits of point m as m in binary
    for m, label in enumerate(c.bit_labels):
        assert int(label, 2) == m


def test_build_qam_rejects_unsupported_orders():
    for bad in (2, 8, 32, 128, 15):
        with pytest.raises(ValueError):
            build_qam(bad)


def test_spectral_efficiency():
    assert spectral_efficiency(4, 4) == 4.0
    assert spectral_efficiency(16, 4) == 6.0
    assert spectral_efficiency(64, 8) == 9.0


@given(order=st.sampled_from(ORDERS), n_r=st.sampled_from((2, 4, 8, 16)),
       rows=st.integers(1, 5), data=st.data())
def test_bits_roundtrip(order, n_r, rows, data):
    c = build_qam(order)
    kb = int(np.log2(n_r))
    width = kb + c.bits_per_symbol
    bits = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=width, max_size=width),
        min_size=rows, max_size=rows)), dtype=np.uint8)
    k, m = bits_to_indices(bits, kb)
    assert ((0 <= k) & (k < n_r)).all()
    assert ((0 <= m) & (m < order)).all()
    back = indices_to_bits(k, m, kb, c.bits_per_symbol)
    assert back.dtype == np.uint8
    assert np.array_equal(back, bits)


def test_bits_to_indices_layout():
    c = build_qam(4)
    # spatial bits lead (natural binary, MSB first), symbol label follows
    k, m = bits_to_indices(np.array([[1, 0, 1, 1], [0, 1, 1, 0]],
                                    dtype=np.uint8), 2)
    assert k.tolist() == [2, 1]  # bits 10 -> antenna 2, bits 01 -> 1
    assert [c.bit_labels[i] for i in m] == ["11", "10"]


def test_constellation_is_frozen():
    c = build_qam(4)
    with pytest.raises(AttributeError):
        c.order = 16
