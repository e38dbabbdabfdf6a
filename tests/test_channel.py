import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farsm.channel import (SeededRng, dump_channels_csv, restrict_to_ports,
                           sample_correlated_channel, sample_iid_cscg)


def test_seeded_rng_is_reproducible():
    a = SeededRng(42, 7).generator().standard_normal(8)
    b = SeededRng(42, 7).generator().standard_normal(8)
    assert np.array_equal(a, b)


def test_seeded_rng_is_the_spawned_child_of_the_master_seed():
    # stream i of a master seed is the i-th child SeedSequence.spawn hands
    # out, driving SFC64
    seed = (1 << 64) - 1
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(4)):
        want = np.random.Generator(np.random.SFC64(child)).standard_normal(8)
        got = SeededRng(seed, i).generator()
        assert isinstance(got.bit_generator, np.random.SFC64)
        assert np.array_equal(got.standard_normal(8), want)


def test_seeded_rng_streams_differ():
    a = SeededRng(42, 0).generator().standard_normal(8)
    b = SeededRng(42, 1).generator().standard_normal(8)
    c = SeededRng(43, 0).generator().standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seeded_rng_rejects_out_of_range():
    with pytest.raises(ValueError):
        SeededRng(-1)
    with pytest.raises(ValueError):
        SeededRng(1 << 64)
    with pytest.raises(ValueError):
        SeededRng(0, 1 << 64)


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
@settings(max_examples=30)
def test_seeded_rng_accepts_full_range(seed, stream):
    SeededRng(seed, stream).generator()


def test_iid_cscg_moments():
    z = sample_iid_cscg(400, 400, SeededRng(1))
    assert z.dtype == complex
    # unit variance split evenly between real and imaginary parts
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=5e-3)
    assert np.mean(z.real * z.imag) == pytest.approx(0.0, abs=5e-3)
    assert abs(z.mean()) < 5e-3


def test_correlated_channel_shape_and_row_covariance(default_model):
    h = sample_correlated_channel(default_model, 4, SeededRng(3))
    assert h.shape == (4, 16)
    # covariance check needs many rows; reuse the model with a tall draw
    tall = sample_correlated_channel(default_model, 20_000, SeededRng(3))
    cov = (tall.conj().T @ tall).real / tall.shape[0]
    rel = np.linalg.norm(cov - default_model.matrix) / np.linalg.norm(
        default_model.matrix)
    assert rel < 0.05


def test_correlated_channel_unit_port_power(default_model):
    tall = sample_correlated_channel(default_model, 10_000, SeededRng(9))
    power = np.mean(np.abs(tall) ** 2, axis=0)
    assert np.allclose(power, 1.0, atol=0.06)


def test_restrict_to_ports_picks_columns(draw_channel):
    h = draw_channel(0)
    sub = restrict_to_ports(h, (2, 5, 11))
    assert sub.shape == (4, 3)
    assert np.array_equal(sub[:, 0], h[:, 1])
    assert np.array_equal(sub[:, 2], h[:, 10])


def test_restrict_to_ports_validates_range(draw_channel):
    h = draw_channel(0)
    with pytest.raises(ValueError):
        restrict_to_ports(h, (0, 1))
    with pytest.raises(ValueError):
        restrict_to_ports(h, (1, 17))


def test_dump_channels_csv(tmp_path, draw_channel):
    path = tmp_path / "ch.csv"
    h = draw_channel(5, n_r=2)
    dump_channels_csv(path, [(0, h)])
    rows = np.loadtxt(path, delimiter=",")
    assert rows.shape == (2 * 16, 5)
    # first row: trial 0, entry (0, 0)
    assert rows[0][0] == 0 and rows[0][1] == 0 and rows[0][2] == 0
    assert rows[0][3] == h[0, 0].real and rows[0][4] == h[0, 0].imag
