import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from farsm.correlation import (FluidAntennaGrid, build_correlation_model,
                               dump_correlation_csv, port_coordinates,
                               sorted_pair_correlations)

# sin(x)/x at the default-grid spacings, frozen from a 30-digit mpmath run
J0_ADJACENT = 0.41349667156634403713  # x = 2*pi/3, neighbours at 1/3 wavelength
J0_DIAGONAL = 0.060334330676236000862  # x = 2*pi*sqrt(2)/3
J0_TWO_STEPS = -0.20674833578317201857  # x = 4*pi/3


def _pair_correlation(x):
    """Model correlation of two ports x radians (x / 2 pi wavelengths) apart."""
    model = build_correlation_model(port_coordinates(1.0, x / (2 * np.pi), 1, 2))
    return model.matrix[0, 1]


def test_j0_at_zero_and_roots():
    # ports half a wavelength apart: sin(pi k)/x vanishes at multiples of pi
    j = build_correlation_model(port_coordinates(1.0, 1.0, 1, 3)).matrix
    assert (np.diag(j) == 1.0).all()
    assert abs(j[0, 1]) < 1e-15
    assert abs(j[0, 2]) < 1e-15


@given(st.floats(min_value=1e-6, max_value=50.0))
@example(15.707983492452897)  # next to 5 pi: 8.8e-11 relative, 1.1e-16 absolute
def test_j0_matches_sine_quotient(x):
    # The model rounds the argument on its way through the port spacing. A
    # relative argument error e moves sin(x)/x by e |cos x - sin(x)/x|, which
    # stays near e where sin(x)/x crosses zero, so no relative bound holds
    # there; the evaluation adds a few ulps of the result itself.
    ref = np.sin(x) / x
    eps = np.finfo(float).eps
    err = abs(_pair_correlation(x) - ref)
    assert err <= 4 * eps * (abs(np.cos(x) - ref) + abs(ref))


def test_port_coordinates_default_grid():
    grid = port_coordinates(1.0, 1.0, 4, 4)
    assert grid.n_ports == 16
    # column-major: ports 1..4 share the first column (x = 0)
    assert np.allclose(grid.x[:4], 0.0)
    assert np.allclose(grid.y[:4], [0.0, 1 / 3, 2 / 3, 1.0])
    # port 5 starts the second column
    assert grid.x[4] == pytest.approx(1 / 3)
    assert grid.y[4] == 0.0
    # far corner is port 16
    assert grid.x[15] == pytest.approx(1.0)
    assert grid.y[15] == pytest.approx(1.0)


def test_port_coordinates_singleton_axis():
    grid = port_coordinates(2.0, 1.0, 1, 5)
    assert np.allclose(grid.y, 0.0)  # single row sits at the origin line
    assert np.allclose(grid.x, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_port_coordinates_rejects_bad_inputs():
    with pytest.raises(ValueError):
        port_coordinates(1.0, 1.0, 0, 4)
    with pytest.raises(ValueError):
        port_coordinates(-1.0, 1.0, 4, 4)


@given(n1=st.integers(1, 6), n2=st.integers(1, 6),
       w1=st.floats(0.1, 10), w2=st.floats(0.1, 10))
def test_port_coordinates_span_the_aperture(n1, n2, w1, w2):
    grid = port_coordinates(w1, w2, n1, n2)
    assert grid.x.shape == (n1 * n2,)
    assert grid.x.min() == 0.0 and grid.y.min() == 0.0
    assert grid.x.max() == pytest.approx(w2 if n2 > 1 else 0.0)
    assert grid.y.max() == pytest.approx(w1 if n1 > 1 else 0.0)


def test_correlation_matrix_entries(default_model):
    j = default_model.matrix
    assert j.shape == (16, 16)
    assert np.allclose(np.diag(j), 1.0)
    assert np.allclose(j, j.T)
    # ports 1 and 2 are vertical neighbours at W1/3
    assert j[0, 1] == pytest.approx(J0_ADJACENT, rel=1e-12)
    # ports 1 and 6 sit on the grid diagonal
    assert j[0, 5] == pytest.approx(J0_DIAGONAL, rel=1e-12)
    assert j[0, 2] == pytest.approx(J0_TWO_STEPS, rel=1e-12)


def test_eigendecomposition_reconstructs(default_model):
    m = default_model
    rebuilt = (m.eigenvectors * m.eigenvalues) @ m.eigenvectors.T
    assert np.linalg.norm(rebuilt - m.matrix) / np.linalg.norm(m.matrix) < 1e-10
    assert (m.eigenvalues >= 0).all()  # clamped
    assert m.eigenvalues.sum() == pytest.approx(16.0, rel=1e-9)


def test_root_factorization(default_model):
    m = default_model
    assert np.allclose(m.root.T @ m.root, m.matrix, atol=1e-10)


@settings(max_examples=20)
@given(n1=st.integers(1, 5), n2=st.integers(1, 5),
       w1=st.floats(0.2, 5), w2=st.floats(0.2, 5))
def test_model_properties_any_grid(n1, n2, w1, w2):
    m = build_correlation_model(port_coordinates(w1, w2, n1, n2))
    n = n1 * n2
    assert np.allclose(np.diag(m.matrix), 1.0)
    assert (m.eigenvalues >= 0).all()
    assert np.allclose(m.root.T @ m.root, m.matrix, atol=1e-8)
    assert m.eigenvalues.sum() == pytest.approx(float(n), rel=1e-6)


def test_wide_aperture_decorrelates():
    near = build_correlation_model(port_coordinates(0.5, 0.5, 4, 4))
    far = build_correlation_model(port_coordinates(50.0, 50.0, 4, 4))
    off_near = np.abs(near.matrix - np.eye(16)).max()
    off_far = np.abs(far.matrix - np.eye(16)).max()
    assert off_far < off_near
    assert off_far < 0.05


def test_sorted_pairs_default_grid(default_model):
    pairs = sorted_pair_correlations(default_model)
    n_pairs = 16 * 15 // 2
    assert pairs.first.shape == (n_pairs,)
    # strongest correlation is an adjacent pair; index ties resolve low-first
    assert (pairs.first[0], pairs.second[0]) == (1, 2)
    assert pairs.values[0] == pytest.approx(J0_ADJACENT, rel=1e-12)
    assert (np.diff(pairs.values) <= 1e-15).all()
    assert (pairs.first < pairs.second).all()
    assert pairs.first.min() >= 1 and pairs.second.max() <= 16


def test_sorted_pairs_tie_break_is_lexicographic(default_model):
    pairs = sorted_pair_correlations(default_model)
    # exact value ties must appear in ascending (first, second) order; note
    # adjacent pairs split into two tie classes because the 2/3 -> 1.0
    # coordinate step differs from 1/3 by one ulp
    rows = list(zip(pairs.values, pairs.first, pairs.second))
    for (v0, a0, b0), (v1, a1, b1) in zip(rows, rows[1:]):
        if v0 == v1:
            assert (a0, b0) < (a1, b1)
    # every adjacent pair still outranks every non-adjacent one
    top24 = {(int(a), int(b)) for a, b in zip(pairs.first[:24], pairs.second[:24])}
    assert all(abs(v - J0_ADJACENT) < 1e-12 for v in pairs.values[:24])
    assert all(b - a in (1, 4) for a, b in top24)


def test_dump_correlation_csv_roundtrip(default_model, tmp_path):
    path = tmp_path / "corr.csv"
    dump_correlation_csv(default_model, path)
    data = np.loadtxt(path, delimiter=",")
    assert data.shape == (16, 16)
    assert np.array_equal(data, default_model.matrix)  # 17 digits: lossless


def test_grid_dataclass_is_frozen():
    grid = FluidAntennaGrid(1.0, 1.0, 2, 2, np.zeros(4), np.zeros(4))
    with pytest.raises(AttributeError):
        grid.w1 = 2.0
