"""Port grid geometry and spatial correlation of a planar fluid antenna.

The transmit side is a W1 x W2 surface (in carrier wavelengths) carrying an
N1 x N2 grid of ports. Ports are indexed 1..N in column-major order: port n
maps to row i1 = ((n - 1) mod N1) + 1 and column i2 = ((n - 1) div N1) + 1,
located at

    x = (i2 - 1) * W2 / (N2 - 1),   y = (i1 - 1) * W1 / (N1 - 1),

with the coordinate pinned to 0 along any singleton dimension. Under an
isotropic rich-scattering assumption the correlation between two ports is the
zeroth-order spherical Bessel function of their separation in radians,
j0(2 pi d), which equals sin(2 pi d) / (2 pi d).

The correlation matrix is factored once per geometry into a real coloring
root R with R^T R equal to the correlation matrix; multiplying an i.i.d.
matrix by R on the right imprints the port correlation onto each row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from farsm.errors import NumericalError

# Eigenvalues of the correlation matrix are clamped at zero; the sum must
# still equal the port count to this relative tolerance.
_TRACE_RTOL = 1e-6
# Pre-clamp eigendecomposition must reconstruct the matrix this well.
_RECONSTRUCTION_RTOL = 1e-8


@dataclass(frozen=True)
class FluidAntennaGrid:
    """Port layout of the fluid antenna surface.

    Attributes:
        w1, w2: surface extent in wavelengths along the row / column axes.
        n1, n2: number of ports along each axis; n_ports = n1 * n2.
        x, y: coordinate arrays of shape (n_ports,), column-major port order.
    """

    w1: float
    w2: float
    n1: int
    n2: int
    x: np.ndarray
    y: np.ndarray

    @property
    def n_ports(self) -> int:
        return self.n1 * self.n2


def port_coordinates(w1: float, w2: float, n1: int, n2: int) -> FluidAntennaGrid:
    """Lay out an n1 x n2 port grid on a w1 x w2 surface.

    Ports are numbered 1..n1*n2 column-major; the first port sits at the
    origin and the last at (w2, w1). A singleton axis collapses to 0.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"port counts must be >= 1, got n1={n1}, n2={n2}")
    if w1 <= 0 or w2 <= 0:
        raise ValueError(f"surface extents must be > 0, got w1={w1}, w2={w2}")
    idx = np.arange(n1 * n2)
    i1 = idx % n1  # 0-based row
    i2 = idx // n1  # 0-based column
    x = i2 * (w2 / (n2 - 1)) if n2 > 1 else np.zeros(n1 * n2)
    y = i1 * (w1 / (n1 - 1)) if n1 > 1 else np.zeros(n1 * n2)
    return FluidAntennaGrid(w1=float(w1), w2=float(w2), n1=int(n1), n2=int(n2),
                            x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float))


@dataclass(frozen=True)
class CorrelationModel:
    """Spatial correlation matrix of the port grid and its factorization.

    Attributes:
        grid: the geometry the model was built from.
        matrix: (N, N) real symmetric correlation matrix, unit diagonal.
        eigenvalues: ascending, clamped at zero.
        eigenvectors: orthonormal columns matching ``eigenvalues``.
        root: real (N, N) coloring root with root.T @ root == matrix;
            right-multiplying an i.i.d. matrix by ``root`` correlates its rows.
    """

    grid: FluidAntennaGrid
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    root: np.ndarray


def build_correlation_model(grid: FluidAntennaGrid) -> CorrelationModel:
    """Build the port correlation matrix j0(2 pi d) and its coloring root."""
    dx = grid.x[:, None] - grid.x[None, :]
    dy = grid.y[:, None] - grid.y[None, :]
    dist = np.hypot(dx, dy)
    matrix = np.sinc(2.0 * dist)  # j0(2 pi d) = sinc(2 d) in numpy's convention
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)

    recon = (eigenvectors * eigenvalues) @ eigenvectors.T
    err = np.linalg.norm(recon - matrix) / np.linalg.norm(matrix)
    if err > _RECONSTRUCTION_RTOL:
        raise NumericalError(f"eigendecomposition reconstruction error {err:.3e}")

    clamped = np.maximum(eigenvalues, 0.0)  # kill tiny negative round-off
    n = grid.n_ports
    if abs(clamped.sum() - n) > _TRACE_RTOL * n:
        raise ValueError(
            f"clamped eigenvalue sum {clamped.sum():.9g} deviates from {n}")
    root = np.sqrt(clamped)[:, None] * eigenvectors.T
    return CorrelationModel(grid=grid, matrix=matrix, eigenvalues=clamped,
                            eigenvectors=eigenvectors, root=root)


@dataclass(frozen=True)
class SortedPairArrays:
    """All unordered port pairs ranked by spatial correlation.

    ``first[j] < second[j]`` are 1-based port indices; ``values`` descend,
    with equal values ordered by ascending (first, second). Together the
    arrays enumerate each pair exactly once: N (N - 1) / 2 entries.
    """

    first: np.ndarray
    second: np.ndarray
    values: np.ndarray


def sorted_pair_correlations(model: CorrelationModel) -> SortedPairArrays:
    """Rank every port pair by its correlation magnitude, descending.

    The ranking is a static function of the geometry and is reused by the
    low-complexity selection stage, which scans only a prefix of it.
    """
    n = model.grid.n_ports
    iu, ju = np.triu_indices(n, k=1)
    vals = np.abs(model.matrix[iu, ju])
    # lexsort: last key is primary. Ties on value fall back to (first, second).
    order = np.lexsort((ju, iu, -vals))
    return SortedPairArrays(first=iu[order] + 1, second=ju[order] + 1,
                            values=vals[order])


def dump_correlation_csv(model: CorrelationModel, path: str) -> None:
    """Write the full correlation matrix row-major with 17 significant digits."""
    np.savetxt(path, model.matrix, delimiter=",", fmt="%.17g")
