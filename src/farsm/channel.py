"""Seeded random streams and channel sampling.

Monte Carlo trials must be reproducible and order-independent, so every draw
comes from a counter-based Philox stream keyed by a 64-bit master seed plus a
64-bit stream id. Two streams with the same key always produce the same
values, no matter how many other streams were consumed in between; distinct
ids give statistically independent streams. That makes streams safe to
evaluate in any order or in parallel. The Monte Carlo engine keys one
stream per block of trials (``farsm.simulate._draw_trials``) with the same
128-bit key layout as ``SeededRng.generator``.

Channel conventions: entries are CN(0, 1) (circularly symmetric complex
Gaussian, unit variance split evenly between real and imaginary parts). A
correlated fluid-antenna channel is an i.i.d. matrix recolored on the right
by the correlation root, so each row of the result has the port grid's
correlation matrix as its covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from farsm.correlation import CorrelationModel

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SeededRng:
    """Handle for one reproducible random stream.

    ``master_seed`` identifies the experiment, ``stream_id`` the consumer
    (a trial, a redraw of a failed trial, a theory draw, ...). Both must fit
    in 64 bits; together they form the 128-bit Philox key.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not 0 <= v <= _MASK64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = (self.master_seed & _MASK64) | ((self.stream_id & _MASK64) << 64)
        return np.random.Generator(np.random.Philox(key=key))


def _as_generator(rng: SeededRng | np.random.Generator) -> np.random.Generator:
    return rng.generator() if isinstance(rng, SeededRng) else rng


def sample_iid_cscg(rows: int, cols: int,
                    rng: SeededRng | np.random.Generator) -> np.ndarray:
    """Draw a rows x cols matrix of i.i.d. CN(0, 1) entries.

    Real and imaginary parts are N(0, 1/2), drawn in a single call so the
    stream layout is stable.
    """
    g = _as_generator(rng)
    z = g.standard_normal((2, rows, cols))
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


def sample_correlated_channel(model: CorrelationModel, n_r: int,
                              rng: SeededRng | np.random.Generator) -> np.ndarray:
    """Draw an n_r x N channel whose rows carry the port correlation.

    Returns iid @ root: zero mean, unit per-entry variance, and row
    covariance equal to ``model.matrix``.
    """
    white = sample_iid_cscg(n_r, model.grid.n_ports, rng)
    return white @ model.root


def restrict_to_ports(h: np.ndarray, ports) -> np.ndarray:
    """Keep only the columns of ``h`` for the given 1-based port indices.

    ``ports`` is any iterable of distinct indices in 1..N (a PortSet works);
    column order follows the sorted port order.
    """
    idx = np.asarray([p - 1 for p in ports], dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= h.shape[1]):
        raise ValueError(f"port indices out of range 1..{h.shape[1]}")
    return h[:, idx]


def dump_channels_csv(path: str, channels) -> None:
    """Append channels to a CSV with columns (trial, row, col, re, im).

    Debug aid for small runs; ``channels`` yields (trial_index, matrix).
    """
    with open(path, "a", encoding="ascii") as f:
        for trial, h in channels:
            for r in range(h.shape[0]):
                for c in range(h.shape[1]):
                    v = h[r, c]
                    f.write(f"{trial},{r},{c},{v.real:.17g},{v.imag:.17g}\n")
