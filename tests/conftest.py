import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from farsm.channel import SeededRng, sample_correlated_channel
from farsm.correlation import build_correlation_model, port_coordinates
from farsm.simulate import SimConfig, _detect_batch

# numerical cases can be slow under coverage or cold BLAS; wall-clock
# deadlines only add flakiness here
settings.register_profile(
    "farsm", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("farsm")


@pytest.fixture(scope="session")
def default_model():
    """Correlation model of the reference 4x4 grid on a 1x1 aperture."""
    return build_correlation_model(port_coordinates(1.0, 1.0, 4, 4))


@pytest.fixture
def draw_channel(default_model):
    """Factory: seeded 4 x 16 correlated channel draw."""

    def _draw(seed=0, n_r=4):
        return sample_correlated_channel(default_model, n_r, SeededRng(seed))

    return _draw


def random_channel(seed, n_r, n_cols):
    """Plain i.i.d. complex Gaussian channel, unit column-entry variance."""
    g = np.random.Generator(np.random.Philox(seed))
    return (g.standard_normal((n_r, n_cols))
            + 1j * g.standard_normal((n_r, n_cols))) / np.sqrt(2.0)


def gain_matrices(u, d):
    """The gain matrices G = U diag(d) U^H (B, N_r, N_r) of a factor (U, d),
    the reference the factor-based detectors are checked against; the
    engine never forms them."""
    return (u * d[:, None, :]) @ u.conj().transpose(0, 2, 1)


def stage_med(y, beta, factor, points):
    """MED's (k, m): the engine's detect stage with every row on its energy
    path, the one maximum energy detector."""
    return _detect_batch("med", SimConfig(detector="med"), y, beta, factor,
                         points)[:2]
