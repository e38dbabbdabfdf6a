import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_channel
from farsm import theory
from farsm.errors import NumericalError, SingularChannelError
from farsm.precoding import NoiseModel
from farsm.selection import PortSet, capacity_of_set
from farsm.simulate import SimConfig, draw_channels
from farsm.theory import (NestedSetPair, mmse_mse, mmse_mse_difference,
                          zf_capacity_loss, zf_capacity_loss_bound)

INNER = PortSet(range(1, 5))
OUTER = PortSet(range(1, 11))
PAIR = NestedSetPair(inner=INNER, outer=OUTER)


def test_nested_pair_validates():
    with pytest.raises(ValueError):
        NestedSetPair(inner=PortSet((1, 2)), outer=PortSet((1, 2)))  # not strict
    with pytest.raises(ValueError):
        NestedSetPair(inner=PortSet((1, 9)), outer=PortSet((1, 2, 3)))
    assert NestedSetPair(inner=PortSet((1, 2)),
                         outer=PortSet((1, 2, 5))).removed == (5,)


@settings(max_examples=25)
@given(seed=st.integers(0, 4000), snr_db=st.floats(-5, 25))
def test_capacity_loss_positive_and_below_bound(seed, snr_db):
    h = random_channel(seed, 4, 10)
    noise = NoiseModel.from_snr_db(snr_db)
    loss = zf_capacity_loss(h, PAIR, noise)
    bound = zf_capacity_loss_bound(h, PAIR)
    assert loss > 0
    assert loss < bound + 1e-12


def test_capacity_loss_equals_capacity_difference():
    # the closed form must reproduce the plain capacity gap it abbreviates
    h = random_channel(7, 4, 10)
    noise = NoiseModel.from_snr_db(12.0)
    loss = zf_capacity_loss(h, PAIR, noise)
    gap = (capacity_of_set(h, OUTER, "zf", noise)
           - capacity_of_set(h, INNER, "zf", noise))
    assert loss == pytest.approx(gap, rel=1e-9)


def test_capacity_loss_converges_to_bound():
    h = random_channel(8, 4, 10)
    loss_60 = zf_capacity_loss(h, PAIR, NoiseModel.from_snr_db(60.0))
    bound = zf_capacity_loss_bound(h, PAIR)
    assert loss_60 == pytest.approx(bound, rel=1e-3)


def test_capacity_loss_monotone_in_noise():
    h = random_channel(9, 4, 10)
    grid = np.logspace(-6, 1, 60)
    losses = [zf_capacity_loss(h, PAIR, NoiseModel(n0)) for n0 in grid]
    assert (np.diff(losses) <= 1e-12).all()  # shrinks as noise grows


def test_mmse_mse_identity_channel():
    h = np.eye(4, dtype=complex)
    # all singular values 1: mse = c * 4/(1+c) with c = N_r N_0
    assert mmse_mse(h, PortSet(range(1, 5)), NoiseModel(0.25)) == pytest.approx(2.0)


def test_mmse_mse_matches_error_covariance():
    h = random_channel(10, 4, 6)
    noise = NoiseModel.from_snr_db(6.0)
    ports = PortSet(range(1, 7))
    got = mmse_mse(h, ports, noise)
    c = 4 * noise.n0
    direct = c * np.trace(np.linalg.inv(h @ h.conj().T + c * np.eye(4))).real
    assert got == pytest.approx(direct, rel=1e-12)


def test_mmse_mse_monotone_in_snr_and_ports():
    h = random_channel(11, 4, 10)
    snrs = np.linspace(-10, 30, 50)
    vals = [mmse_mse(h, INNER, NoiseModel.from_snr_db(s)) for s in snrs]
    assert (np.diff(vals) < 0).all()
    more = mmse_mse(h, OUTER, NoiseModel.from_snr_db(10.0))
    fewer = mmse_mse(h, INNER, NoiseModel.from_snr_db(10.0))
    assert more < fewer


def test_mmse_mse_vanishes_with_noise():
    h = random_channel(12, 4, 10)
    assert mmse_mse(h, INNER, NoiseModel(1e-9)) < 1e-6


@settings(max_examples=25)
@given(seed=st.integers(0, 4000), snr_db=st.floats(-5, 25))
def test_mse_difference_positive(seed, snr_db):
    h = random_channel(seed, 4, 10)
    assert mmse_mse_difference(h, PAIR, NoiseModel.from_snr_db(snr_db)) > 0


def test_mse_difference_equals_direct_gap():
    h = random_channel(13, 4, 10)
    noise = NoiseModel.from_snr_db(9.0)
    diff = mmse_mse_difference(h, PAIR, noise)
    direct = mmse_mse(h, INNER, noise) - mmse_mse(h, OUTER, noise)
    assert diff == pytest.approx(direct, rel=1e-9)


def test_mse_difference_vanishes_with_noise():
    h = random_channel(14, 4, 10)
    vals = [mmse_mse_difference(h, PAIR, NoiseModel(n0))
            for n0 in np.logspace(-1, -8, 15)]
    assert (np.diff(vals) < 0).all()
    assert vals[-1] < 1e-6


FIRST = NestedSetPair(inner=PortSet(range(1, 5)), outer=PortSet(range(1, 17)))


@pytest.mark.parametrize("w", [0.25, 1.0])
def test_stack_equals_single(w):
    # each routine returns, entry by entry, what it returns on each draw
    # alone: the stack is factored at once, not draw by draw
    hs = draw_channels(SimConfig(w1=w, w2=w), 12).channels
    assert hs.shape == (12, 4, 16)
    routines = [lambda h: zf_capacity_loss_bound(h, FIRST)]
    for snr_db in (0.0, 20.0, 40.0):
        noise = NoiseModel.from_snr_db(snr_db)
        routines += [
            lambda h, n=noise: zf_capacity_loss(h, FIRST, n),
            lambda h, n=noise: mmse_mse(h, FIRST.inner, n),
            lambda h, n=noise: mmse_mse_difference(h, FIRST, n),
            lambda h, n=noise: capacity_of_set(h, FIRST.inner, "zf", n),
            lambda h, n=noise: capacity_of_set(h, FIRST.outer, "mmse", n)]
    for routine in routines:
        stacked = routine(hs)
        assert stacked.shape == (12,)
        assert np.array_equal(stacked, [routine(h) for h in hs])


def test_stack_with_a_rank_deficient_draw_raises():
    hs = draw_channels(SimConfig(), 6).channels.copy()
    hs[3] = np.outer(hs[3, :, 0], np.ones(16))  # rank one
    with pytest.raises(SingularChannelError, match="draw 3 "):
        zf_capacity_loss(hs, FIRST, NoiseModel.from_snr_db(10.0))
    with pytest.raises(SingularChannelError, match="draw 3 "):
        zf_capacity_loss_bound(hs, FIRST)


@pytest.mark.parametrize("routine, direct", [
    (zf_capacity_loss, "capacity_of_set"),
    (mmse_mse_difference, "mmse_mse")])
def test_disagreement_names_the_draw(routine, direct, monkeypatch):
    # a direct route off by 1e-6 on draw 4 of the inner set alone fails the
    # 1e-9 check there
    hs = draw_channels(SimConfig(), 6).channels
    exact = getattr(theory, direct)

    def skewed(h, ports, *args):
        value = exact(h, ports, *args).copy()
        if ports is FIRST.inner:
            value[4] += 1e-6
        return value

    monkeypatch.setattr(theory, direct, skewed)
    with pytest.raises(NumericalError, match="routes disagree on draw 4: "):
        routine(hs, FIRST, NoiseModel.from_snr_db(10.0))
