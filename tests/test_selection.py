import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_channel
from farsm import selection
from farsm.channel import (SeededRng, restrict_to_ports,
                           sample_correlated_channel)
from farsm.correlation import (build_correlation_model, port_coordinates,
                               sorted_pair_correlations)
from farsm.errors import ConfigError, SingularChannelError
from farsm.precoding import NoiseModel
from farsm.selection import (_OPTIMAL_TILE_MINORS, REMOVAL_EPS, PortSet,
                             _batch_mce_stage1, _batch_mce_tmd,
                             _batch_optimal, _batch_tmd,
                             _minor_capacities, _minor_workspace,
                             _principal_minors, _stage1_depth,
                             _subset_capacities, _subset_table,
                             capacity_of_set,
                             initial_trace_state, mce_tmd_select,
                             optimal_select, smw_downdate, tmd_select,
                             tmd_trace_metric)
from farsm.simulate import SimConfig, _draw_trials, _port_model


def gram_trace_inverse(h, ports):
    sub = restrict_to_ports(h, ports)
    return np.trace(np.linalg.inv(sub @ sub.conj().T)).real


def greedy_trace_walk(h, n_a, ports=None):
    """TMD composed from the one-port oracles: each step removes the active
    port of least tmd_trace_metric (the first on a tie) by smw_downdate; a
    non-removable port costs inf. initial_trace_state raises on a singular
    Gram. Returns the surviving 1-based ports."""
    state = initial_trace_state(h, ports)
    while len(state.active) > n_a:
        costs = []
        for port in state.active:
            try:
                costs.append(tmd_trace_metric(state, port, h))
            except SingularChannelError:
                costs.append(np.inf)
        j = int(np.argmin(costs))
        assert np.isfinite(costs[j])
        state = smw_downdate(state, state.active[j], h)
    return list(state.active)


def test_portset_normalizes():
    s = PortSet((5, 2, 9))
    assert list(s) == [2, 5, 9]
    assert len(s) == 3
    assert 5 in s and 3 not in s
    with pytest.raises(ValueError):
        PortSet((1, 1, 2))
    with pytest.raises(ValueError):
        PortSet((0, 2))


def test_capacity_of_set_matches_logdet():
    h = random_channel(3, 4, 16)
    ports = PortSet((1, 4, 9, 16))
    noise = NoiseModel.from_snr_db(10.0)
    cap = capacity_of_set(h, ports, "zf", noise)
    sub = restrict_to_ports(h, ports)
    from farsm.precoding import zf_precoder
    hp = sub @ zf_precoder(sub).matrix
    direct = np.linalg.slogdet(
        np.eye(4) + (hp @ hp.conj().T) / (4 * noise.n0))[1] / np.log(2)
    assert cap == pytest.approx(direct, rel=1e-12)


@settings(max_examples=40)
@given(seed=st.integers(0, 5000), n=st.integers(6, 12))
def test_downdate_matches_direct_inverse(seed, n):
    h = random_channel(seed, 4, n)
    state = initial_trace_state(h)
    # peel ports off (keeping at least N_r) and compare against a
    # from-scratch inverse
    for _ in range(min(3, n - 4)):
        port = next(iter(state.active))
        state = smw_downdate(state, port, h)
        sub = restrict_to_ports(h, state.active)
        direct = np.linalg.inv(sub @ sub.conj().T)
        # embed: state's inverse is indexed by receive antennas, same basis
        rel = np.linalg.norm(state.inverse - direct) / np.linalg.norm(direct)
        assert rel < 1e-9


@settings(max_examples=40)
@given(seed=st.integers(0, 5000))
def test_metric_equals_trace_increment(seed):
    h = random_channel(seed, 4, 10)
    state = initial_trace_state(h)
    before = np.trace(state.inverse).real
    for port in (2, 7, 10):
        metric = tmd_trace_metric(state, port, h)
        remaining = tuple(p for p in state.active if p != port)
        after = gram_trace_inverse(h, remaining)
        assert metric == pytest.approx(after - before, rel=1e-9)


def test_tmd_choices_match_bruteforce():
    for seed in range(50):
        h = random_channel(seed, 4, 12)
        active = list(range(1, 13))
        expect = []
        while len(active) > 6:
            traces = {p: gram_trace_inverse(h, [q for q in active if q != p])
                      for p in active}
            drop = min(traces, key=lambda p: (traces[p], p))
            expect.append(drop)
            active.remove(drop)
        got = tmd_select(h, 6)
        assert list(got) == sorted(active), seed


def test_tmd_validates_bounds():
    h = random_channel(0, 4, 8)
    with pytest.raises(ValueError):
        tmd_select(h, 3)  # below N_r
    with pytest.raises(ValueError):
        tmd_select(h, 9)  # above N


def test_tmd_rank_deficient_raises():
    h = np.tile(random_channel(1, 4, 1), (1, 8))  # rank one
    with pytest.raises(SingularChannelError):
        tmd_select(h, 4)


@pytest.mark.parametrize("kind,n0", [("zf", 1.0), ("mmse", 0.1)])
def test_optimal_select_matches_bruteforce(kind, n0):
    noise = NoiseModel(n0)
    for seed in range(10):
        h = random_channel(seed + 100, 4, 8)
        best, best_cap = None, -np.inf
        for combo in itertools.combinations(range(1, 9), 4):
            cap = capacity_of_set(h, PortSet(combo), kind, noise)
            if cap > best_cap + 1e-12:
                best, best_cap = combo, cap
        got = optimal_select(h, 4, kind, noise)
        assert tuple(got) == best, (kind, seed)


def test_optimal_select_refuses_large_port_counts():
    h = random_channel(0, 4, 24)
    with pytest.raises(ConfigError):
        optimal_select(h, 4, "zf", NoiseModel(1.0))


def test_optimal_select_singular_raises():
    h = np.tile(random_channel(2, 4, 1), (1, 8))
    with pytest.raises(SingularChannelError):
        optimal_select(h, 4, "zf", NoiseModel(1.0))


def test_mce_tmd_nested_structure(default_model, draw_channel):
    pairs = sorted_pair_correlations(default_model)
    h = draw_channel(17)
    sel = mce_tmd_select(h, pairs, 12, 4)
    assert len(sel) == 4
    masks = _batch_mce_stage1(h[None], pairs, 12)
    assert masks[0].sum() == 12
    # stage two only ever removes, so the result nests in stage one
    survivors = {int(i) + 1 for i in np.flatnonzero(masks[0])}
    assert set(sel) <= survivors
    # and it is the greedy trace rule on the survivors
    assert list(sel) == greedy_trace_walk(h, 4, PortSet(tuple(survivors)))


def test_mce_tmd_equals_batch_reference(default_model, draw_channel):
    pairs = sorted_pair_correlations(default_model)
    for seed in range(30):
        h = draw_channel(seed)
        sel = mce_tmd_select(h, pairs, 12, 4)
        idx, failed = _batch_mce_tmd(h[None], pairs, 12, 4)
        assert not failed[0]
        assert list(sel) == [int(i) + 1 for i in idx[0]]


def test_mce_tmd_batched_stack_equals_scalar(default_model, draw_channel):
    # one call over the whole stack: every row's stage-one walk runs in
    # the same array operations, so rows cannot leak into each other
    pairs = sorted_pair_correlations(default_model)
    # the norm-tie channel of the next test leads the stack
    g = np.random.Generator(np.random.Philox(99))
    tie = (g.standard_normal((4, 16)) + 1j * g.standard_normal((4, 16)))
    tie[:, 0] *= 10.0 / np.abs(tie[:, 0] @ tie[:, 0].conj()) ** 0.5
    tie[:, 1] = tie[:, 0]
    # pairs (1, 2) and (1, 5), ranked first and second, tie exactly at the
    # top score; the first wins and prunes port 2, then (1, 5) prunes
    # port 1. Taking (1, 5) first would prune port 1 and kill (1, 2).
    rank = draw_channel(699)
    rank[:, 0] = [6.0, 8.0, 0.0, 0.0]
    rank[:, 1] = 0.5 * rank[:, 0]
    rank[:, 4] = [3.0, 4.0, 10.0, 10.0]
    hb = np.stack([tie, rank] + [draw_channel(s + 700) for s in range(220)])
    masks = _batch_mce_stage1(hb, pairs, 12)
    assert (masks.sum(axis=1) == 12).all()
    assert masks[0][0] and not masks[0][1]
    assert not masks[1][0] and not masks[1][1] and masks[1][4]
    idx, failed = _batch_mce_tmd(hb, pairs, 12, 4)
    assert not failed.any()
    for b in range(len(hb)):
        ref = mce_tmd_select(hb[b], pairs, 12, 4)
        assert [int(i) + 1 for i in idx[b]] == list(ref)


def test_mce_stage1_norm_tie_removes_larger_index(default_model):
    pairs = sorted_pair_correlations(default_model)
    g = np.random.Generator(np.random.Philox(99))
    h = (g.standard_normal((4, 16)) + 1j * g.standard_normal((4, 16)))
    h[:, 1] = h[:, 0]  # ports 1 and 2: same column, equal norms, top pair
    h[:, 0] *= 10.0 / np.abs(h[:, 0] @ h[:, 0].conj()) ** 0.5
    h[:, 1] = h[:, 0]
    masks = _batch_mce_stage1(h[None], pairs, 12)
    assert masks[0][0]  # port 1 survives
    assert not masks[0][1]  # port 2 (larger index of the tie) is pruned


def _near_tie_channels(model, pairs, n_b, n_a, count, gap=1e-12):
    """Channels whose two best pairs of the first stage-one window score
    within ``gap`` (relative) of each other, the later-ranked pair ahead,
    and where taking the earlier pair instead changes the selection.

    A port of the later pair that is not in the earlier one has its column
    rescaled to set the gap. The engine's kernel and the oracle agree far
    inside it in float64; in float32 each score is off by about 1e-7
    relative, so the order of the two pairs is a coin toss.
    """
    pf, ps = pairs.first[:n_b] - 1, pairs.second[:n_b] - 1
    out = []
    for seed in itertools.count(9000):
        if len(out) == count:
            return np.stack(out)
        h = sample_correlated_channel(model, 4, SeededRng(seed))
        s = np.abs((h.conj().T @ h)[pf, ps])
        i, j = sorted(np.argsort(-s)[:2])
        q = next(p for p in (pf[j], ps[j]) if p not in (pf[i], ps[i]))
        ahead, behind = h.copy(), h.copy()
        ahead[:, q] *= s[i] / s[j] * (1.0 + gap)
        behind[:, q] *= s[i] / s[j] * (1.0 - gap)
        t = np.abs((ahead.conj().T @ ahead)[pf, ps])
        if (np.argmax(t) == j and 0 < t[j] / t[i] - 1 < 2 * gap
                and mce_tmd_select(ahead, pairs, n_b, n_a)
                != mce_tmd_select(behind, pairs, n_b, n_a)):
            out.append(ahead)


def test_mce_stage1_orders_near_tied_pairs_in_double_precision(
        default_model):
    # the first removal's two leading pairs score 1e-12 apart and their
    # order decides the selection, so stage one must score in float64
    pairs = sorted_pair_correlations(default_model)
    hb = _near_tie_channels(default_model, pairs, 12, 4, 8)
    idx, failed = _batch_mce_tmd(hb, pairs, 12, 4)
    assert not failed.any()
    for b in range(len(hb)):
        ref = mce_tmd_select(hb[b], pairs, 12, 4)
        assert [int(i) + 1 for i in idx[b]] == list(ref), b


def _hub_channels(pairs, n, n_b, count):
    """Channels whose stage-one removals favour hub ports.

    The N - n_b + 1 ports that sit in the most of the first 2 n_b ranked
    pairs share one strong direction, so removals tend to hit the ports with
    the most top-ranked pairs. This does not push a window to the prefix
    cut: on the 4x4 grid at n_b = 12 the ranking geometry, not the channel,
    limits window depth (no removal sequence reads past pair 23 of the 24
    read), so this case checks the batched route on strongly structured
    channels only.
    """
    top = np.concatenate([pairs.first[:2 * n_b], pairs.second[:2 * n_b]])
    degree = np.bincount(top - 1, minlength=n)
    hubs = np.argsort(-degree, kind="stable")[:n - n_b + 1]
    out = []
    for seed in range(count):
        h = random_channel(seed + 1000, 4, n)
        u = random_channel(seed + 5000, 4, 1)
        h[:, hubs] = (10.0 * (u + 0.1 * h[:, hubs])
                      * (1.0 + 0.01 * np.arange(hubs.size)))
        out.append(h)
    return np.stack(out)


@pytest.mark.parametrize("case", ["nb-n-minus-1", "nb-na-plus-1", "hubs",
                                  "grid-4x5-na6", "w-0.05"])
def test_mce_tmd_prefix_bound_edges_equal_scalar(case, default_model):
    # stage one reads only the prefix _stage1_depth sizes from the pair
    # list; the scalar walk reads the whole list, so it is the oracle. On
    # the 0.05-wavelength aperture the columns are nearly parallel, so the
    # pair scores crowd the port norms and each other
    model, n_b, n_a = default_model, 12, 4
    if case == "w-0.05":
        model = build_correlation_model(port_coordinates(0.05, 0.05, 4, 4))
    elif case == "nb-n-minus-1":
        n_b = 15  # the prefix is n_b pairs: the one window is all of it
    elif case == "nb-na-plus-1":
        n_b = 5  # the prefix is the whole list of 120 pairs
    elif case == "grid-4x5-na6":
        model = build_correlation_model(port_coordinates(1.0, 1.0, 4, 5))
        n_b, n_a = 10, 6
    pairs = sorted_pair_correlations(model)
    n = model.grid.n_ports
    if case == "hubs":
        hb = _hub_channels(pairs, n, n_b, 150)
    else:
        hb = np.stack([sample_correlated_channel(model, 4, SeededRng(s + 3000))
                       for s in range(150)])
    idx, failed = _batch_mce_tmd(hb, pairs, n_b, n_a)
    assert not failed.any()
    for b in range(len(hb)):
        ref = mce_tmd_select(hb[b], pairs, n_b, n_a)
        assert [int(i) + 1 for i in idx[b]] == list(ref), b


def _deepest_window(pf, ps, n, n_b):
    """The deepest 1-based position of the n_b-th live pair over every set of
    N - n_b - 1 removed ports, by enumeration."""
    sets = list(itertools.combinations(range(n), n - n_b - 1))
    sets = np.array(sets, dtype=np.intp).reshape(len(sets), n - n_b - 1)
    deepest = 0
    for lo in range(0, len(sets), 4096):
        chunk = sets[lo:lo + 4096]
        removed = np.zeros((len(chunk), n), dtype=bool)
        removed[np.arange(len(chunk))[:, None], chunk] = True
        alive = ~(removed[:, pf] | removed[:, ps])
        assert (alive.sum(axis=1) >= n_b).all()
        reach = np.argmax(np.cumsum(alive, axis=1) >= n_b, axis=1) + 1
        deepest = max(deepest, int(reach.max()))
    return deepest


@pytest.mark.parametrize("grid, n_b, deepest, depth", [
    ((4, 4), 12, 23, 24), ((4, 5), 10, 67, 160), ((4, 4), 15, 15, 15),
    ((4, 4), 5, 84, 120)])
def test_stage1_depth_bounds_every_removal_set(grid, n_b, deepest, depth):
    # the prefix must hold the n_b-th live pair whatever N - n_b - 1 ports
    # the walk removed before its last removal; fewer removed ports kill
    # fewer pairs, so these sets are the worst case
    pairs = sorted_pair_correlations(
        build_correlation_model(port_coordinates(1.0, 1.0, *grid)))
    n = grid[0] * grid[1]
    pf = pairs.first.astype(np.intp) - 1
    ps = pairs.second.astype(np.intp) - 1
    assert _stage1_depth(pf, ps, n, n_b) == depth
    assert _deepest_window(pf, ps, n, n_b) == deepest <= depth


def test_mce_tmd_validates_stage_sizes(default_model, draw_channel):
    pairs = sorted_pair_correlations(default_model)
    h = draw_channel(0)
    with pytest.raises(ValueError):
        mce_tmd_select(h, pairs, 16, 4)  # n_b must be < N
    with pytest.raises(ValueError):
        mce_tmd_select(h, pairs, 4, 4)  # n_a must be < n_b


def test_batch_tmd_equals_singleton(draw_channel):
    hb = np.stack([draw_channel(s) for s in range(40)])
    idx, failed = _batch_tmd(hb, 4)
    assert not failed.any()
    for b in range(40):
        assert [int(i) + 1 for i in idx[b]] == greedy_trace_walk(hb[b], 4)


@pytest.mark.parametrize("n_r,n1,n2,n_a", [
    (2, 2, 3, 2),   # two receive rows: the in-order row sum is one add
    (4, 4, 4, 6),
    (8, 3, 4, 8),
    (8, 3, 4, 9),
], ids=["nr2-2x3", "nr4-4x4-na6", "nr8-3x4-na8", "nr8-3x4-na9"])
def test_batch_tmd_equals_scalar_across_shapes(n_r, n1, n2, n_a):
    model = build_correlation_model(port_coordinates(1.0, 1.0, n1, n2))
    hb = np.stack([sample_correlated_channel(model, n_r, SeededRng(s + 4000))
                   for s in range(60)])
    idx, failed = _batch_tmd(hb, n_a)
    assert not failed.any()
    for b in range(60):
        assert [int(i) + 1 for i in idx[b]] == greedy_trace_walk(hb[b], n_a), b


def test_batch_tmd_degenerate_rows(draw_channel):
    # healthy draws interleaved with channels whose Gram is singular, with
    # a condition far beyond MAX_CONDITION; initial_trace_state screens
    # with the stack's screen, so it fails on the same rows
    n_a, n = 4, 16
    degenerate = {
        "rank-one": np.tile(random_channel(1, 4, 1), (1, n)),
        "rank-two": random_channel(2, 4, 2) @ random_channel(3, 2, n),
        "zero-row": draw_channel(3).copy(),
        "zero": np.zeros((4, n), dtype=complex),
        "one-port": np.zeros((4, n), dtype=complex),
    }
    degenerate["zero-row"][2] = 0
    degenerate["one-port"][:, 5] = random_channel(4, 4, 1)[:, 0]
    rows = []
    for s, h in enumerate(degenerate.values()):
        rows += [draw_channel(s + 900), h, draw_channel(s + 950)]
    hb = np.stack(rows)
    idx, failed = _batch_tmd(hb, n_a)
    assert failed.sum() == len(degenerate)
    assert idx.shape == (len(rows), n_a)
    assert np.all(np.diff(idx, axis=1) > 0)
    assert idx.min() >= 0 and idx.max() < n
    for b, h in enumerate(rows):
        try:
            initial_trace_state(h)
        except SingularChannelError:
            assert failed[b], b
            continue
        assert not failed[b], b
        assert [int(i) + 1 for i in idx[b]] == greedy_trace_walk(h, n_a), b
    # an all-zero channel has no inverse at all, so every step it sheds its
    # first active port and keeps the last n_a
    zero = 3 * list(degenerate).index("zero") + 1
    assert idx[zero].tolist() == list(range(n - n_a, n))


@pytest.mark.parametrize("ws, rows", [((0.05,), 128), ((0.1,), 128),
                                      ((1.0, 0.05), 600)],
                         ids=["0.05", "0.1", "row-blocks"])
def test_batch_tmd_equals_scalar_on_ill_conditioned_draws(ws, rows):
    # engine draws on a small aperture: the 16 ports are strongly
    # correlated, so the removal denominators den_n that _batch_tmd carries
    # across its 12 removals shrink furthest and rounding builds up most.
    # The 600-row stack alternates one-wavelength and 0.05-wavelength draws
    # and spans three of the row blocks of _batch_tmd's set-up.
    stacks = []
    for w in ws:
        cfg = SimConfig(w1=w, w2=w, master_seed=31).validate()
        stacks.append(_draw_trials(cfg, np.arange(rows // len(ws)), 0,
                                   _port_model(cfg)[0])[0])
    hb = np.stack(stacks, axis=1).reshape(rows, cfg.n_r, cfg.n_ports)
    idx, failed = _batch_tmd(hb, cfg.n_a)
    for b, h in enumerate(hb):
        try:
            ref = greedy_trace_walk(h, cfg.n_a)
        except SingularChannelError:
            assert failed[b], b
            continue
        assert not failed[b], b
        assert [int(i) + 1 for i in idx[b]] == ref, b


def _count_masked_rows(monkeypatch):
    """Spy on _batch_tmd's masked port choice; the one-element list it
    returns counts the rows that took it, summed over the steps."""
    seen = [0]
    masked = selection._masked_choice

    def spy(cost, den, act):
        seen[0] += len(cost)
        return masked(cost, den, act)

    monkeypatch.setattr(selection, "_masked_choice", spy)
    return seen


@pytest.mark.parametrize("eps", [0.02, 0.05])
def test_batch_tmd_masked_fallback_equals_scalar(eps, monkeypatch):
    # with REMOVAL_EPS raised, ports with den_n <= eps are not removable,
    # and on N_r = 8 draws of a 0.1-wavelength aperture some rows' unmasked
    # winner is such a port, so they take the masked rule; the oracle reads
    # the same REMOVAL_EPS
    monkeypatch.setattr(selection, "REMOVAL_EPS", eps)
    seen = _count_masked_rows(monkeypatch)
    cfg = SimConfig(n_r=8, n_a=8, w1=0.1, w2=0.1, portsel="tmd",
                    master_seed=31).validate()
    hb = _draw_trials(cfg, np.arange(256), 0, _port_model(cfg)[0])[0]
    idx, failed = _batch_tmd(hb, cfg.n_a)
    assert seen[0] > 0
    assert not failed.any()
    for b, h in enumerate(hb):
        assert [int(i) + 1 for i in idx[b]] == greedy_trace_walk(h, cfg.n_a), b


@pytest.mark.parametrize("eps", [REMOVAL_EPS, 0.2], ids=["default", "0.2"])
def test_batch_tmd_mixed_stack_equals_rows_one_at_a_time(eps, draw_channel,
                                                          monkeypatch):
    # healthy draws, draws of a 0.1-wavelength aperture and the degenerate
    # channels of test_batch_tmd_degenerate_rows in one stack: no row's
    # ports or failure flag may depend on the rows beside it. Degenerate
    # rows take the masked rule at every step; at eps = 0.2 some healthy
    # rows take it too.
    monkeypatch.setattr(selection, "REMOVAL_EPS", eps)
    seen = _count_masked_rows(monkeypatch)
    n_a, n = 4, 16
    one_port = np.zeros((4, n), dtype=complex)
    one_port[:, 5] = random_channel(4, 4, 1)[:, 0]
    zero_row = draw_channel(3).copy()
    zero_row[2] = 0
    degenerate = [np.tile(random_channel(1, 4, 1), (1, n)),
                  random_channel(2, 4, 2) @ random_channel(3, 2, n),
                  zero_row, np.zeros((4, n), dtype=complex), one_port]
    cfg = SimConfig(w1=0.1, w2=0.1, master_seed=31).validate()
    narrow = _draw_trials(cfg, np.arange(96), 0, _port_model(cfg)[0])[0]
    rows = [draw_channel(s + 700) for s in range(64)] + list(narrow)
    for k, h in enumerate(degenerate):
        rows.insert(29 * k + 3, h)
    idx, failed = _batch_tmd(np.stack(rows), n_a)
    assert failed.sum() == len(degenerate)
    healthy_masked = 0
    for b, h in enumerate(rows):
        before = seen[0]
        one_idx, one_failed = _batch_tmd(h[None], n_a)
        assert idx[b].tolist() == one_idx[0].tolist(), b
        assert failed[b] == one_failed[0], b
        healthy_masked += seen[0] > before and not one_failed[0]
    assert (healthy_masked > 0) == (eps > REMOVAL_EPS), healthy_masked


@pytest.mark.parametrize("kind,n0", [("zf", 1.0), ("mmse", 0.0316)])
def test_batch_optimal_equals_singleton(kind, n0, draw_channel,
                                        compact_model):
    # pins the engine's minor-table kernel to optimal_select's per-subset
    # SVD scores: at N_r = 4 on the default aperture, and at N_r = 8 on the
    # compact one, where subset Grams are ill conditioned
    hb = np.stack([draw_channel(s + 500) for s in range(200)])
    idx, failed = _batch_optimal(hb, 4, kind, n0)
    assert not failed.any()
    for b in range(200):
        ref = optimal_select(hb[b], 4, kind, NoiseModel(n0))
        assert [int(i) + 1 for i in idx[b]] == list(ref)
    hb = np.stack([sample_correlated_channel(compact_model, 8,
                                             SeededRng(s + 600))
                   for s in range(20)])
    idx, failed = _batch_optimal(hb, 8, kind, n0)
    assert not failed.any()
    for b in range(20):
        ref = optimal_select(hb[b], 8, kind, NoiseModel(n0))
        assert [int(i) + 1 for i in idx[b]] == list(ref), b


@pytest.fixture(scope="module")
def compact_model():
    """3 x 4 ports on a half-by-half wavelength aperture: strongly
    correlated, so subset Grams are ill conditioned."""
    return build_correlation_model(port_coordinates(0.5, 0.5, 3, 4))


@pytest.mark.parametrize("n_r,n", [(2, 6), (4, 16), (8, 12)])
def test_principal_minors_match_cauchy_binet_at_every_level(n_r, n):
    # P_k[J] = sum_R |det H[R, J]|^2 over the k-row subsets R, from
    # np.linalg.det on every (R, J), at every level k = 1..N_r: ZF reads
    # only levels {1, N_r - 1, N_r}, and the capacity tests reach the
    # others only through MMSE capacities
    hb = np.stack([random_channel(seed + 40, n_r, n) for seed in range(3)])
    levels = set(range(1, n_r + 1))
    tables = _principal_minors(hb, levels, _minor_workspace(n_r, n, 3))
    assert sorted(tables) == sorted(levels)
    for k in levels:
        rows = np.array(list(itertools.combinations(range(n_r), k)))
        # column subsets in colex order: sorted by their largest element
        # first, which is lexicographic order on the reversed tuples
        cols = np.array(sorted(itertools.combinations(range(n), k),
                               key=lambda c: c[::-1]))
        sub = hb[:, rows[:, None, :, None], cols[None, :, None, :]]
        ref = (np.abs(np.linalg.det(sub)) ** 2).sum(axis=1)  # (B, C(N, k))
        assert tables[k].shape == (len(cols), 3)
        np.testing.assert_allclose(tables[k], ref.T, rtol=1e-10, atol=0)


@pytest.mark.parametrize("kind", ["zf", "mmse"])
@pytest.mark.parametrize("n_r,n_a", [(8, 8), (4, 6)])
def test_minor_capacities_match_capacity_of_set(kind, n_r, n_a,
                                                compact_model):
    noise = NoiseModel(0.01)
    subsets = _subset_table(12, n_a)
    for seed in range(3):
        h = sample_correlated_channel(compact_model, n_r, SeededRng(seed))
        ref = np.array([capacity_of_set(h, PortSet(tuple(s + 1)), kind, noise)
                        for s in subsets])
        for got in (_minor_capacities(h[None], n_a, kind, noise.n0)[0],
                    _subset_capacities(h, subsets, kind, noise.n0)):
            np.testing.assert_allclose(got, ref, rtol=1e-8, atol=0)
        idx, failed = _batch_optimal(h[None], n_a, kind, noise.n0)
        assert not failed[0]
        assert idx[0].tolist() == subsets[int(np.argmax(ref))].tolist()


@pytest.mark.parametrize("kind,n0", [("zf", 1.0), ("mmse", 0.0316)])
def test_batch_optimal_is_tiling_invariant(kind, n0, draw_channel):
    hb = np.stack([draw_channel(s + 300) for s in range(41)])
    singular = 17
    hb[singular] = np.tile(hb[singular][:, :1], (1, 16))  # rank one
    tile = _OPTIMAL_TILE_MINORS // (4 * 560)  # widest table: 3 x 3 minors
    assert 2 * tile < len(hb)
    idx, failed = _batch_optimal(hb, 4, kind, n0)
    for step in (1, 9, tile + 1):
        parts = [_batch_optimal(hb[lo:lo + step], 4, kind, n0)
                 for lo in range(0, len(hb), step)]
        assert np.array_equal(np.concatenate([p[0] for p in parts]), idx)
        assert np.array_equal(np.concatenate([p[1] for p in parts]), failed)
    if kind == "zf":
        assert np.flatnonzero(failed).tolist() == [singular]
        assert idx[singular].tolist() == [0, 1, 2, 3]  # the first subset
    else:
        # the regularized capacity of a rank-one channel is finite
        assert not failed.any()


@pytest.mark.parametrize("tile", ["one trial", "full"])
def test_batch_optimal_screens_every_candidate_when_the_winner_fails(
        tile, draw_channel, monkeypatch):
    # one column scaled by 1e5 to 1e8: the subsets holding it have the
    # least tr(W^-1) of their row, and on most rows the ZF bound
    # tr(W) tr(W^-1) > 1e12 rejects them, so _batch_optimal must screen
    # every candidate there
    rows = 50
    hb = np.stack([draw_channel(s + 700) for s in range(rows)])
    hb[np.arange(rows), :, np.arange(rows) % 16] *= (
        10.0 ** np.linspace(5, 8, rows))[:, None]
    subsets = _subset_table(16, 4)
    winner_fails = 0
    for h in hb:
        lam = np.linalg.svd(np.moveaxis(h[:, subsets], 0, 1),
                            compute_uv=False) ** 2
        winner = np.argmin(np.sum(1.0 / lam, axis=1))
        scores = _subset_capacities(h, subsets, "zf", 1.0)
        winner_fails += not np.isfinite(scores[winner])
    assert winner_fails >= rows // 2
    if tile == "one trial":
        monkeypatch.setattr("farsm.selection._OPTIMAL_TILE_MINORS", 1)
    idx, failed = _batch_optimal(hb, 4, "zf", 1.0)
    assert not failed.any()
    for b in range(rows):
        ref = optimal_select(hb[b], 4, "zf", NoiseModel(1.0))
        assert [int(i) + 1 for i in idx[b]] == list(ref), b


def test_selection_prefers_low_correlation(default_model, draw_channel):
    # across many draws the exhaustive choice should beat the naive first-4
    # set on capacity essentially always
    noise = NoiseModel.from_snr_db(10.0)
    wins = 0
    for seed in range(25):
        h = draw_channel(seed + 900)
        best = optimal_select(h, 4, "zf", noise)
        cap_best = capacity_of_set(h, best, "zf", noise)
        cap_first = capacity_of_set(h, PortSet((1, 2, 3, 4)), "zf", noise)
        assert cap_best >= cap_first - 1e-12
        wins += cap_best > cap_first + 0.1
    assert wins >= 20
