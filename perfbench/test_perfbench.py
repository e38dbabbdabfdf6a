"""Self-tests of the benchmark: reference band, hook table, traced counts.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import farsm.simulate as sim  # noqa: E402
from tracer import (HOOKS, METRICS, Hook, Tracer, layer_metrics,  # noqa: E402
                    split_gap_s)
from workloads import WORKLOADS, band_check, chunk_seed  # noqa: E402

# Exact per-sweep counters that must repeat between traced runs at one seed.
EXACT_COUNTS = ("generators", "precode_calls", "score_calls", "mld_rows",
                "batches", "redraws")


def _errors(cfg) -> list[int]:
    return [p.bit_errors for p in sim.run_ber_sweep(cfg).points]


def _small(name: str):
    w = WORKLOADS[name]
    trials = {"zf-optimal": 256, "zf-tmd": 4096, "mmse-mce-rttd-64": 2048}[name]
    return w.sim_config(trials, chunk_seed(11, 0))


def test_reference_band_accepts_the_engine():
    cfg = _small("zf-tmd")
    assert all(band_check("zf-tmd", cfg.trials, _errors(cfg)))


def test_reference_band_flags_a_known_wrong_selector():
    # zf-optimal counts produced with the first ports instead of the best
    cfg = replace(WORKLOADS["zf-optimal"].sim_config(1024, chunk_seed(3, 0)),
                  portsel="first")
    assert not any(band_check("zf-optimal", cfg.trials, _errors(cfg)))


def _traced(cfg, hooks=HOOKS) -> tuple[Tracer, list[int]]:
    tr = Tracer()
    with tr.installed(hooks):
        errors = _errors(cfg)
    return tr, errors


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_tracing_keeps_results(name):
    cfg = _small(name)
    plain = _errors(cfg)
    first, errors_1 = _traced(cfg)
    second, errors_2 = _traced(cfg)
    assert errors_1 == plain and errors_2 == plain
    assert not first.absent
    assert {k: first.counts[k] for k in EXACT_COUNTS} == \
        {k: second.counts[k] for k in EXACT_COUNTS}
    assert first.counts["batches"] == -(-cfg.trials // sim._BATCH)
    assert first.counts["mld_rows"] > 0
    # the reported layer times partition the sweep span
    gap = split_gap_s(first, layer_metrics(first, 1), 1)
    assert abs(gap) <= 1e-9 * first.total["sweep"]


def test_split_check_flags_a_nested_span():
    # time _mld_batch as a second "detect" span nested inside _detect_batch:
    # its time is then reported twice and the partition no longer holds
    hooks = tuple(h for h in HOOKS if h.name != "mld") + (
        Hook("detect", "farsm.simulate", "_mld_batch", True),)
    tr, _ = _traced(_small("zf-tmd"), hooks)
    gap = split_gap_s(tr, layer_metrics(tr, 1), 1)
    assert gap < -1e-6 * tr.total["sweep"]


def test_med_frac_matches_the_engine_ratios():
    cfg = _small("mmse-mce-rttd-64")
    tr, _ = _traced(cfg)
    _, _, ratios = sim._run_batches(cfg, (), collect_ratios=True)
    below = sum(int(np.count_nonzero(r < cfg.gamma)) for r in ratios)
    assert tr.counts["decisions"] == cfg.trials * len(cfg.snr_db)
    assert tr.counts["med_decisions"] == below
    assert 0 < below < tr.counts["decisions"]


def test_unresolved_hook_is_reported_absent():
    hooks = tuple(h for h in HOOKS if h.name != "precode") + (
        Hook("precode", "farsm.simulate", "_no_such_precoder", True),
        Hook("generator", "farsm.no_such_module", "SeededRng.generator",
             False),
    )
    tr = Tracer()
    with tr.installed(hooks):
        _errors(_small("zf-tmd"))
    assert sorted(tr.absent) == ["generator", "precode"]
    metrics = layer_metrics(tr, 1)
    absent = sorted(k for k, m in metrics.items() if m.get("absent"))
    assert absent == ["channel.generators", "precoding.calls",
                      "precoding.precode_s", "precoding.screen_failed"]
    assert metrics["channel.draw_s"]["value"] > 0
    # hooks are removed again
    assert sim._draw_trials.__module__ == "farsm.simulate"


def test_benchmark_json_lists_the_tracer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {m.name: m.unit for m in METRICS}
    emitted["simulate.trace_overhead_frac"] = "fraction"
    assert declared == emitted
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
