"""Benchmark workloads and the reference check on their bit-error counts.

Each workload is a ``SimConfig`` of the reference 4x4 grid (1x1 wavelength,
N_r = N_a = 4) run through the public ``farsm.simulate.run_ber_sweep``. A
run splits its trials into fixed-size sweeps ("chunks"), each with its own
master seed derived from the benchmark seed, so every chunk is an
independent set of trials and the same seed always gives the same inputs.

The correctness check compares the bit errors a run counted at each SNR
point with a reference bit-error rate taken from a long run at
``REFERENCE_SEED``, a master seed no benchmark chunk can receive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Chunk seeds stay below 2**62; the reference seed sits above that range.
REFERENCE_SEED = (1 << 63) + 1
_CHUNK_SEED_SPAN = 1 << 62

# Band on a point's bit-error count, in standard deviations, plus a slack of
# whole erroneous trials so points with a handful of expected errors do not
# trip on Poisson tails.
BAND_Z = 6.0
BAND_SLACK_TRIALS = 3

SNR_0_15 = tuple(2.5 * i for i in range(7))   # 0:2.5:15
SNR_0_30 = tuple(2.5 * i for i in range(13))  # 0:2.5:30


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict            # SimConfig fields besides trials and master_seed
    chunk_trials: int       # trials per timed sweep
    reference_trials: int   # trials of the long reference run

    def sim_config(self, trials: int, master_seed: int):
        from farsm.simulate import SimConfig
        return SimConfig(trials=trials, master_seed=master_seed, **self.config)

    @property
    def bits_per_trial(self) -> int:
        return self.sim_config(1, 0).bits_per_use


# Why each workload was chosen: see README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        "zf-optimal",
        dict(precoder="zf", portsel="optimal", detector="mld", mod_order=4,
             snr_db=SNR_0_15),
        chunk_trials=256, reference_trials=65536),
    Workload(
        "zf-tmd",
        dict(precoder="zf", portsel="tmd", detector="mld", mod_order=4,
             snr_db=SNR_0_15),
        chunk_trials=4096, reference_trials=1 << 20),
    Workload(
        "mmse-mce-rttd-64",
        dict(precoder="mmse", portsel="mce-tmd", detector="rttd",
             mod_order=64, n_b=12, gamma=0.6, snr_db=SNR_0_30),
        chunk_trials=4096, reference_trials=1 << 18),
)}


def chunk_seed(seed: int, chunk: int) -> int:
    """Master seed of chunk ``chunk`` of a run started with ``seed``."""
    return (seed * 1_000_003 + chunk) % _CHUNK_SEED_SPAN


def load_reference(name: str) -> dict:
    """Reference entry of a workload; fails if it was made for another config."""
    entry = json.loads(REFERENCE_FILE.read_text())[name]
    want = json.loads(json.dumps(WORKLOADS[name].config))
    if entry["config"] != want:
        raise ValueError(f"reference for {name} was made for {entry['config']}, "
                         f"workload is {want}")
    return entry


def band_check(name: str, trials: int, bit_errors: list[int]) -> list[bool]:
    """Per SNR point: is the bit-error count inside the reference band?

    Trials are independent and each carries k = bits_per_trial bits, so the
    variance of a point's error count is at most k times its mean, whatever
    the correlation of bits within a trial (the per-trial design effect is at
    most k). The band uses that bound for both the run and the reference, so
    it holds for any random stream layout, not only the current one.
    """
    ref = load_reference(name)
    if len(bit_errors) != len(ref["bit_errors"]):
        return [False] * max(len(bit_errors), 1)
    k = WORKLOADS[name].bits_per_trial
    n_bits = trials * k
    n_ref_bits = ref["trials"] * k
    ok = []
    for be, ref_be in zip(bit_errors, ref["bit_errors"]):
        expected = ref_be / n_ref_bits * n_bits
        p = max(ref_be, 1) / n_ref_bits
        sd = math.sqrt(k * p * n_bits * (1.0 + n_bits / n_ref_bits))
        ok.append(abs(be - expected) <= BAND_Z * sd + BAND_SLACK_TRIALS * k)
    return ok
