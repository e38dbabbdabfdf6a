"""Regenerate perfbench/reference.json: long runs at REFERENCE_SEED.

Run from the repository root:

    FARSM_THREADS=2 python3 perfbench/make_reference.py

Every workload is rebuilt; results are bit-identical for any FARSM_THREADS.
Regenerate only when a workload's configuration changes; the band in
``workloads.band_check`` is wide enough to survive a change of the random
stream layout.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import REFERENCE_FILE, REFERENCE_SEED, WORKLOADS  # noqa: E402

from farsm.simulate import run_ber_sweep  # noqa: E402


def main() -> None:
    data = {}
    for name, w in WORKLOADS.items():
        t0 = time.perf_counter()
        res = run_ber_sweep(w.sim_config(w.reference_trials, REFERENCE_SEED))
        data[name] = {
            "config": w.config,
            "master_seed": REFERENCE_SEED,
            "trials": w.reference_trials,
            "bit_errors": [p.bit_errors for p in res.points],
            "ber": [p.ber for p in res.points],
            "redraws": res.redraws,
        }
        print(f"{name}: {w.reference_trials} trials in "
              f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    REFERENCE_FILE.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
