"""Sliced detectors against the full searches on engine rows.

Run from the repository root:

    python3 scripts/check_detection.py
    python3 scripts/check_detection.py --trials 20000 --order 64 --n-r 4

For every configuration (M in 4, 16, 64; N_r in 2, 4, 8; ZF and MMSE; TMD
selection on the reference 4x4 grid) one sweep over SNR points from -30 dB
to +inf runs through the engine, and each point's receive rows, as the
engine's detect stage gets them (``simulate._detect_batch``), are decided
by ``detection.mld`` and ``detection.med`` and by the full searches that
score every hypothesis (the detectors' own fallbacks, run on every row).
The energy detector's antenna, the argmax of |y|^2, is the
same code either way; its symbol is checked against the full search on
that antenna. The report gives, per configuration, the rows, the rows
where either detector's (k, m) differs from its full search, and the share
of rows that took each detector's full-search fallback (rows the rounding
margin could not prove). The default run took 40 to 60 s on a 2-core
VM. The exit status is 1 when any decision differs.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from farsm import detection, simulate  # noqa: E402
from farsm.modulation import build_qam  # noqa: E402

SNR_DB = (-30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 30.0, 40.0, float("inf"))


def _differ(got, want) -> int:
    return int(np.count_nonzero((got[0] != want[0]) | (got[1] != want[1])))


def check(cfg: simulate.SimConfig) -> dict:
    """Decide every engine row of ``cfg`` both ways; return the counts."""
    points = build_qam(cfg.mod_order).points
    tally = dict(rows=0, mld_moved=0, med_moved=0, mld_fallback=0,
                 med_fallback=0)
    searches = {"mld_fallback": "_ml_search", "med_fallback": "_point_search"}
    originals = {key: getattr(detection, name)
                 for key, name in searches.items()}

    def counted(key):
        def search(y, *args):
            tally[key] += y.shape[0]
            return originals[key](y, *args)
        return search

    def spy(det, cfg_, y, beta, gain, points_):
        # the sweep counts errors of the sliced ML decisions
        with np.errstate(all="ignore"):
            tally["rows"] += y.shape[0]
            decided = detection.mld(y, beta, gain, points)
            full = originals["mld_fallback"](
                y, beta, *detection._projections(y, gain), points)
            tally["mld_moved"] += _differ(decided, full)
            k, m = detection.med(y, beta, gain, points)
            rows = np.arange(y.shape[0])
            scale = beta if gain is None else beta * gain[rows, k, k].real
            full = originals["med_fallback"](y[rows, k], scale, points)
            tally["med_moved"] += _differ((k, m), (k, full))
        return (*decided, None)

    detect = simulate._detect_batch
    simulate._detect_batch = spy
    for key, name in searches.items():
        setattr(detection, name, counted(key))
    try:
        simulate.run_ber_sweep(cfg)
    finally:
        simulate._detect_batch = detect
        for key, name in searches.items():
            setattr(detection, name, originals[key])
    return tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=32768,
                    help="trials per configuration (default 32768)")
    ap.add_argument("--seed", type=int, default=1, help="master seed")
    ap.add_argument("--order", type=int, action="append",
                    choices=(4, 16, 64), help="only this M (repeatable)")
    ap.add_argument("--n-r", type=int, action="append", choices=(2, 4, 8),
                    help="only this N_r (repeatable)")
    args = ap.parse_args(argv)
    if args.trials < 1:
        ap.error("--trials must be at least 1")
    moved = 0
    print(f"TMD on the 4x4 grid, {args.trials} trials per configuration, "
          f"master seed {args.seed}, SNR {list(SNR_DB)} dB")
    print(f"{'M':>3s} {'N_r':>3s} {'precoder':8s} {'rows':>8s} "
          f"{'mld_moved':>9s} {'med_moved':>9s} {'mld_fallback':>12s} "
          f"{'med_fallback':>12s}")
    for order, n_r, precoder in itertools.product(
            args.order or (4, 16, 64), args.n_r or (2, 4, 8), ("zf", "mmse")):
        cfg = simulate.SimConfig(
            n_r=n_r, n_a=n_r, mod_order=order, precoder=precoder,
            portsel="tmd", snr_db=SNR_DB, trials=args.trials,
            master_seed=args.seed).validate()
        t = check(cfg)
        moved += t["mld_moved"] + t["med_moved"]
        print(f"{order:3d} {n_r:3d} {precoder:8s} {t['rows']:8d} "
              f"{t['mld_moved']:9d} {t['med_moved']:9d} "
              f"{t['mld_fallback'] / t['rows']:12.3e} "
              f"{t['med_fallback'] / t['rows']:12.3e}")
    print(f"decisions that differ from the full search: {moved}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
