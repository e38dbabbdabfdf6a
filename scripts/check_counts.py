"""Seeded results of a parent revision against the working tree.

Run from the repository root:

    python3 scripts/check_counts.py --parent HEAD
    python3 scripts/check_counts.py --parent HEAD --trials 8192 --seed 5

The parent revision is exported with ``git archive`` into a temporary
directory, as scripts/bench_pair.py does. Each tree then runs every case
below in its own subprocess, through public entry points only, so any two
revisions can be compared:

* one ``run_ber_sweep_multi`` pass scored by MLD, MED and RTTD: per
  detector and SNR point the bit and symbol errors, RTTD's energy-detector
  rows, and the redraws;
* ``ratio_histograms`` on the MMSE cases (the engine defines the ratio
  histogram for MMSE only): every bin count, and each point's median;
* ``run_trial`` on the first 16 trials at every SNR point:
  the transmitted and decided bits and the redraws.

The cases cover ZF and MMSE; exhaustive, TMD, MCE-TMD and ``first``
selection, the last at a 0.05-wavelength aperture where trials are
redrawn; the fixed-antenna baseline; N_r = 8; and the noiseless +inf dB
point. The report lists, per case, what differs. The exit status is 1 when
any count, redraw, histogram bin or ``run_trial`` bit differs. Medians are
reported with their largest relative difference but do not set the exit
status: a change that moves receive vectors in their last digits moves
them by as much, and at +inf dB, where the ratio is rounding noise of
order 1e-30, by far more. The default run took about 15 s on a 2-core VM.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pair import export_rev, git

ROOT = Path(__file__).resolve().parents[1]
SNR_DB = (0.0, 10.0, 20.0, 30.0)

# SimConfig fields of each case, on top of the 4x4 one-wavelength default
CASES = {
    "zf-tmd": dict(portsel="tmd"),
    "mmse-tmd": dict(precoder="mmse", portsel="tmd", mod_order=16),
    "zf-optimal": dict(portsel="optimal", mod_order=16),
    "mmse-optimal": dict(precoder="mmse", portsel="optimal",
                         select_snr_db=10.0, mod_order=16),
    "zf-mce-tmd": dict(portsel="mce-tmd", mod_order=64),
    "mmse-mce-tmd": dict(precoder="mmse", portsel="mce-tmd", mod_order=64),
    "zf-first-redraws": dict(w1=0.05, w2=0.05, portsel="first",
                             snr_db=(0.0, 30.0, 90.0, 120.0)),
    "mmse-first-redraws": dict(w1=0.05, w2=0.05, precoder="mmse",
                               portsel="first", mod_order=16,
                               snr_db=(0.0, 30.0, 90.0, 120.0)),
    "zf-baseline": dict(baseline=True, mod_order=16),
    "mmse-baseline": dict(baseline=True, precoder="mmse", mod_order=64),
    "mmse-nr8": dict(n_r=8, n_a=8, precoder="mmse", portsel="tmd",
                     mod_order=16),
    "mmse-noiseless": dict(precoder="mmse", portsel="tmd", mod_order=64,
                           snr_db=(20.0, float("inf"))),
}
DETECTORS = ("mld", "med", "rttd")
RUN_TRIALS = 16


def _bits(a) -> str:
    return "".join(map(str, a.tolist()))


def fingerprint(trials: str, seed: str, out: str) -> None:
    """Write the results of the ``farsm`` on sys.path for every case as JSON
    into ``out``."""
    from farsm import simulate

    result = {"source": simulate.__file__, "cases": {}}
    for case in CASES:
        fields = dict(snr_db=SNR_DB, trials=int(trials),
                      master_seed=int(seed))
        fields.update(CASES[case])
        cfg = simulate.SimConfig(**fields).validate()
        multi = simulate.run_ber_sweep_multi(cfg, DETECTORS)
        got = {"redraws": multi["mld"].redraws,
               "med_rows": list(multi["rttd"].med_rows)}
        for det, sweep in multi.items():
            got[det] = [[p.bit_errors, p.symbol_errors] for p in sweep.points]
        if cfg.precoder == "mmse":
            got["histograms"] = [
                {"counts": h.counts.tolist(), "median": h.median}
                for h in simulate.ratio_histograms(cfg)]
        got["run_trial"] = [
            [snr, t, _bits(r.tx_bits), _bits(r.rx_bits), r.redraws]
            for snr in cfg.snr_db for t in range(RUN_TRIALS)
            for r in (simulate.run_trial(cfg, snr, t),)]
        result["cases"][case] = got
    Path(out).write_text(json.dumps(result))


def run_tree(tree: Path, *args) -> dict:
    """``fingerprint(*args, out)`` in a subprocess that imports the ``farsm``
    of ``tree``; returns the fingerprint."""
    with tempfile.NamedTemporaryFile(suffix=".json") as fh:
        code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
                "import check_counts as c; c.fingerprint(*sys.argv[3:])")
        subprocess.run([sys.executable, "-c", code, str(tree / "src"),
                        str(Path(__file__).resolve().parent),
                        *map(str, args), fh.name], cwd=tree, check=True)
        data = json.loads(Path(fh.name).read_text())
    if not data["source"].startswith(str(tree / "src")):
        raise RuntimeError(f"{tree} imported {data['source']}")
    return data["cases"]


def compare(par: dict, chg: dict) -> tuple[list[str], float]:
    """What differs between two fingerprints of one case, and the largest
    relative difference of a histogram median."""
    diffs = [key for key in ("redraws", "med_rows", *DETECTORS)
             if par[key] != chg[key]]
    median_rel = 0.0
    for p, c in zip(par.get("histograms", []), chg.get("histograms", [])):
        if p["counts"] != c["counts"]:
            diffs.append("histogram bins")
        if p["median"] != c["median"]:
            median_rel = max(median_rel, abs(c["median"] - p["median"])
                             / abs(p["median"]))
    if len(par.get("histograms", [])) != len(chg.get("histograms", [])):
        diffs.append("histograms")
    moved = sum(p != c for p, c in zip(par["run_trial"], chg["run_trial"]))
    if moved or len(par["run_trial"]) != len(chg["run_trial"]):
        diffs.append(f"run_trial ({moved} trials)")
    return sorted(set(diffs)), median_rel


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD",
                    help="git revision to compare against (default HEAD)")
    ap.add_argument("--trials", type=int, default=4096,
                    help="trials per case (default 4096)")
    ap.add_argument("--seed", type=int, default=21,
                    help="master seed of every case (default 21)")
    args = ap.parse_args(argv)
    if args.trials < 1:
        ap.error("--trials must be at least 1")
    parent_rev = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(prefix="check-counts-") as tmp:
        parent_tree = Path(tmp) / "tree"
        export_rev(parent_rev, parent_tree)
        par = run_tree(parent_tree, args.trials, args.seed)
    chg = run_tree(ROOT, args.trials, args.seed)
    print(f"parent {parent_rev}, change: working tree on "
          f"{git('rev-parse', 'HEAD')}, {args.trials} trials per case, "
          f"master seed {args.seed}, run_trial on {RUN_TRIALS} "
          f"trials per point")
    print(f"{'case':20s} {'redraws':>7s} {'median_rel':>10s}  differs")
    differing = 0
    for case in CASES:
        diffs, median_rel = compare(par[case], chg[case])
        differing += bool(diffs)
        print(f"{case:20s} {chg[case]['redraws']:7d} {median_rel:10.2e}  "
              f"{', '.join(diffs) or '-'}")
    print(f"cases that differ: {differing}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
