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
  rows, and the redraws split by cause (``selection_redraws``,
  ``screen_redraws``);
* ``run_ratio_sweep`` on the MMSE cases (the engine defines the ratio
  histogram for MMSE only): every bin count, each point's median, and the
  redraws split by cause;
* ``run_trial`` on the first 16 trials at every SNR point:
  the transmitted and decided bits and the redraws;
* ``farsm capacity-loss`` and ``farsm mse``, through ``farsm.cli.main``
  alone, on 200 draws of the one-wavelength default, of a 0.05-wavelength
  aperture, where draws are redrawn, and of a 0.25-wavelength one: the CSV
  text each prints, and the redraws its manifest records.

The cases cover ZF and MMSE; exhaustive, TMD, MCE-TMD and ``first``
selection, the last at a 0.05-wavelength aperture where trials are
redrawn and at 0.5 wavelengths, where the MMSE factor takes both its eigh
and its SVD route; exhaustive ZF at 0.05 wavelengths, where the selection
screen rejects candidates; TMD under ZF at 0.05 wavelengths, where the
TMD Grams lie near the screen; the fixed-antenna baseline; N_r = 8 under
MMSE; ZF with TMD at N_r = 2 and N_r = 8, where the ZF screen inverts 2 x 2
and 8 x 8 Grams; and the noiseless +inf dB point.

Each tree also records its ``simulate.STREAM_VERSION``. When the two agree,
the report lists, per case, what differs. The exit status is 1 when any
count, redraw (of either cause), histogram bin, ``run_trial`` bit or theory
CSV character differs; ``--trials`` does not apply to the theory cases.
Medians are reported with their largest relative difference but do not set
the exit status: a change that moves receive vectors in their last digits
moves them by as much, and at +inf dB, where the ratio is rounding noise of
order 1e-30, by far more.

When the stream versions differ, the two trees draw different channels, so
nothing is equal by design. Each bit-error count (per case, detector and
SNR point) is then checked against the two-run band of
``test_golden_counts_agree_across_stream_versions`` (tests/
test_golden_counts.py), since both trees estimate the same error rate. The
report names that mode, lists the fields that are not comparable across
versions, and gives per case the counts checked, those outside the band and
the largest difference as a fraction of its band. The exit status is 1 when
any count lies outside its band.

The default run took about 15 s on a 2-core VM.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from bench_pair import export_rev, git

ROOT = Path(__file__).resolve().parents[1]
SNR_DB = (0.0, 10.0, 20.0, 30.0)

# SimConfig fields of each case, on top of the 4x4 one-wavelength default
CASES = {
    "zf-tmd": dict(portsel="tmd"),
    # strongly correlated ports: the TMD set-up runs on Grams near the
    # screen, and the ZF sent columns lie furthest from beta e_k
    "zf-tmd-w0.05": dict(w1=0.05, w2=0.05, portsel="tmd", mod_order=16),
    "mmse-tmd": dict(precoder="mmse", portsel="tmd", mod_order=16),
    "zf-optimal": dict(portsel="optimal", mod_order=16),
    # on the 0.05-wavelength aperture some of the exhaustive ZF candidates
    # fail the selection screen tr(W) tr(W^-1) > 1e12
    "zf-optimal-w0.05": dict(w1=0.05, w2=0.05, portsel="optimal",
                             mod_order=16),
    "mmse-optimal": dict(precoder="mmse", portsel="optimal",
                         select_snr_db=10.0, mod_order=16),
    "zf-mce-tmd": dict(portsel="mce-tmd", mod_order=64),
    "mmse-mce-tmd": dict(precoder="mmse", portsel="mce-tmd", mod_order=64),
    "zf-first-redraws": dict(w1=0.05, w2=0.05, portsel="first",
                             snr_db=(0.0, 30.0, 90.0, 120.0)),
    "mmse-first-redraws": dict(w1=0.05, w2=0.05, precoder="mmse",
                               portsel="first", mod_order=16,
                               snr_db=(0.0, 30.0, 90.0, 120.0)),
    # about half the Grams lie above precoding.EIGH_MAX_RATIO: both factor
    # routes
    "mmse-first-w0.5": dict(w1=0.5, w2=0.5, precoder="mmse", portsel="first",
                            mod_order=16, snr_db=(0.0, 30.0, 90.0, 120.0)),
    "zf-baseline": dict(baseline=True, mod_order=16),
    "mmse-baseline": dict(baseline=True, precoder="mmse", mod_order=64),
    "mmse-nr8": dict(n_r=8, n_a=8, precoder="mmse", portsel="tmd",
                     mod_order=16),
    # the ZF screen on 2 x 2 and 8 x 8 Grams, in the TMD set-up and the
    # precoder
    "zf-tmd-nr2": dict(n_r=2, n_a=2, portsel="tmd"),
    "zf-tmd-nr8": dict(n_r=8, n_a=8, portsel="tmd", mod_order=16),
    "mmse-noiseless": dict(precoder="mmse", portsel="tmd", mod_order=64,
                           snr_db=(20.0, float("inf"))),
}
# capacity-loss and mse flags of each theory case, on top of the 4x4
# one-wavelength default
THEORY_CASES = {
    "theory-w1": (),
    # some first-4-port ZF Grams fail the screen: their draws are redrawn
    "theory-w0.05": ("--w1", "0.05", "--w2", "0.05"),
    "theory-w0.25": ("--w1", "0.25", "--w2", "0.25"),
}
THEORY_DRAWS = 200
DETECTORS = ("mld", "med", "rttd")
RUN_TRIALS = 16
REDRAW_KEYS = ("redraws", "selection_redraws", "screen_redraws")
# fingerprint keys compared exactly
EXACT = (*REDRAW_KEYS, "med_rows", *DETECTORS, "ratio_selection_redraws",
         "ratio_screen_redraws", "theory_csv")
# what two stream versions do not estimate alike, so leave unchecked
NOT_COMPARABLE = ("symbol errors", "RTTD energy-detector rows",
                  "redraws of either cause", "histogram bins and medians",
                  "run_trial bits", "theory CSV text and redraws")


def _bits(a) -> str:
    return "".join(map(str, a.tolist()))


def fingerprint(trials: str, seed: str, out: str) -> None:
    """Write the results of the ``farsm`` on sys.path for every case as JSON
    into ``out``."""
    from farsm import simulate

    result = {"source": simulate.__file__,
              "stream_version": simulate.STREAM_VERSION, "cases": {}}
    for case in CASES:
        fields = dict(snr_db=SNR_DB, trials=int(trials),
                      master_seed=int(seed))
        fields.update(CASES[case])
        cfg = simulate.SimConfig(**fields).validate()
        multi = simulate.run_ber_sweep_multi(cfg, DETECTORS)
        got = {"bits_per_use": cfg.bits_per_use,
               "redraws": multi["mld"].redraws,
               "selection_redraws": multi["mld"].selection_redraws,
               "screen_redraws": multi["mld"].screen_redraws,
               "med_rows": list(multi["rttd"].med_rows)}
        for det, sweep in multi.items():
            got[det] = [[p.bit_errors, p.symbol_errors] for p in sweep.points]
        if cfg.precoder == "mmse":
            ratio = simulate.run_ratio_sweep(cfg)
            got["histograms"] = [
                {"counts": h.counts.tolist(), "median": h.median}
                for h in ratio.histograms]
            got["ratio_selection_redraws"] = ratio.selection_redraws
            got["ratio_screen_redraws"] = ratio.screen_redraws
        got["run_trial"] = [
            [snr, t, _bits(r.tx_bits), _bits(r.rx_bits), r.redraws]
            for snr in cfg.snr_db for t in range(RUN_TRIALS)
            for r in (simulate.run_trial(cfg, snr, t),)]
        result["cases"][case] = got
    for case, flags in THEORY_CASES.items():
        result["cases"][case] = _theory(flags, seed)
    Path(out).write_text(json.dumps(result))


def _theory(flags: tuple, seed: str) -> dict:
    """The CSV text (or exit status and error) of ``farsm capacity-loss``
    and ``farsm mse`` with ``flags``, run through ``cli.main``, and the
    redraws their manifests record."""
    from farsm import cli

    got = {"theory_csv": {}}
    for command in ("capacity-loss", "mse"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([command, *flags, "--seed", seed,
                             "--draws", str(THEORY_DRAWS)])
        if code:
            got["theory_csv"][command] = f"exit {code}: {err.getvalue()}"
            continue
        got["theory_csv"][command] = out.getvalue()
        manifest = json.loads(err.getvalue())
        got.update({key: manifest[key] for key in REDRAW_KEYS})
    return got


def run_tree(tree: Path, *args) -> dict:
    """``fingerprint(*args, out)`` in a subprocess that imports the ``farsm``
    of ``tree``; returns the fingerprint: the tree's ``stream_version`` and
    its ``cases``."""
    with tempfile.NamedTemporaryFile(suffix=".json") as fh:
        code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
                "import check_counts as c; c.fingerprint(*sys.argv[3:])")
        subprocess.run([sys.executable, "-c", code, str(tree / "src"),
                        str(Path(__file__).resolve().parent),
                        *map(str, args), fh.name], cwd=tree, check=True)
        data = json.loads(Path(fh.name).read_text())
    if not data["source"].startswith(str(tree / "src")):
        raise RuntimeError(f"{tree} imported {data['source']}")
    return data


def compare(par: dict, chg: dict) -> tuple[list[str], float]:
    """What differs between two fingerprints of one case, and the largest
    relative difference of a histogram median."""
    diffs = [key for key in EXACT if par.get(key) != chg.get(key)]
    median_rel = 0.0
    for p, c in zip(par.get("histograms", []), chg.get("histograms", [])):
        if p["counts"] != c["counts"]:
            diffs.append("histogram bins")
        if p["median"] != c["median"]:
            median_rel = max(median_rel, abs(c["median"] - p["median"])
                             / abs(p["median"]))
    if len(par.get("histograms", [])) != len(chg.get("histograms", [])):
        diffs.append("histograms")
    par_trials, chg_trials = par.get("run_trial", []), chg.get("run_trial", [])
    moved = sum(p != c for p, c in zip(par_trials, chg_trials))
    if moved or len(par_trials) != len(chg_trials):
        diffs.append(f"run_trial ({moved} trials)")
    return sorted(set(diffs)), median_rel


def band_compare(par: dict, chg: dict) -> tuple[int, list[str], float]:
    """The bit-error counts of one BER case under two stream versions
    against the two-run band: the counts checked, those outside the band
    (as detector@point index), and the largest difference over its band."""
    from test_golden_counts import two_run_band

    checked, outside, worst = 0, [], 0.0
    for det in DETECTORS:
        for p, (old, new) in enumerate(zip(par[det], chg[det])):
            band = two_run_band(chg["bits_per_use"], old[0])
            checked += 1
            worst = max(worst, abs(new[0] - old[0]) / band)
            if abs(new[0] - old[0]) > band:
                outside.append(f"{det}@{p}")
    return checked, outside, worst


def report_across_versions(par: dict, chg: dict, versions: tuple) -> int:
    """Print the band check of two stream versions; the number of counts
    outside their band."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    print(f"mode: stream versions differ ({versions[0]} parent, "
          f"{versions[1]} change): bit-error counts checked against the "
          f"two-run band of test_golden_counts_agree_across_stream_versions, "
          f"not for equality")
    print(f"not comparable across versions, not checked: "
          f"{', '.join(NOT_COMPARABLE)}")
    print(f"{'case':20s} {'counts':>6s} {'outside':>7s} {'worst':>6s}  "
          f"outside the band")
    total = 0
    for case in CASES:
        checked, outside, worst = band_compare(par[case], chg[case])
        total += len(outside)
        print(f"{case:20s} {checked:6d} {len(outside):7d} {worst:6.2f}  "
              f"{', '.join(outside) or '-'}")
    for case in THEORY_CASES:
        print(f"{case:20s} {'-':>6s} {'-':>7s} {'-':>6s}  not comparable")
    print(f"counts outside the band: {total}")
    return total


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
        par_data = run_tree(parent_tree, args.trials, args.seed)
    chg_data = run_tree(ROOT, args.trials, args.seed)
    versions = par_data["stream_version"], chg_data["stream_version"]
    par, chg = par_data["cases"], chg_data["cases"]
    print(f"parent {parent_rev}, change: working tree on "
          f"{git('rev-parse', 'HEAD')}, {args.trials} trials per case, "
          f"master seed {args.seed}, run_trial on {RUN_TRIALS} "
          f"trials per point")
    if versions[0] != versions[1]:
        return 1 if report_across_versions(par, chg, versions) else 0
    print(f"mode: stream version {versions[0]} in both trees, compared "
          f"exactly")
    print(f"{'case':20s} {'redraws':>7s} {'sel/scr':>9s} {'median_rel':>10s}"
          f"  differs")
    differing = 0
    for case in (*CASES, *THEORY_CASES):
        got = chg[case]
        diffs, median_rel = compare(par[case], got)
        differing += bool(diffs)
        redraws, sel, scr = (got.get(key, "-") for key in REDRAW_KEYS)
        print(f"{case:20s} {redraws:>7} {f'{sel}/{scr}':>9s} "
              f"{median_rel:10.2e}  {', '.join(diffs) or '-'}")
    print(f"cases that differ: {differing}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
