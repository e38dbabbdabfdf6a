"""Port-selection identity between a parent revision and the working tree.

Run from the repository root:

    python3 scripts/check_selection.py --parent HEAD
    python3 scripts/check_selection.py --parent HEAD --blocks 3 --case w1,nr2
    python3 scripts/check_selection.py --parent HEAD --portsel tmd,mce-tmd

The parent revision is exported with ``git archive`` into a temporary
directory, as scripts/bench_pair.py does. The working tree draws the channel
stacks once, through the engine's draw stage (``simulate._draw_trials``,
coloured by the root of ``simulate._port_model``): block i holds trials
0..20479 of master seed 100 + i. It saves each stack to an .npz file, and
each tree then runs, in its own subprocess, the engine's selection stage
(``simulate._select_indices``) on those same stacks in batches of 2048. So
the check compares selections only, even across a change of the random
streams. Every case below runs every port selector of the tree's
``simulate._PORTSELS``, or those that ``--portsel`` names; exhaustive
selection runs under both precoders (MMSE selects at 10 dB), the others
once, since only exhaustive selection reads the precoder. The report gives,
per case, precoder and selector, the trials, the failed trials (change
side), the trials whose selected ports differ ("moved") and those whose
failure flag differs ("flags"), and then the wall seconds of each tree's
selection subprocesses, in total. One block of all cases took 5.5 to 6.5
minutes per tree on a 2-core VM, 3.5 to 4 of them in the nr8 MMSE
exhaustive row; a change to TMD alone can skip that row with ``--portsel
tmd,mce-tmd``. The exit status is 1 when any differ.

The seconds are one wall-clock run per tree and say nothing about a
selector's speed: unchanged code has moved by up to 40% between two such
runs. A speed claim needs ``scripts/bench_pair.py``, which runs the two
trees in alternating pairs.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from bench_pair import export_rev, git

ROOT = Path(__file__).resolve().parents[1]
BLOCK = 20480
BATCH = 2048
FIRST_SEED = 100
MMSE_SELECT_SNR_DB = 10.0

# SimConfig fields of each case, on top of the 4x4 one-wavelength default;
# mce-tmd keeps N_a < N_b < N. At N_r = 2 the receive-row sums of the TMD
# kernel are a single add. On the 0.1-wavelength aperture the ports are
# strongly correlated, so the removal scores TMD carries across its steps
# lose the most digits.
CASES = {
    "w1": {},
    "w0.5": {"w1": 0.5, "w2": 0.5},
    "w2": {"w1": 2.0, "w2": 2.0},
    "w0.1": {"w1": 0.1, "w2": 0.1},
    "na5": {"n_a": 5},
    "nr2": {"n_r": 2, "n_a": 2},
    "nr8": {"n_r": 8, "n_a": 8, "n1": 3, "n2": 4, "n_b": 10},
}


def _case_config(case: str, block: int, **fields):
    from farsm import simulate

    return simulate.SimConfig(master_seed=FIRST_SEED + block,
                              select_snr_db=MMSE_SELECT_SNR_DB,
                              **CASES[case], **fields).validate()


def draw_stacks(cases: str, block: str, out_dir: str) -> None:
    """Write the coloured channel stack of block ``block`` of each case, as
    drawn by the ``farsm`` on sys.path, into ``out_dir``."""
    from farsm import simulate

    for case in cases.split(","):
        cfg = _case_config(case, int(block))
        root = simulate._port_model(cfg)[0]
        hw = simulate._draw_trials(cfg, np.arange(BLOCK))[0]
        np.savez(Path(out_dir) / f"{case}.npz", hb=hw @ root,
                 source=simulate.__file__)


def select_all(cases: str, portsels: str, block: str, stacks_dir: str,
               out_dir: str) -> None:
    """Write the selections of the ``farsm`` on sys.path by the selectors
    ``portsels`` on the stacks in ``stacks_dir``, one .npz per case,
    precoder and selector, into ``out_dir``."""
    from farsm import simulate

    for case in cases.split(","):
        hb = np.load(Path(stacks_dir) / f"{case}.npz")["hb"]
        for portsel in portsels.split(","):
            precoders = ("zf", "mmse") if portsel == "optimal" else ("zf",)
            for precoder in precoders:
                cfg = _case_config(case, int(block), precoder=precoder,
                                   portsel=portsel)
                pairs = simulate._port_model(cfg)[1]
                idx, failed = [], []
                for lo in range(0, BLOCK, BATCH):
                    i, f = simulate._select_indices(
                        cfg, hb[lo:lo + BATCH], pairs)
                    idx.append(i.astype(np.uint8))
                    failed.append(f)
                np.savez(Path(out_dir) / f"{case}_{precoder}_{portsel}.npz",
                         idx=np.concatenate(idx),
                         failed=np.concatenate(failed), case=case,
                         precoder=precoder, portsel=portsel,
                         source=simulate.__file__)


def run_tree(tree: Path, func: str, *args) -> None:
    """Call ``func(*args)`` of this module in a subprocess that imports the
    ``farsm`` of ``tree``."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
            "import check_selection as c; "
            "getattr(c, sys.argv[3])(*sys.argv[4:])")
    subprocess.run([sys.executable, "-c", code, str(tree / "src"),
                    str(Path(__file__).resolve().parent), func,
                    *map(str, args)], cwd=tree, check=True)


def _imported(data, side: str, tree: Path) -> None:
    # a worker must have imported the tree it was given
    if not str(data["source"]).startswith(str(tree / "src")):
        raise RuntimeError(f"{side} imported {data['source']}")


def main(argv=None) -> int:
    # the working tree's selectors; the workers import their own farsm
    sys.path.insert(0, str(ROOT / "src"))
    from farsm.simulate import _PORTSELS as PORTSELS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD",
                    help="git revision to compare against (default HEAD)")
    ap.add_argument("--blocks", type=int, default=1,
                    help=f"blocks of {BLOCK} trials per case (default 1)")
    ap.add_argument("--case", action="append",
                    help="run only these cases, a comma-separated list of "
                    f"{', '.join(CASES)} (repeatable; default all)")
    ap.add_argument("--portsel", default=",".join(PORTSELS),
                    help="run only these port selectors, a comma-separated "
                    f"list of {', '.join(PORTSELS)} (default all)")
    args = ap.parse_args(argv)
    if args.blocks < 1:
        ap.error("--blocks must be at least 1")
    cases = list(dict.fromkeys(
        c for arg in args.case or [",".join(CASES)] for c in arg.split(",")))
    unknown = [c for c in cases if c not in CASES]
    if unknown:
        ap.error(f"unknown case(s) {', '.join(unknown)}; choose from "
                 f"{', '.join(CASES)}")
    portsels = list(dict.fromkeys(args.portsel.split(",")))
    unknown = [p for p in portsels if p not in PORTSELS]
    if unknown:
        ap.error(f"unknown port selector(s) {', '.join(unknown)}; choose "
                 f"from {', '.join(PORTSELS)}")
    parent_rev = git("rev-parse", args.parent)

    totals: dict[str, list] = {}
    seconds = {"parent": 0.0, "change": 0.0}
    with tempfile.TemporaryDirectory(prefix="check-selection-") as tmp:
        parent_tree = Path(tmp) / "tree"
        export_rev(parent_rev, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for block in range(args.blocks):
            work = Path(tmp) / f"block{block}"
            dirs = {side: work / side for side in ("stacks", *trees)}
            for d in dirs.values():
                d.mkdir(parents=True)
            run_tree(ROOT, "draw_stacks", ",".join(cases), block,
                     dirs["stacks"])
            for case in cases:
                _imported(np.load(dirs["stacks"] / f"{case}.npz"), "stacks",
                          ROOT)
            for side, tree in trees.items():
                t0 = time.perf_counter()
                run_tree(tree, "select_all", ",".join(cases),
                         ",".join(portsels), block, dirs["stacks"],
                         dirs[side])
                seconds[side] += time.perf_counter() - t0
            for path in sorted(dirs["change"].glob("*.npz")):
                chg = np.load(path)
                par = np.load(dirs["parent"] / path.name)
                for side, data in (("parent", par), ("change", chg)):
                    _imported(data, side, trees[side])
                row = totals.setdefault(path.stem, [0, 0, 0, 0])
                row[0] += len(chg["failed"])
                row[1] += int(chg["failed"].sum())
                row[2] += int(np.any(chg["idx"] != par["idx"], axis=1).sum())
                row[3] += int((chg["failed"] != par["failed"]).sum())
            shutil.rmtree(work)
    print(f"parent {parent_rev}, change: working tree on "
          f"{git('rev-parse', 'HEAD')}, channels drawn by the working tree, "
          f"{args.blocks} x {BLOCK} trials per row, master seeds from "
          f"{FIRST_SEED}")
    print(f"{'case':6s} {'precoder':8s} {'portsel':8s} {'trials':>7s} "
          f"{'failed':>6s} {'moved':>6s} {'flags':>6s}")
    moved_total = 0
    for stem, (trials, failed, moved, flags) in sorted(totals.items()):
        case, precoder, portsel = stem.split("_")
        moved_total += moved + flags
        print(f"{case:6s} {precoder:8s} {portsel:8s} {trials:7d} "
              f"{failed:6d} {moved:6d} {flags:6d}")
    print(f"moved selections and flags: {moved_total}")
    print(f"seconds selecting, one run per tree: parent "
          f"{seconds['parent']:.1f}, change {seconds['change']:.1f}")
    return 1 if moved_total else 0


if __name__ == "__main__":
    sys.exit(main())
