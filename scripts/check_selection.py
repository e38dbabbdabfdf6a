"""Port-selection identity between a parent revision and the working tree.

Run from the repository root:

    python3 scripts/check_selection.py --parent HEAD --blocks 10
    python3 scripts/check_selection.py --parent HEAD --blocks 1 --case nr8

The parent revision is exported with ``git archive`` into a temporary
directory, as scripts/bench_pair.py does. Each tree then runs, in its own
subprocess, the engine's draw and selection stages
(``simulate._draw_trials`` and ``simulate._select_indices``) on the same
trials: block i holds trials 0..20479 of master seed 100 + i, in batches of
2048. Every case below runs every port selector of the tree's
``simulate._PORTSELS``; exhaustive selection runs under both precoders (MMSE
selects at 10 dB), the others once, since only exhaustive selection reads
the precoder. The report gives, per case, precoder and selector, the
trials, the failed trials (change side), the trials whose selected ports
differ ("moved") and those whose failure flag differs ("flags"). The exit
status is 1 when any differ.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
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
# kernel are a single add.
CASES = {
    "w1": {},
    "w0.5": {"w1": 0.5, "w2": 0.5},
    "w2": {"w1": 2.0, "w2": 2.0},
    "na5": {"n_a": 5},
    "nr2": {"n_r": 2, "n_a": 2},
    "nr8": {"n_r": 8, "n_a": 8, "n1": 3, "n2": 4, "n_b": 10},
}


def select_all(cases: list[str], blocks: int, out_dir: str) -> None:
    """Write the selections of the ``farsm`` on sys.path, one .npz per case,
    precoder and selector, into ``out_dir``."""
    from farsm import simulate

    for case in cases:
        for portsel in simulate._PORTSELS:
            precoders = ("zf", "mmse") if portsel == "optimal" else ("zf",)
            for precoder in precoders:
                idx, failed = [], []
                for block in range(blocks):
                    cfg = simulate.SimConfig(
                        precoder=precoder, portsel=portsel,
                        master_seed=FIRST_SEED + block,
                        select_snr_db=MMSE_SELECT_SNR_DB,
                        **CASES[case]).validate()
                    root, pairs = simulate._port_model(cfg)
                    for lo in range(0, BLOCK, BATCH):
                        hw = simulate._draw_trials(
                            cfg, np.arange(lo, lo + BATCH))[0]
                        i, f = simulate._select_indices(cfg, hw @ root, pairs)
                        idx.append(i.astype(np.uint8))
                        failed.append(f)
                np.savez(Path(out_dir) / f"{case}_{precoder}_{portsel}.npz",
                         idx=np.concatenate(idx),
                         failed=np.concatenate(failed), case=case,
                         precoder=precoder, portsel=portsel,
                         source=simulate.__file__)


def run_tree(tree: Path, cases: list[str], blocks: int, out_dir: Path) -> None:
    out_dir.mkdir()
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import check_selection as c; c.select_all("
            "sys.argv[3].split(','), int(sys.argv[4]), sys.argv[5])")
    subprocess.run([sys.executable, "-c", code, str(tree / "src"),
                    str(Path(__file__).resolve().parent), ",".join(cases),
                    str(blocks), str(out_dir)], cwd=tree, check=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD",
                    help="git revision to compare against (default HEAD)")
    ap.add_argument("--blocks", type=int, default=10,
                    help=f"blocks of {BLOCK} trials per case (default 10)")
    ap.add_argument("--case", action="append", choices=sorted(CASES),
                    help="run only this case (repeatable; default all)")
    args = ap.parse_args(argv)
    if args.blocks < 1:
        ap.error("--blocks must be at least 1")
    cases = args.case or list(CASES)
    parent_rev = git("rev-parse", args.parent)

    with tempfile.TemporaryDirectory(prefix="check-selection-") as tmp:
        parent_tree = Path(tmp) / "tree"
        export_rev(parent_rev, parent_tree)
        out = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        run_tree(parent_tree, cases, args.blocks, out["parent"])
        run_tree(ROOT, cases, args.blocks, out["change"])
        moved_total = 0
        print(f"parent {parent_rev}, change: working tree on "
              f"{git('rev-parse', 'HEAD')}, "
              f"{args.blocks} x {BLOCK} trials per row, master seeds from "
              f"{FIRST_SEED}")
        print(f"{'case':6s} {'precoder':8s} {'portsel':8s} {'trials':>7s} "
              f"{'failed':>6s} {'moved':>6s} {'flags':>6s}")
        for path in sorted(out["change"].glob("*.npz")):
            chg = np.load(path)
            par = np.load(out["parent"] / path.name)
            for side, data, tree in (("parent", par, parent_tree),
                                     ("change", chg, ROOT)):
                # the worker must have imported the tree it was given
                if not str(data["source"]).startswith(str(tree / "src")):
                    raise RuntimeError(f"{side} imported {data['source']}")
            moved = int(np.any(chg["idx"] != par["idx"], axis=1).sum())
            flags = int((chg["failed"] != par["failed"]).sum())
            moved_total += moved + flags
            print(f"{str(chg['case']):6s} {str(chg['precoder']):8s} "
                  f"{str(chg['portsel']):8s} {len(chg['failed']):7d} "
                  f"{int(chg['failed'].sum()):6d} {moved:6d} {flags:6d}")
    print(f"moved selections and flags: {moved_total}")
    return 1 if moved_total else 0


if __name__ == "__main__":
    sys.exit(main())
