"""Paired A/B benchmark of a parent revision against the working tree.

Run from the repository root:

    python3 scripts/bench_pair.py --parent HEAD --seconds 10 --out BENCH_7.json

The parent revision is exported with ``git archive`` into a temporary
directory, so the run leaves no checkout or worktree entry behind. Each pair
runs ``perfbench/run.py --trace 0`` once on the parent and once on the working
tree, for every workload of BENCHMARK.json, with seed i on pair i (1, 2,
...); at least ten pairs are run, the fewest a paired comparison accepts. The
side that goes first alternates from pair to pair so that a drift in host speed
falls on both sides alike. The output JSON holds, per workload and
end-to-end metric, both sides' values, medians and interquartile ranges and
the number of pairs the working tree won, plus both revisions and the
``env`` line of each side's last run. Each workload also gets a
``minor_faults`` row in the same form: the minor page faults of each run's
child process and of the processes it waited for (the ``RUSAGE_CHILDREN``
``ru_minflt`` delta around the child), so a change in how the allocator
maps memory shows in a paired session.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_rev(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run: its result line plus ``env``
    and the run's ``minor_faults``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    result["minor_faults"] = faults
    result["env"] = next(json.loads(line[4:]) for line in lines
                         if line.startswith("env "))
    return result


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": q2, "iqr": q3 - q1}


def compare(par: list[float], chg: list[float], sense: str) -> dict:
    """Both sides' summaries, their ratio of medians and the pairs the
    working tree won (``sense`` is "higher" or "lower")."""
    wins = sum((c > p) if sense == "higher" else (c < p)
               for p, c in zip(par, chg))
    par_s, chg_s = summary(par), summary(chg)
    return {
        "better": sense,
        "parent": par_s,
        "change": chg_s,
        "change_over_parent": chg_s["median"] / par_s["median"],
        "change_wins": wins,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD",
                    help="git revision to compare against (default HEAD)")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS,
                    help=f"number of pairs (at least {MIN_PAIRS})")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--out", required=True, help="output JSON path")
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(1, args.pairs + 1)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parent_rev = git("rev-parse", args.parent)
    runs: dict[str, dict[str, list[dict]]] = {
        w: {"parent": [], "change": []} for w in workloads}

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        export_rev(parent_rev, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i, seed in enumerate(seeds):
            order = ("parent", "change")
            if i % 2:
                order = order[::-1]
            for w in workloads:
                for side in order:
                    res = run_once(trees[side], w, seed, args.seconds)
                    runs[w][side].append(res)
                    rate = res["metrics"]["trials_per_s"]["value"]
                    print(f"pair {i} {w:18s} {side:6s} trials_per_s "
                          f"{rate:9.1f} correct {res['correct']}",
                          file=sys.stderr)

    report: dict = {
        "parent": {"rev": parent_rev,
                   "env": runs[workloads[0]]["parent"][-1]["env"]},
        "change": {"rev": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain",
                                     "--untracked-files=no")),
                   "env": runs[workloads[0]]["change"][-1]["env"]},
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": list(seeds),
        "correct": all(r["correct"] for w in runs.values()
                       for side in w.values() for r in side),
        "workloads": {},
    }
    for w in workloads:
        table = {}
        for name, sense in better.items():
            par, chg = ([r["metrics"][name]["value"] for r in runs[w][side]]
                        for side in ("parent", "change"))
            table[name] = compare(par, chg, sense)
        par, chg = ([r["minor_faults"] for r in runs[w][side]]
                    for side in ("parent", "change"))
        table["minor_faults"] = compare(par, chg, "lower")
        report["workloads"][w] = table
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for w, table in report["workloads"].items():
        for name, m in table.items():
            print(f"{w:18s} {name:13s} parent {m['parent']['median']:10.4g} "
                  f"(iqr {m['parent']['iqr']:.3g})  change "
                  f"{m['change']['median']:10.4g} (iqr "
                  f"{m['change']['iqr']:.3g})  x{m['change_over_parent']:.3f}"
                  f"  wins {m['change_wins']}/{args.pairs}")
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
