"""farsm sweep benchmark: trials/s, set-up time and peak memory per workload.

Run from the repository root:

    python3 perfbench/run.py --workload zf-tmd --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload zf-tmd --seed 1 --seconds 30 --trace 1

``--trace 0`` times repeated sweeps through ``farsm.simulate.run_ber_sweep``,
with the host-speed probe (probe.py) between them, and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and
traced sweeps of the same chunks and reports the per-layer split (see
tracer.py). Both check every SNR point's bit-error count against the
reference band (workloads.py). The last stdout line is one JSON object with
``correct``, ``attempted`` (SNR points checked), ``failed`` (points outside
the band) and ``metrics``; the lines before it are a readable report and the
run environment. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread and keep the engine on one worker thread, for this
# process and every child, before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_PARENT_FARSM_THREADS = os.environ.pop("FARSM_THREADS", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import PROBE_REF_S, Probe  # noqa: E402
from workloads import WORKLOADS, band_check, chunk_seed  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SETUP_REPEATS = 15  # measured set-ups per run, after one unmeasured warm-up
MIN_TIMED_SWEEPS = 3

# A fresh interpreter: import farsm.simulate, then a one-trial sweep.
_SETUP_CHILD = """
import time
t0 = time.perf_counter()
import json, sys
sys.path.insert(0, sys.argv[1])
import farsm.simulate as sim
kw = json.loads(sys.argv[2])
kw["snr_db"] = tuple(kw["snr_db"])
sim.run_ber_sweep(sim.SimConfig(**kw))
print(repr(time.perf_counter() - t0))
"""


def setup_seconds(workload, seed: int, probe) -> tuple[list[float], list[float]]:
    """Set-up seconds of each measured child, and the probe before the first
    measured child and after each one."""
    kw = dict(workload.config, trials=1, master_seed=chunk_seed(seed, 0))
    times, probes = [], []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(kw)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
        probes.append(probe.seconds())
    return times[1:], probes


def at_reference_speed(seconds: list[float], probes: list[float]) -> list[float]:
    """Each span scaled to the reference host speed by the probes taken just
    before and just after it (``probes`` has one more entry than ``seconds``)."""
    return [s * 2 * PROBE_REF_S / (p0 + p1)
            for s, p0, p1 in zip(seconds, probes, probes[1:])]


class Errors:
    """Bit errors per SNR point summed over every sweep of a run."""

    def __init__(self, n_points: int):
        self.trials = 0
        self.bit_errors = [0] * n_points

    def add(self, trials: int, bit_errors: list[int]) -> None:
        self.trials += trials
        self.bit_errors = [a + b for a, b in zip(self.bit_errors, bit_errors)]


def sweep(workload, seed: int, chunk: int) -> list[int]:
    import farsm.simulate as sim
    cfg = workload.sim_config(workload.chunk_trials, chunk_seed(seed, chunk))
    return [p.bit_errors for p in sim.run_ber_sweep(cfg).points]


def measure_untraced(workload, seed: int, seconds: float, errors: Errors,
                     probe):
    """Seconds of each timed sweep, after one untimed warm-up sweep, and of
    the probe before the first timed sweep and after each one."""
    n = workload.chunk_trials
    errors.add(n, sweep(workload, seed, 0))
    spans = []
    probes = [probe.seconds()]
    end = time.perf_counter() + seconds
    chunk = 1
    while time.perf_counter() < end or len(spans) < MIN_TIMED_SWEEPS:
        t0 = time.perf_counter()
        be = sweep(workload, seed, chunk)
        spans.append(time.perf_counter() - t0)
        probes.append(probe.seconds())
        errors.add(n, be)
        chunk += 1
    return spans, probes


def measure_traced(workload, seed: int, seconds: float, errors: Errors,
                   tracer):
    """Untraced and traced sweeps of the same chunks, alternating order.

    Returns (untraced seconds, traced seconds, traced sweeps, chunks whose
    traced bit errors differ from the untraced ones).
    """
    n = workload.chunk_trials
    errors.add(n, sweep(workload, seed, 0))
    plain_s = traced_s = 0.0
    sweeps = mismatched = 0
    end = time.perf_counter() + seconds
    chunk = 1
    while time.perf_counter() < end or sweeps < MIN_TIMED_SWEEPS:
        result = {}
        for traced in ((True, False) if chunk % 2 else (False, True)):
            if traced:
                with tracer.installed():
                    t0 = time.perf_counter()
                    result[traced] = sweep(workload, seed, chunk)
                    traced_s += time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                result[traced] = sweep(workload, seed, chunk)
                plain_s += time.perf_counter() - t0
        mismatched += result[True] != result[False]
        errors.add(n, result[False])
        sweeps += 1
        chunk += 1
    return plain_s, traced_s, sweeps, mismatched


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "farsm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "FARSM_THREADS_parent": _PARENT_FARSM_THREADS,
        "FARSM_THREADS_run": os.environ.get("FARSM_THREADS"),
        "machine": platform.machine(),
    }


def _quartiles(xs: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"median {q2:.6g} [q1 {q1:.6g}, q3 {q3:.6g}], n={len(xs)}"


def report_points(workload, errors: Errors, ok: list[bool]) -> None:
    snrs = workload.config["snr_db"]
    for snr, be, good in zip(snrs, errors.bit_errors, ok):
        print(f"  snr {snr:5.1f} dB  bit errors {be:8d}  "
              f"{'ok' if good else 'OUTSIDE REFERENCE BAND'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "farsm" / "simulate.py").is_file():
        print(f"farsm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    n_points = len(w.config["snr_db"])
    errors = Errors(n_points)
    print(f"workload {w.name}: {w.sim_config(w.chunk_trials, 0).variant}, "
          f"{w.chunk_trials} trials per sweep, {n_points} SNR points, "
          f"seed {args.seed}, {args.seconds:g} s")

    if args.trace:
        from tracer import LAYER_SELF, Tracer, layer_metrics, split_gap_s
        tracer = Tracer()
        plain_s, traced_s, sweeps, mismatched = measure_traced(
            w, args.seed, args.seconds, errors, tracer)
        metrics = layer_metrics(tracer, sweeps)
        metrics["simulate.trace_overhead_frac"] = {
            "value": traced_s / plain_s - 1.0, "unit": "fraction"}
        sweep_s = tracer.total["sweep"]
        gap_s = split_gap_s(tracer, metrics, sweeps)
        # the sweep spans must cover the traced wall time, bar the calls
        # around run_ber_sweep, and the reported layers must cover the spans
        outside_s = traced_s - sweep_s
        split_ok = (abs(gap_s) <= 1e-9 * sweep_s
                    and 0.0 <= outside_s <= 0.01 * traced_s)
        print(f"  {sweeps} traced sweeps; traced {traced_s:.4f} s, "
              f"untraced {plain_s:.4f} s; sweep spans {sweep_s:.4f} s, "
              f"tracer bookkeeping {tracer.bookkeeping_s:.4f} s")
        for name, m in metrics.items():
            if m["value"] is None:
                print(f"  {name:30s} ABSENT (hook did not resolve)")
                continue
            share = (f"  ({100 * m['value'] * sweeps / sweep_s:5.1f}% of sweep)"
                     if name in LAYER_SELF else "")
            print(f"  {name:30s} {m['value']:.6g} {m['unit']}{share}")
        if tracer.absent:
            print(f"  absent hooks: {', '.join(tracer.absent)}")
        print(f"  layer times cover the sweep spans: {split_ok} (gap "
              f"{gap_s:.3g} s; wall time outside the spans {outside_s:.3g} s)")
        print(f"  traced bit errors equal untraced: {mismatched == 0}")
    else:
        mismatched, split_ok = 0, True
        probe = Probe()
        raw_setups, setup_probes = setup_seconds(w, args.seed, probe)
        setups = at_reference_speed(raw_setups, setup_probes)
        spans, probes = measure_untraced(w, args.seed, args.seconds, errors,
                                         probe)
        raw = [w.chunk_trials / s for s in spans]
        rates = [w.chunk_trials / s for s in at_reference_speed(spans, probes)]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "trials_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        print(f"  trials_per_s  {_quartiles(rates)} (1/s, at reference "
              f"host speed)")
        print(f"  wall-clock    {_quartiles(raw)} (trials/s, uncorrected)")
        print(f"  probe         {_quartiles(probes)} (s; reference "
              f"{PROBE_REF_S} s)")
        print(f"  setup_s       {_quartiles(setups)} (s, at reference "
              f"host speed)")
        print(f"  wall-clock    {_quartiles(raw_setups)} (s, uncorrected)")
        print(f"  peak_rss_mb   {rss_mb:.6g} (MB)")

    ok = band_check(w.name, errors.trials, errors.bit_errors)
    failed = ok.count(False)
    print(f"  points_failed_frac {failed / len(ok):.6g} (fraction) over "
          f"{errors.trials} trials")
    report_points(w, errors, ok)
    print("env " + json.dumps(run_environment(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and mismatched == 0 and split_ok,
        "attempted": len(ok),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
