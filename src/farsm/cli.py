"""Command-line front end.

Subcommands: ``ber`` (Monte Carlo sweep), ``ratio-hist`` (detector threshold
calibration), ``capacity-loss`` and ``mse`` (theory curves averaged over
channel draws), ``portsel-bench`` (selection timing). Parameters come from
built-in defaults, overridden by a JSON config file (``--config``),
overridden in turn by explicit flags; the resolved configuration is echoed
in a JSON manifest so any run can be reproduced bit-exactly. Results go to
stdout as CSV by default; ``--out`` redirects them to a file (the manifest
then lands next to it) and ``--json`` switches the payload format.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from dataclasses import asdict, astuple, fields

import numpy as np

from farsm import __version__
from farsm.correlation import (build_correlation_model, dump_correlation_csv,
                               port_coordinates)
from farsm.errors import ConfigError, NumericalError
from farsm.precoding import NoiseModel
from farsm.selection import PortSet
from farsm.simulate import (STREAM_VERSION, SimConfig, draw_channels,
                            portsel_benchmark, run_ber_sweep, run_ratio_sweep,
                            write_ber_csv)
from farsm.theory import NestedSetPair, mmse_mse, zf_capacity_loss_curve

_CONFIG_KEYS = tuple(f.name for f in fields(SimConfig))
_MAX_SNR_POINTS = 10_000  # a start:step:stop grid larger than this is a typo


def parse_snr_range(text: str) -> tuple[float, ...]:
    """Parse ``start:step:stop`` (inclusive) or a single value."""
    parts = text.split(":")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"could not parse SNR specification {text!r}") from None
    if len(values) == 1:
        return (values[0],)
    if len(values) != 3:
        raise ConfigError(
            f"SNR must be a single value or start:step:stop, got {text!r}")
    start, step, stop = values
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(
            f"SNR start, step and stop must be finite, got {text!r}")
    if step <= 0:
        raise ConfigError(f"SNR step must be positive, got {step}")
    if stop < start:
        raise ConfigError(f"SNR stop {stop} is below start {start}")
    # checked before the grid is built; an overflowing span reads as inf
    span = (stop - start) / step
    if not span < _MAX_SNR_POINTS:
        raise ConfigError(
            f"SNR grid {text!r} has more than {_MAX_SNR_POINTS} points")
    count = int(math.floor(span + 1e-9))
    return tuple(start + i * step for i in range(count + 1))


def load_config(path: str) -> dict:
    """Read a JSON config file; reject unknown keys."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    if not text.strip():
        return {}
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config parse error in {path} at line {e.lineno}, "
            f"column {e.colno}: {e.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for key in data:
        if key not in _CONFIG_KEYS:
            raise ConfigError(
                f"unknown config key {key!r} in {path} "
                f"(valid keys: {', '.join(_CONFIG_KEYS)})")
    if "snr_db" in data:
        if not isinstance(data["snr_db"], list):
            raise ConfigError("config key 'snr_db' must be a list of numbers")
        # float() would also take true and "10"; only JSON numbers count
        if any(isinstance(v, bool) or not isinstance(v, (int, float))
               for v in data["snr_db"]):
            raise ConfigError(
                "config key 'snr_db' must be a list of numbers, got "
                f"{data['snr_db']!r}")
        data["snr_db"] = tuple(float(v) for v in data["snr_db"])
    return data


def _merge_config(args: argparse.Namespace,
                  overrides: dict | None = None) -> SimConfig:
    """defaults < config file < flags; flag-over-file overrides are logged."""
    if getattr(args, "snr", None) is not None:
        args.snr_db = parse_snr_range(args.snr)
    merged = asdict(SimConfig())
    if overrides:
        merged.update(overrides)
    file_cfg: dict = {}
    if getattr(args, "config", None):
        file_cfg = load_config(args.config)
        merged.update(file_cfg)
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is None:
            continue
        if key in file_cfg and file_cfg[key] != val:
            print(f"note: flag value for {key} overrides config file "
                  f"({file_cfg[key]!r} -> {val!r})", file=sys.stderr)
        merged[key] = val
    merged["snr_db"] = tuple(merged["snr_db"])
    return SimConfig(**merged).validate()


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("geometry")
    g.add_argument("--w1", type=float, metavar="W",
                   help="surface height in wavelengths (default 1.0)")
    g.add_argument("--w2", type=float, metavar="W",
                   help="surface width in wavelengths (default 1.0)")
    g.add_argument("--n1", type=int, metavar="N",
                   help="port rows (default 4)")
    g.add_argument("--n2", type=int, metavar="N",
                   help="port columns (default 4)")


def _add_link_args(p: argparse.ArgumentParser, selection: bool = True) -> None:
    g = p.add_argument_group("link")
    g.add_argument("--nr", dest="n_r", type=int, metavar="N",
                   help="receive antennas, power of two (default 4)")
    g.add_argument("--na", dest="n_a", type=int, metavar="N",
                   help="active ports (default 4)")
    if selection:
        g.add_argument("--nb", dest="n_b", type=int, metavar="N",
                       help="stage-one survivor count for mce-tmd (default 12)")


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("simulation")
    g.add_argument("--mod-order", dest="mod_order", type=int,
                   choices=(4, 16, 64), help="QAM order (default 4)")
    g.add_argument("--precoder", choices=("zf", "mmse"),
                   help="linear precoder (default zf)")
    g.add_argument("--portsel", choices=("optimal", "tmd", "mce-tmd", "first"),
                   help="port selection strategy (default optimal)")
    g.add_argument("--detector", choices=("mld", "med", "rttd"),
                   help="detector (default mld)")
    g.add_argument("--gamma", type=float, metavar="G",
                   help="RTTD ratio threshold in [0,1] (default 0.6)")
    g.add_argument("--select-snr-db", dest="select_snr_db", type=float,
                   metavar="DB",
                   help="operating SNR assumed by exhaustive MMSE selection")
    g.add_argument("--trials", type=int, metavar="T",
                   help="trials per SNR point (default 100000)")
    g.add_argument("--baseline", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="simulate traditional RSM with N_a fixed i.i.d. "
                        "antennas instead of the fluid antenna")


def _add_common_args(p: argparse.ArgumentParser,
                     include_snr: bool = True) -> None:
    g = p.add_argument_group("run")
    g.add_argument("--config", metavar="PATH",
                   help="JSON config file; flags override its values")
    if include_snr:
        g.add_argument("--snr", metavar="SPEC", default=None,
                       help="SNR grid in dB: start:step:stop inclusive, or "
                            "one value (default 0:5:15)")
    g.add_argument("--seed", dest="master_seed", type=int, metavar="S",
                   help="master seed (default 0)")
    g.add_argument("--out", metavar="PATH",
                   help="write results to PATH (manifest goes to "
                        "PATH's sibling .manifest.json); default stdout")
    g.add_argument("--json", action="store_true",
                   help="emit JSON instead of CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="farsm",
        description="Link-level simulator for fluid-antenna receive "
                    "spatial modulation.")
    parser.add_argument("--version", action="version",
                        version=f"farsm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "ber", help="Monte Carlo bit-error-rate sweep",
        description="Sweep SNR and report BER with Wilson intervals as CSV.")
    _add_grid_args(p)
    _add_link_args(p)
    _add_sim_args(p)
    _add_common_args(p)
    p.add_argument("--dump-correlation", metavar="PATH",
                   help="also write the port correlation matrix as CSV")
    p.add_argument("--dump-channels", dest="dump_channels", metavar="PATH",
                   help="also write every drawn channel as CSV")
    p.set_defaults(func=_cmd_ber)

    p = sub.add_parser(
        "ratio-hist", help="receive energy-ratio histogram (MMSE)",
        description="Histogram the second-to-first receive energy ratio "
                    "used to calibrate the RTTD threshold. Uses the MMSE "
                    "precoder.")
    _add_grid_args(p)
    _add_link_args(p)
    _add_sim_args(p)
    _add_common_args(p)
    p.add_argument("--bins", type=int, metavar="B",
                   help="histogram bins on [0,1] (default 50)")
    p.set_defaults(func=_cmd_ratio_hist)

    p = sub.add_parser(
        "capacity-loss", help="ZF capacity loss of dropping ports (theory)",
        description="Average capacity loss and its noise-free upper bound "
                    "when restricting all N ports to the first N_a, over "
                    "the channels that 'ber --portsel first' draws.")
    _add_grid_args(p)
    _add_link_args(p, selection=False)
    _add_common_args(p)
    p.add_argument("--draws", type=int, default=50, metavar="D",
                   help="channel draws to average (default 50)")
    p.set_defaults(func=_cmd_capacity_loss)

    p = sub.add_parser(
        "mse", help="MMSE precoding mean-square error (theory)",
        description="Average MMSE mean-square error of the first-N_a port "
                    "set over the channels that 'ber --portsel first' "
                    "draws.")
    _add_grid_args(p)
    _add_link_args(p, selection=False)
    _add_common_args(p)
    p.add_argument("--draws", type=int, default=50, metavar="D",
                   help="channel draws to average (default 50)")
    p.set_defaults(func=_cmd_mse)

    p = sub.add_parser(
        "portsel-bench", help="wall-clock benchmark of selection strategies",
        description="Median per-call wall-clock of exhaustive, TMD and "
                    "MCE-TMD selection at the configured sizes.")
    _add_grid_args(p)
    _add_link_args(p)
    _add_common_args(p, include_snr=False)
    p.add_argument("--repeats", type=int, default=25, metavar="R",
                   help="channel draws to time (default 25)")
    p.set_defaults(func=_cmd_portsel_bench)
    return parser


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _emit(args: argparse.Namespace, render_csv, payload) -> list[str]:
    """Write the result payload (CSV via render_csv or JSON) to --out/stdout."""
    with (open(args.out, "w", encoding="ascii") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if args.json:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            render_csv(fh)
    return [args.out or "-"]


def _write_manifest(args: argparse.Namespace, command: str, cfg_echo: dict,
                    outputs: list[str], extra: dict) -> None:
    manifest = {
        "tool": "farsm",
        "version": __version__,
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "master_seed": cfg_echo.get("master_seed"),
        "config": cfg_echo,
        "outputs": outputs,
    }
    manifest.update(extra)
    path = None
    if args.out:
        stem = args.out.rsplit(".", 1)[0] if "." in args.out.rsplit("/", 1)[-1] \
            else args.out
        path = stem + ".manifest.json"
    with (open(path, "w", encoding="ascii") if path
          else contextlib.nullcontext(sys.stderr)) as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _run_timing(trials: int, elapsed: float) -> dict:
    """Manifest fields for the wall time of a run of ``trials`` trials (each
    shared by every SNR point)."""
    return {"elapsed_seconds": round(elapsed, 3),
            "trials_per_second": round(trials / elapsed, 1)}


def _redraws(result) -> dict:
    """Manifest fields for the redraws of a sweep: the total and its split
    by cause (degenerate port selection, failed precoder screen)."""
    return {"redraws": result.redraws,
            "selection_redraws": result.selection_redraws,
            "screen_redraws": result.screen_redraws}


def _cfg_echo(cfg: SimConfig) -> dict:
    echo = asdict(cfg)
    echo["snr_db"] = list(cfg.snr_db)
    return echo


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_ber(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    if args.dump_correlation:
        model = build_correlation_model(
            port_coordinates(cfg.w1, cfg.w2, cfg.n1, cfg.n2))
        dump_correlation_csv(model, args.dump_correlation)
    t0 = time.perf_counter()
    sweep = run_ber_sweep(cfg)
    elapsed = time.perf_counter() - t0
    # RTTD: per-point count of decisions taken by the energy detector
    med_rows = {} if sweep.med_rows is None else {
        "med_rows": list(sweep.med_rows)}
    redraws = _redraws(sweep)
    payload = {"variant": sweep.variant, **redraws, **med_rows,
               "points": [asdict(p) for p in sweep.points]}
    outputs = _emit(args, lambda fh: write_ber_csv(fh, [sweep]), payload)
    if args.dump_correlation:
        outputs.append(args.dump_correlation)
    if cfg.dump_channels:
        outputs.append(cfg.dump_channels)
    _write_manifest(args, "ber", _cfg_echo(cfg), outputs,
                    {"stream_version": STREAM_VERSION, **redraws, **med_rows,
                     **_run_timing(cfg.trials, elapsed)})
    return 0


def _cmd_ratio_hist(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, {"precoder": "mmse"})
    t0 = time.perf_counter()
    result = run_ratio_sweep(cfg)
    elapsed = time.perf_counter() - t0
    hists = result.histograms

    def render(fh):
        fh.write("snr_db,bin_low,bin_high,count\n")
        for h in hists:
            for lo, hi, c in zip(h.bin_edges[:-1], h.bin_edges[1:], h.counts):
                fh.write(f"{h.snr_db:.10g},{lo:.10g},{hi:.10g},{int(c)}\n")

    payload = [{"snr_db": h.snr_db, "bin_edges": [float(e) for e in h.bin_edges],
                "counts": [int(c) for c in h.counts], "total": h.total,
                "median": h.median} for h in hists]
    outputs = _emit(args, render, payload)
    _write_manifest(args, "ratio-hist", _cfg_echo(cfg), outputs,
                    {"stream_version": STREAM_VERSION, **_redraws(result),
                     "medians": [[h.snr_db, h.median] for h in hists],
                     **_run_timing(cfg.trials, elapsed)})
    return 0


def _emit_table(args: argparse.Namespace, command: str, cfg: SimConfig,
                header: tuple, rows: list[tuple], specs: tuple,
                extra: dict) -> int:
    """Emit ``rows`` under ``header``, as CSV with column j formatted by
    ``specs[j]`` or as JSON objects, and the run's manifest."""

    def render(fh):
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(format, row, specs)) + "\n")

    payload = [dict(zip(header, row)) for row in rows]
    outputs = _emit(args, render, payload)
    _write_manifest(args, command, _cfg_echo(cfg), outputs, extra)
    return 0


def _theory_draws(args: argparse.Namespace):
    """A theory command's config, the channels it averages over, and the
    manifest fields that say how they were drawn."""
    cfg = _merge_config(args, {"portsel": "first"})
    for snr in cfg.snr_db:
        if not math.isfinite(snr):  # the closed forms need noise
            raise ConfigError(f"SNR point {snr} dB is not finite; the theory "
                              f"commands need a positive noise power")
    drawn = draw_channels(cfg, args.draws)
    return cfg, drawn.channels, {"draws": args.draws,
                                 "stream_version": STREAM_VERSION,
                                 **_redraws(drawn)}


def _cmd_capacity_loss(args: argparse.Namespace) -> int:
    cfg, channels, manifest = _theory_draws(args)
    try:
        pair = NestedSetPair(inner=PortSet(range(1, cfg.n_a + 1)),
                             outer=PortSet(range(1, cfg.n_ports + 1)))
    except ValueError as e:  # N_a = N leaves no port to drop
        raise ConfigError(str(e)) from None
    # one factoring of the draws serves every point and the bound
    losses, bounds = zf_capacity_loss_curve(
        channels, pair, [NoiseModel.from_snr_db(snr) for snr in cfg.snr_db])
    bound = float(np.mean(bounds))
    rows = [(float(snr), float(np.mean(loss)), bound)
            for snr, loss in zip(cfg.snr_db, losses)]
    return _emit_table(args, "capacity-loss", cfg,
                       ("snr_db", "value", "bound"), rows, (".10g",) * 3,
                       manifest)


def _cmd_mse(args: argparse.Namespace) -> int:
    cfg, channels, manifest = _theory_draws(args)
    ports = PortSet(range(1, cfg.n_a + 1))
    rows = [(float(snr), float(np.mean(mmse_mse(
        channels, ports, NoiseModel.from_snr_db(snr)))))
        for snr in cfg.snr_db]
    return _emit_table(args, "mse", cfg, ("snr_db", "value"), rows,
                       (".10g",) * 2, manifest)


def _cmd_portsel_bench(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    if args.repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {args.repeats}")
    rows = [astuple(r) for r in portsel_benchmark(cfg, repeats=args.repeats)]
    return _emit_table(args, "portsel-bench", cfg,
                       ("algorithm", "median_seconds", "evaluations"), rows,
                       ("", ".6g", ""), {"repeats": args.repeats})


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
