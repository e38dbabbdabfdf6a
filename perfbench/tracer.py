"""Per-layer spans and counts for a traced sweep, recorded from outside farsm.

``HOOKS`` is the one table of names the traced run wraps. Each entry
patches one attribute of a farsm module for the duration of ``installed``:
a timed hook records a span (inclusive and self time, on a stack so nested
spans such as draw/select/precode under redraw are subtracted from their
parent), an untimed hook only counts. A timed hook's ``on_return`` runs
after its span has closed; its time is kept in ``Tracer.bookkeeping_s`` and
out of every layer's time, including the parent's self time. A hook whose
module or attribute no longer resolves is skipped and recorded in
``Tracer.absent``; the metrics that need it are then reported as absent
instead of failing the run.

The tracer keeps one span stack, so traced sweeps must run on one thread
(``FARSM_THREADS`` unset).
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Hook:
    name: str                 # span or counter name
    module: str
    attr: str                 # attribute path inside the module
    timed: bool
    on_return: Callable | None = None   # (tracer, args, kwargs, result)


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _on_sweep(tr, args, kwargs, res):
    tr.counts["redraws"] += res.redraws


def _on_draw(tr, args, kwargs, res):
    if _arg(args, kwargs, 2, "redraw", 0) == 0:
        tr.counts["batches"] += 1


def _on_select(tr, args, kwargs, res):
    tr.counts["select_failed"] += int(np.count_nonzero(res[1]))
    tr.screen_pending = True


def _on_precode(tr, args, kwargs, res):
    tr.counts["precode_calls"] += 1
    # the first precode after a selection is the Gram screen at the top SNR
    if tr.screen_pending:
        tr.counts["screen_failed"] += int(np.count_nonzero(res[3]))
        tr.screen_pending = False


def _on_detect(tr, args, kwargs, res):
    det, cfg, y = args[0], args[1], args[2]
    rows = y.shape[0]
    tr.counts["decisions"] += rows
    if det == "med":
        tr.counts["med_decisions"] += rows
    elif det == "rttd":
        # same energy-ratio test as farsm.simulate._detect_batch; a self-test
        # compares the count with the engine's own ratios
        e = np.abs(y) ** 2
        largest = e.max(axis=1)
        second = np.partition(e, e.shape[1] - 2, axis=1)[:, -2]
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(largest > 0,
                             second / np.maximum(largest, 1e-300), 1.0)
        tr.counts["med_decisions"] += int(np.count_nonzero(ratio < cfg.gamma))


def _on_mld(tr, args, kwargs, res):
    tr.counts["mld_rows"] += args[0].shape[0]


def _on_generator(tr, args, kwargs, res):
    tr.counts["generators"] += 1


def _on_score(tr, args, kwargs, res):
    tr.counts["score_calls"] += 1
    tr.counts["subsets_scored"] += args[1].shape[0]


# build_correlation_model is imported into farsm.simulate by name, so the
# engine's calls go through that binding, not farsm.correlation's.
HOOKS = (
    Hook("sweep", "farsm.simulate", "run_ber_sweep", True, _on_sweep),
    Hook("model", "farsm.simulate", "build_correlation_model", True),
    Hook("draw", "farsm.simulate", "_draw_trials", True, _on_draw),
    Hook("select", "farsm.simulate", "_select_indices", True, _on_select),
    Hook("precode", "farsm.simulate", "_precode_batch", True, _on_precode),
    Hook("receive", "farsm.simulate", "_receive_batch", True),
    Hook("detect", "farsm.simulate", "_detect_batch", True, _on_detect),
    Hook("redraw", "farsm.simulate", "_redraw_failed", True),
    Hook("mld", "farsm.simulate", "_mld_batch", False, _on_mld),
    Hook("generator", "farsm.channel", "SeededRng.generator", False,
         _on_generator),
    Hook("score", "farsm.selection", "_subset_capacities", False, _on_score),
)


class Tracer:
    """Span and count accumulators for traced sweeps on one thread."""

    def __init__(self):
        self.total = defaultdict(float)      # inclusive seconds per span
        self.self_time = defaultdict(float)  # seconds minus child spans
        self.counts = Counter()
        self.absent: list[str] = []
        self.bookkeeping_s = 0.0             # on_return time inside spans
        self.screen_pending = False
        self._children: list[float] = []     # child seconds per open span

    def wrap(self, hook: Hook, fn):
        on_return = hook.on_return

        if not hook.timed:
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                on_return(self, args, kwargs, out)
                return out
            return counted

        def timed(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                self.total[hook.name] += dt
                self.self_time[hook.name] += dt - child
                if self._children:
                    self._children[-1] += dt
            if on_return is not None:
                t1 = time.perf_counter()
                on_return(self, args, kwargs, out)
                if self._children:
                    spent = time.perf_counter() - t1
                    self._children[-1] += spent
                    self.bookkeeping_s += spent
            return out
        return timed

    @contextmanager
    def installed(self, hooks=HOOKS):
        """Patch every resolvable hook; restore the originals on exit."""
        patched = []
        try:
            for hook in hooks:
                try:
                    owner = importlib.import_module(hook.module)
                    *path, last = hook.attr.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    fn = getattr(owner, last)
                except (ImportError, AttributeError):
                    if hook.name not in self.absent:
                        self.absent.append(hook.name)
                    continue
                setattr(owner, last, self.wrap(hook, fn))
                patched.append((owner, last, fn))
            yield self
        finally:
            for owner, last, fn in reversed(patched):
                setattr(owner, last, fn)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    needs: tuple[str, ...]    # hook names the value is derived from
    value: Callable           # (tracer, sweeps) -> float


def _span(name):
    return lambda tr, n: tr.total[name] / n


def _count(key):
    return lambda tr, n: tr.counts[key] / n


# Per-layer metrics, each a mean per traced sweep except the fractions.
# simulate.trace_overhead_frac needs an untraced run and is added by run.py.
METRICS = (
    Metric("channel.draw_s", "s", ("draw",), _span("draw")),
    Metric("channel.generators", "count", ("generator",), _count("generators")),
    Metric("selection.select_s", "s", ("select",), _span("select")),
    Metric("selection.score_calls", "count", ("score",), _count("score_calls")),
    Metric("selection.subsets_scored", "count", ("score",),
           _count("subsets_scored")),
    Metric("selection.failed", "count", ("select",), _count("select_failed")),
    Metric("precoding.precode_s", "s", ("precode",), _span("precode")),
    Metric("precoding.calls", "count", ("precode",), _count("precode_calls")),
    Metric("precoding.screen_failed", "count", ("select", "precode"),
           _count("screen_failed")),
    Metric("detection.detect_s", "s", ("detect",), _span("detect")),
    Metric("detection.mld_rows", "count", ("mld",), _count("mld_rows")),
    Metric("detection.med_frac", "fraction", ("detect",),
           lambda tr, n: tr.counts["med_decisions"] / max(tr.counts["decisions"], 1)),
    Metric("correlation.model_s", "s", ("model",), _span("model")),
    Metric("simulate.sweep_s", "s", ("sweep",), _span("sweep")),
    # the simulate layer's own time: sweep and redraw spans minus children
    Metric("simulate.self_s", "s", ("sweep",),
           lambda tr, n: (tr.self_time["sweep"] + tr.self_time["redraw"]) / n),
    Metric("simulate.receive_s", "s", ("receive",), _span("receive")),
    Metric("simulate.batches", "count", ("draw",), _count("batches")),
    Metric("simulate.redraws", "count", ("sweep",), _count("redraws")),
    Metric("simulate.redraw_s", "s", ("redraw",), _span("redraw")),
)

# Layer self times that partition the traced sweep span.
LAYER_SELF = ("channel.draw_s", "selection.select_s", "precoding.precode_s",
              "detection.detect_s", "correlation.model_s",
              "simulate.receive_s", "simulate.self_s")


def layer_metrics(tr: Tracer, sweeps: int) -> dict[str, dict]:
    """Per-layer metric values per traced sweep; absent ones get None."""
    out = {}
    for m in METRICS:
        missing = [h for h in m.needs if h in tr.absent]
        value = None if missing else float(m.value(tr, sweeps))
        out[m.name] = {"value": value, "unit": m.unit}
        if missing:
            out[m.name]["absent"] = True
    return out


def split_gap_s(tr: Tracer, metrics: dict[str, dict], sweeps: int) -> float:
    """Traced sweep time not covered by the reported layer times.

    Sums the ``LAYER_SELF`` values as reported (times ``sweeps``) plus the
    tracer's bookkeeping. The result is 0 up to rounding; a layer counted
    twice (a timed hook nested in another) or missing from ``LAYER_SELF``
    makes it differ. An absent layer's time stays in ``simulate.self_s``.
    """
    layers = sum(metrics[name]["value"] or 0.0 for name in LAYER_SELF)
    return tr.total["sweep"] - layers * sweeps - tr.bookkeeping_s
