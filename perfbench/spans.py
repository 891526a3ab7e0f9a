"""Span tracer for the traced run, installed from the benchmark's own code.

``Tracer.install`` wraps every public function in the ``__all__`` of each
layer module, at every ``dephasim`` namespace (and name-to-function table)
that holds it.  Spans are kept in memory as (id, name, start, end, parent,
thread) and self times are computed from them afterwards.  A span opened in
a worker thread with no open span of its own takes the innermost open span
of the installing thread as its parent, so the thread pool's work nests
under the ``simulate_dataset`` call that started it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("noise", "montecarlo", "bloch", "analytic", "fit", "cli")
#: Config validation entry points of the cli module, traced as ``cli.config``.
CONFIG_FUNCTIONS = ("build_experiment", "_parse_sweep_section")
#: Arrays of n_grid x N float64 that dominant_frequency builds: phases, cos, sin.
DOMFREQ_ARRAYS = 3


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[Span]] = defaultdict(list)
        self._main = threading.get_ident()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> Span:
        thread = threading.get_ident()
        stack = self._stacks[thread]
        if stack:
            parent = stack[-1].id
        else:
            main = self._stacks[self._main]
            parent = main[-1].id if main and thread != self._main else 0
        span = Span(next(self._ids), name, time.perf_counter(), 0.0, parent, thread)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks[span.thread].pop()
        self.spans.append(span)

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    # --------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "fit.fit_curve":
                args, kwargs = _trace_curve(tracer, args, kwargs)
            result = tracer.call(name, fn, *args, **kwargs)
            if name.startswith("noise.") and isinstance(result, (float, np.ndarray)):
                tracer.counts["noise.values"] += int(np.size(result))
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer.counts, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dephasim.{layer}")
            names = [(n, f"{layer}.{n}") for n in getattr(module, "__all__", ())]
            if layer == "cli":
                names += [(n, "cli.config") for n in CONFIG_FUNCTIONS]
            for attr, span_name in names:
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(span_name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "dephasim" and not modname.startswith("dephasim."):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._patches.append((module, attr, value))
                elif isinstance(value, dict):
                    for key, entry in value.items():
                        if id(entry) in wrappers and wrappers[id(entry)][0] is entry:
                            value[key] = wrappers[id(entry)][1]
                            self._patches.append((value, key, entry))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # ------------------------------------------------------- self times

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is the span's duration minus the union of its children's
        intervals, so overlapping children in worker threads count once.
        """
        children = defaultdict(list)
        for span in self.spans:
            children[span.parent].append((span.start, span.end))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span in self.spans:
            covered, reach = 0.0, span.start
            for start, end in sorted(children.get(span.id, ())):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            entry = out[span.name]
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += span.end - span.start - covered
        return dict(out)

    def span_records(self) -> list[list]:
        return [[s.id, s.name, s.start, s.end, s.parent, s.thread] for s in self.spans]


def _trace_curve(tracer: Tracer, args, kwargs):
    """Wrap the model curve handed to fit_curve so each evaluation is a span."""
    def traced_curve(curve):
        def evaluate(*a, **kw):
            return tracer.call("fit.model_eval", curve, *a, **kw)
        return evaluate

    if args:
        return (traced_curve(args[0]),) + tuple(args[1:]), kwargs
    kwargs = dict(kwargs, curve=traced_curve(kwargs["curve"]))
    return args, kwargs


def _count_draws(counts, arguments, result):
    config = arguments["config"]
    if config.inhomogeneous is None and config.homogeneous is None:
        draws = 1
    else:
        draws = arguments.get("draws") or config.noise_draws
    counts["montecarlo.draws"] += int(draws)


def _count_fit(counts, arguments, result):
    counts["fit.iterations"] += int(result.iterations)
    counts["fit.unconverged"] += int(not result.converged)


def _count_domfreq(counts, arguments, result):
    """n_grid x N cells, by the grid rule documented in dominant_frequency."""
    x = np.unique(np.asarray(arguments["x"], dtype=float))
    span, spacing = float(x[-1] - x[0]), float(np.min(np.diff(x)))
    n_grid = min(arguments["max_grid"],
                 max(64, int(arguments["oversample"] * span / spacing)))
    cells = n_grid * np.asarray(arguments["x"]).size
    counts["fit.domfreq_cells"] += cells
    counts["fit.domfreq_bytes_computed"] += cells * 8 * DOMFREQ_ARRAYS


_HOOKS = {
    "montecarlo.ensemble_probability": _count_draws,
    "fit.fit_curve": _count_fit,
    "fit.dominant_frequency": _count_domfreq,
}


def layer_metrics(tracer: Tracer, items: int, traced_p50: float, untraced_p50: float,
                  io_bytes: Counter) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per attempted item, as name -> (value, unit)."""
    summary = tracer.summary()

    def pick(prefix: str, key: str) -> float:
        return sum(v[key] for name, v in summary.items()
                   if name == prefix or name.startswith(prefix + "."))

    def per_item(value: float) -> float:
        return value / items

    noise_values = tracer.counts["noise.values"]
    draws = tracer.counts["montecarlo.draws"]
    kernel_self = pick("montecarlo.ensemble_probability", "self_s")
    metrics = {
        "noise.calls": (per_item(pick("noise", "calls")), "count/item"),
        "noise.values": (per_item(noise_values), "count/item"),
        "noise.self_s": (per_item(pick("noise", "self_s")), "s/item"),
        "noise.ns_per_value": (1e9 * pick("noise", "self_s") / noise_values
                               if noise_values else 0.0, "ns"),
        "montecarlo.points": (per_item(pick("montecarlo.ensemble_probability", "calls")),
                              "count/item"),
        "montecarlo.draws": (per_item(draws), "count/item"),
        "montecarlo.kernel_self_s": (per_item(kernel_self), "s/item"),
        "montecarlo.kernel_ns_per_draw": (1e9 * kernel_self / draws if draws else 0.0, "ns"),
        "montecarlo.dataset_self_s": (per_item(pick("montecarlo.simulate_dataset", "self_s")),
                                      "s/item"),
        "montecarlo.scan_self_s": (per_item(pick("montecarlo.scan_visibility", "self_s")),
                                   "s/item"),
        "bloch.calls": (per_item(pick("bloch", "calls")), "count/item"),
        "analytic.calls": (per_item(pick("analytic", "calls")), "count/item"),
        "analytic.self_s": (per_item(pick("analytic", "self_s")), "s/item"),
        "fit.fits": (per_item(pick("fit.fit_curve", "calls")), "count/item"),
        "fit.iterations": (per_item(tracer.counts["fit.iterations"]), "count/item"),
        "fit.model_evals": (per_item(pick("fit.model_eval", "calls")), "count/item"),
        "fit.unconverged": (per_item(tracer.counts["fit.unconverged"]), "count/item"),
        "fit.curve_self_s": (per_item(pick("fit.fit_curve", "self_s")), "s/item"),
        "fit.jacobian_self_s": (per_item(pick("fit.numeric_jacobian", "self_s")), "s/item"),
        "fit.model_eval_s": (per_item(pick("fit.model_eval", "total_s")), "s/item"),
        "fit.domfreq_self_s": (per_item(pick("fit.dominant_frequency", "self_s")), "s/item"),
        "fit.domfreq_cells": (per_item(tracer.counts["fit.domfreq_cells"]), "count/item"),
        "fit.domfreq_bytes_computed": (per_item(tracer.counts["fit.domfreq_bytes_computed"]),
                                       "B/item"),
        "cli.commands": (per_item(pick("cli.main", "calls")), "count/item"),
        "cli.self_s": (per_item(pick("cli.main", "self_s")), "s/item"),
        "cli.config_s": (per_item(pick("cli.config", "total_s")), "s/item"),
        "cli.bytes_written": (per_item(io_bytes["written"]), "B/item"),
        "cli.bytes_read": (per_item(io_bytes["read"]), "B/item"),
        "trace.overhead_s_per_item": (traced_p50 - untraced_p50, "s"),
    }
    return metrics


def module_shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's share of the traced items' self time; the shares sum to one.

    With the thread pool the denominator counts thread-seconds, so a layer
    running in two workers at once counts twice.  ``harness`` is the
    benchmark's own time inside an item (output capture).
    """
    summary = tracer.summary()
    total = sum(v["self_s"] for v in summary.values())
    if not total:
        return {}
    shares = {layer: sum(v["self_s"] for name, v in summary.items()
                         if name.startswith(layer + ".")) / total
              for layer in LAYERS}
    shares["harness"] = summary.get("item", {}).get("self_s", 0.0) / total
    return shares
