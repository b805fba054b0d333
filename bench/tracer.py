"""Outside-in tracer: wraps esfl's public functions at their module attributes.

The package imports functions by name (``from .timing import round_time``),
so one function is reachable through several module attributes, e.g.
``esfl.simulation.round_time`` and ``esfl.cli.round_time``. The tracer
replaces the function at every ``esfl*`` module attribute that holds it and
puts the originals back on exit. A function a later change deletes is
listed in ``absent``; its metrics read zero.

Spans nest on one thread, so self time is a span's duration minus the
durations of the traced spans directly inside it. Only per-function
aggregates are kept, in memory; nothing is written while ops run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# Layers are the esfl modules that do work; `users` and `errors` hold types.
TARGETS = {
    "workload": ("cut_workload", "load_builtin"),
    "comm": ("link_rates",),
    "timing": ("round_time", "epoch_time", "default_fixed_cut"),
    "allocation": ("alternate", "allocate_server_compute", "server_demand_terms",
                   "equalize_min_max", "feasibility_mask"),
    "simulation": ("sample_round_users", "run_round", "run_simulation"),
    "split_training": ("split_update", "loss_value", "federated_aggregate",
                       "monolithic_update", "esfl_train"),
}
LAYERS = tuple(TARGETS) + ("cli",)
ROOT = "cli"   # the span around esfl.cli.main: argv and input parsing, reports


class Tracer:
    """Use as a context manager around each traced op; call ``main`` inside.

    Statistics accumulate over every op traced with the same instance.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}     # name -> [calls, self seconds]
        self.errors: Counter = Counter()     # layer -> exceptions passing through
        self.passes = 0                      # planner passes, summed over alternate calls
        self.improving_passes = 0            # passes that lowered the best objective
        self.absent: list[str] = []
        self._open: list[float] = []         # per open span: time covered by children
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = []
        for layer, names in TARGETS.items():
            try:
                home = importlib.import_module(f"esfl.{layer}")
            except ImportError:
                home = None
            for fname in names:
                name = f"{layer}.{fname}"
                original = getattr(home, fname, None)
                if not callable(original):
                    self.absent.append(name)
                    self.stats[name] = [0, 0.0]
                    continue
                after = self._count_passes if name == "allocation.alternate" else None
                self._wrappers.append((original, self._span(name, layer, original, after)))
        cli = importlib.import_module("esfl.cli")
        self.main = self._span(ROOT, ROOT, cli.main)

    def _span(self, name: str, layer: str, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0.0])
        open_spans = self._open
        errors = self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt - open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
            if after is not None:
                after(out)
            return out

        return traced

    def _count_passes(self, result) -> None:
        trace = getattr(result, "trace", ())
        best = None
        for rec in trace:
            if best is None or rec.objective < best:
                best = rec.objective
                self.improving_passes += 1
        self.passes += len(trace)

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "esfl" or name.startswith("esfl."))]
        for original, wrapper in self._wrappers:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
