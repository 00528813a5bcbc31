"""Outside-in span tracing of the cubicpm layers.

The tracer wraps every public function of the five kernel modules by
rebinding its name in its own module and in every ``cubicpm`` module that
imported it, so calls between layers pass through a span without any edit to
the package.  Spans are aggregated as they close: per function, the number
of calls and the self time (the span's duration minus the time its child
spans cover).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

KERNEL_LAYERS = ("connectivity", "matchings", "decomposition", "families", "multigraph")
LAYERS = KERNEL_LAYERS + ("verifier",)

# The exhaustive bipartition sweep behind every cut query.  It is private, so
# it is counted (graphs requested, distinct graphs) but gets no span of its
# own; its time stays in the public function that asked for it.  If the
# package no longer has it, both counts read 0.
SWEEP = ("connectivity", "_crossing_counts")


class Tracer:
    """Aggregates spans by name: ``stats[name] = [calls, self_s]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.sweep_calls = 0
        self.sweep_graphs: set = set()
        self._open: list[float] = []  # child time covered inside each open span

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        stats = self.stats.setdefault(name, [0, 0.0])
        open_spans = self._open
        clock = self.clock

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stats[0] += 1
                stats[1] += duration - open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration

        return functools.update_wrapper(traced, fn)

    def _count_sweep(self, fn):
        def counted(g, *args, **kwargs):
            self.sweep_calls += 1
            self.sweep_graphs.add(g)
            return fn(g, *args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def install(self, package: str = "cubicpm"):
        """Rebind the kernel functions of ``package``; returns an undo callable."""
        replace = {}
        for layer in KERNEL_LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and callable(obj)
                    and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    replace[obj] = self.wrap(f"{layer}.{name}", obj)
        sweep = getattr(sys.modules[f"{package}.{SWEEP[0]}"], SWEEP[1], None)
        if sweep is not None:
            replace[sweep] = self._count_sweep(sweep)

        undo = []
        modules = [
            m for key, m in list(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                try:
                    new = replace.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if new is not None:
                    setattr(mod, name, new)
                    undo.append((mod, name, obj))

        def uninstall():
            for mod, name, obj in undo:
                setattr(mod, name, obj)

        return uninstall

    def layer_totals(self) -> dict[str, list]:
        """``[calls, self_s]`` summed over the spans of each layer."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for name, (calls, self_s) in self.stats.items():
            total = out.setdefault(name.split(".", 1)[0], [0, 0.0])
            total[0] += calls
            total[1] += self_s
        return out
