"""Per-layer tracing of patternq from outside the library.

`Tracer.install()` replaces every public function (`__all__`) of each layer
module, plus `cli.main`, with a wrapper at every place a patternq module
binds it, so calls between modules are seen too.  Wrappers record a span
(name, start, end, parent span, op id) in memory; the `cells` functions are
hot, so they only count calls.  A few wrappers also read counters off the
arguments or the result.  `uninstall()` puts the original functions back;
untimed runs never install the wrappers at all.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("graphs", "partitions", "spectral", "cells", "existence", "stability",
          "simulate", "serialize", "cli")
COUNT_ONLY = {"cells"}


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None


def _public_functions(layer: str):
    module = importlib.import_module(f"patternq.{layer}")
    if layer == "cli":
        return module, ["main"]
    return module, [name for name in module.__all__
                    if inspect.isfunction(getattr(module, name))
                    and getattr(module, name).__module__ == module.__name__]


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op: int | None = None
        # wrappers record only while active, so oracle calls between ops stay out
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- counters read off arguments and results ---------------------------

    def _observe(self, name: str, args, result) -> None:
        if name == "cells.t_eval":
            self.counts["cells.t_eval.cells"] += np.size(args[1])
        elif name == "spectral.sym_eigen":
            self.counts["spectral.sym_eigen.order_sum"] += np.shape(args[0])[0]
        elif name == "partitions.coarsest_equitable_refinement":
            self.counts["partitions.refine.classes"] += result.r
        elif name == "simulate.integrate":
            self.counts["simulate.integrate.model_time"] += result.final_time
        elif name == "serialize.dumps_canonical":
            self.counts["serialize.output_bytes"] += len(result)

    def _progress(self, forward):
        # solve_reduced reports progress("newton", i) per Newton iteration and
        # progress("flow", step) every 5000 flow steps; observe, then forward
        def progress(phase, iteration):
            self.counts["existence.newton_iters" if phase == "newton"
                        else "existence.flow_ticks"] += 1
            if forward is not None:
                forward(phase, iteration)
        return progress

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, spans: bool):
        calls = name + ".calls"
        takes_progress = name == "existence.solve_reduced"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.counts[calls] += 1
            result = fn(*args, **kwargs)
            self._observe(name, args, result)
            return result

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.counts[calls] += 1
            if takes_progress:
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.arguments["progress"] = self._progress(bound.arguments.get("progress"))
                args, kwargs = bound.args, bound.kwargs
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[sid] = Span(name, start, time.perf_counter_ns(), parent, self.op)
                self._stack.pop()
            self._observe(name, args, result)
            return result

        return spanned if spans else counted

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module, names = _public_functions(layer)
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn, layer not in COUNT_ONLY))
        for modname, module in list(sys.modules.items()):
            if modname != "patternq" and not modname.startswith("patternq."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover, in s."""
        children: defaultdict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = []
        for sid, span in enumerate(self.spans):
            covered, reach = 0, span.start_ns
            for child in sorted(children[sid], key=lambda c: c.start_ns):
                start, end = max(child.start_ns, reach), min(child.end_ns, span.end_ns)
                if end > start:
                    covered += end - start
                    reach = end
            out.append((span.end_ns - span.start_ns - covered) * 1e-9)
        return out

    def totals(self) -> dict[str, float]:
        """Counters plus '<layer>.<function>.self_s' summed over all spans."""
        out = dict(self.counts)
        for span, self_s in zip(self.spans, self.self_times()):
            key = span.name + ".self_s"
            out[key] = out.get(key, 0.0) + self_s
        return out

    def inclusive_seconds(self, name: str) -> float:
        """Summed duration of the outermost spans called `name`."""
        total = 0
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None and self.spans[parent].name != name:
                parent = self.spans[parent].parent
            if parent is None:
                total += span.end_ns - span.start_ns
        return total * 1e-9

    def layer_self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for span, self_s in zip(self.spans, self.self_times()):
            out[span.name.split(".", 1)[0]] += self_s
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, with their self times."""
        with open(path, "w") as fh:
            for span, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps({"name": span.name, "start_ns": span.start_ns,
                                     "end_ns": span.end_ns, "parent": span.parent,
                                     "op": span.op, "self_s": self_s}) + "\n")
