"""Span tracer for calls that cross from one timcorr module into another.

Edges are discovered, not listed: ``install`` scans the globals of every
loaded ``timcorr.*`` module for plain functions defined in a different
``timcorr.*`` module (names bound by ``from .x import f``) and rebinds each
to a wrapper.  A call through such a name records a span for the layer
that defines the function.  Calls within one module, methods, and
callbacks passed as arguments are not edges; their time belongs to the
span that runs them.  Moving a function to another module therefore moves
its time with it, and nothing in the package has to change.

Spans are kept in memory and folded into per-layer sums by ``fold``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "timcorr"
LAYERS = ("cli", "criticality", "channels", "correlations", "tim_ground_state", "numerics")


def _layer(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:]


class Tracer:
    def __init__(self) -> None:
        # (layer, start, end, parent span index or -1, raised)
        self.spans: list[tuple[str, float, float, int, bool] | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    def edges(self) -> list[tuple[str, str, str]]:
        """(caller module, name, callee module) of every cross-module function."""
        found = []
        for mod_name, module in sorted(sys.modules.items()):
            if not mod_name.startswith(PACKAGE + ".") or module is None:
                continue
            for name, obj in sorted(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE + ".") \
                        and obj.__module__ != mod_name:
                    found.append((mod_name, name, obj.__module__))
        return found

    def install(self) -> None:
        for mod_name, name, callee in self.edges():
            namespace = vars(sys.modules[mod_name])
            original = namespace[name]
            self._patched.append((namespace, name, original))
            namespace[name] = self.wrap(original, _layer(callee))

    def uninstall(self) -> None:
        while self._patched:
            namespace, name, original = self._patched.pop()
            namespace[name] = original

    def wrap(self, fn, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, raised)

        return traced

    def fold(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self time (span minus its child spans) and errors."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        sums = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
        for (layer, start, end, _, raised), children in zip(self.spans, child_time):
            entry = sums.setdefault(layer, {"calls": 0, "self_s": 0.0, "errors": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - children
            entry["errors"] += int(raised)
        return sums
