"""Spans around the program's layers, recorded from outside the program.

``Tracer.install`` wraps every public function of the package's layer
modules and rebinds each name that refers to one, wherever it was imported
(``mergecode.codes.weights_at``, ``mergecode.cli.optimal_code``, the package
namespace).  While ``active`` is set, each call records a span: its name,
start, end, the span that called it and the operation it belongs to.  A
layer's self time is its span minus its child spans.  Spans stay in memory
and are written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "distributions", "merging", "codes", "limited",
    "waterfilling", "exponential", "extension", "cli",
)
# In cli only ``main`` is a boundary: the subcommand bodies (argument
# handling, serialization, file I/O) are its self time.
CLI_BOUNDARY = ("main",)
# Spans kept for the trace file; aggregates count every call regardless.
MAX_SPANS = 200_000

# Work counts taken from a layer's result, keyed by the wrapped function.
COUNTERS = {
    "merging.build_schedule": ("merging.symbols_scheduled", lambda out: out.size),
    "codes.payoff_curve": ("codes.curve_points", len),
    "exponential.solve_two_parameter": ("exponential.iterations", lambda out: out.iterations),
    "extension.extend": ("extension.outcomes", lambda out: out.size),
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = 0
        self._stack: list[list] = []  # [span index, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (op, span, parent, name index, start, end)
        self._next_span = 0
        self.dropped = 0
        self._rebound: list[tuple] = []

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        import mergecode.cli  # noqa: F401  (the CLI layer is not imported by the package)

        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"mergecode.{layer}"]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                if layer == "cli" and attr not in CLI_BOUNDARY:
                    continue
                originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name != "mergecode" and not name.startswith("mergecode."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            frame = [self._next_span, 0.0]
            self._next_span += 1
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self.calls[name] += 1
                self.total_s[name] += took
                self.self_s[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((self.op_id, frame[0], parent, index, start, end))
                else:
                    self.dropped += 1
            if counter is not None:
                self.counts[counter[0]] += int(counter[1](out))
            return out

        return wrapper

    # ------------------------------------------------------------ output

    def count(self, name: str, value: int) -> None:
        """A work count measured by the benchmark itself, such as bytes out."""
        if self.active:
            self.counts[name] += int(value)

    def dump(self, path: Path, extra: dict) -> None:
        t0 = min((s[4] for s in self.spans), default=0.0)
        doc = {
            **extra,
            "functions": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in sorted(self.calls)
            },
            "counts": dict(self.counts),
            "span_fields": ["op", "span", "parent", "name", "start_us", "end_us"],
            "names": self.names,
            "spans": [
                [op, span, parent, idx, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1)]
                for op, span, parent, idx, s, e in self.spans
            ],
            "spans_dropped": self.dropped,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
