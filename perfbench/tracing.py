"""In-memory span recorder that times calls into convdist's public functions.

The recorder wraps the functions listed in LAYERS wherever the convdist
package binds them (the package namespace, the defining module and every
module that imported them by name), so calls made inside the library are
traced too. A call into a layer that is already open on the stack is not
recorded again: the outer span covers it, and per-layer busy time never
counts the same interval twice.

Each span is [name, start, end, parent, job]: times from perf_counter, the
index of the enclosing span (or None) and the job id set by the runner.
The computed counts are closed-form sizes of a call's inputs (or a count the
call returns), so they repeat exactly for a fixed seed.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter

import convdist


def _state_steps(result, code, jmax, *args, **kwargs):
    memory = convdist.external_degree(code)
    k = code.k
    return sum(min(1 << (k * (j + 1)), 1 << memory) << k for j in range(jmax + 1))


def _messages(result, code, jmax, *args, **kwargs):
    return 1 << (code.k * (jmax + 1))


def _minors(result, code, *args, **kwargs):
    return math.comb(code.n, code.k)


def _codes(result, code, *args, **kwargs):
    return 1 << (code.k * code.n * (code.delta + 1))


def _rows_evaluated(result, *args, **kwargs):
    return result.evaluated


# layer -> [(module, function, counter name or None, count function)]
LAYERS = {
    "construct": [("convdist.construct", "construct", None, None)],
    "convcode.trellis": [
        ("convdist.convcode", "column_distances_trellis", "state_steps", _state_steps)
    ],
    "convcode.exhaustive": [
        ("convdist.convcode", "column_distances_exhaustive", "messages", _messages)
    ],
    "convcode.predicates": [
        ("convdist.convcode", "is_delay_free", None, None),
        ("convdist.convcode", "internal_degree", "minors", _minors),
        ("convdist.convcode", "is_row_reduced", "minors", _minors),
        ("convdist.convcode", "is_noncatastrophic", "minors", _minors),
    ],
    "convcode.free_distance": [("convdist.convcode", "free_distance", None, None)],
    "convcode.bounds": [("convdist.convcode", "row_weight_bounds", None, None)],
    "optsearch.verify": [("convdist.optsearch", "verify_optimal", "codes", _codes)],
    "optsearch.row_search": [
        ("convdist.optsearch", "search_optimal_row", "rows_evaluated", _rows_evaluated)
    ],
}

class Tracer:
    """Spans and counters of one traced pass; `install` patches the layers."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._open = set()
        self._patches = []

    def open_span(self, name):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.job])

    def close_span(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, layer, fn, counter, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer in self._open:
                return fn(*args, **kwargs)
            self._open.add(layer)
            self.open_span(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span()
                self._open.discard(layer)
            if counter:
                self.counts[f"{layer}.{counter}"] += count(result, *args, **kwargs)
            return result

        return traced

    def install(self):
        """Replace every binding of each layer function in convdist's modules."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "convdist" or name.startswith("convdist."))
        ]
        for layer, fns in LAYERS.items():
            for modname, fname, counter, count in fns:
                original = getattr(sys.modules[modname], fname)
                wrapper = self._wrap(layer, original, counter, count)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def layer_totals(self):
        """{span name: (busy seconds, span count)}."""
        out = {}
        for name, start, end, _, _ in self.spans:
            busy, calls = out.get(name, (0.0, 0))
            out[name] = (busy + (end - start), calls + 1)
        return out
