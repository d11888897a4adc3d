"""In-memory span tracing for the benchmark's traced run.

A span has a name, start and end times, the span that was open when it
started (its parent) and the operation id it belongs to.  Outer spans are
opened by the benchmark around its own calls; inner spans come from
wrappers that `patched` sets on the module attributes the library looks up
at call time, and removes again on exit.  Nothing under `src/` is edited.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """The untraced run: every hook is a no-op."""

    op = None

    def span(self, name):
        return nullcontext()

    def count(self, name, amount=1):
        pass

    def maximum(self, name, value):
        pass


class Tracer:
    def __init__(self):
        self.op = None               # operation id given to new spans
        self.spans = []
        self.counters = {}
        self._open = []

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "error": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, fn, name, after=None):
        """fn inside a span; after(result, *args) runs on its result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result
        return traced


@contextmanager
def patched(tracer, targets):
    """Replace each (owner, attribute, span name, after) by a traced wrapper.

    The original attributes are put back on exit, also when the body raises.
    """
    originals = []
    try:
        for owner, attr, name, after in targets:
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, name, after))
        yield
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], ())]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(
            [iv for iv in kids if iv[1] > iv[0]])
    return out


def layer_table(spans):
    """Per span name: calls, inclusive seconds, self seconds, errors by type."""
    selfs = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "inclusive_s": 0.0,
                                           "self_s": 0.0, "errors": {}})
        row["calls"] += 1
        row["inclusive_s"] += s["end"] - s["start"]
        row["self_s"] += selfs[s["id"]]
        if s["error"]:
            row["errors"][s["error"]] = row["errors"].get(s["error"], 0) + 1
    return table
