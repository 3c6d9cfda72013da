"""In-memory spans around layer calls, recorded from the benchmark's side.

A span is one call into a layer: name, start, end and the span that was
open when it began.  Hot methods called thousands of times inside one
layer call get no span each; `aggregated` instead sums their calls and
time into a table the enclosing span carries.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1]["id"] if self._open else None,
                  "start": perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        """fn with a span around every call."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def children(tracer: Tracer, span: dict) -> dict:
    """Direct child spans of span, by name (the last one of each name)."""
    return {s["name"]: s for s in tracer.spans if s["parent"] == span["id"]}


@contextmanager
def patched(module, attr: str, value):
    """Set module.attr to value for the duration of the block."""
    saved = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, saved)


def _counting(fn, total: dict):
    def timed(*args, **kwargs):
        began = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            total["calls"] += 1
            total["seconds"] += perf_counter() - began
    return timed


@contextmanager
def aggregated(cls: type, names: list[str]):
    """Count calls and time of the methods `names` of cls within the block.

    Yields {name: {"calls": int, "seconds": float}}, filled as the
    methods run.  Class methods stay class methods.  The originals are
    restored on exit.
    """
    totals = {}
    saved = {}
    for name in names:
        totals[name] = {"calls": 0, "seconds": 0.0}
        saved[name] = original = cls.__dict__[name]
        if isinstance(original, classmethod):
            setattr(cls, name, classmethod(_counting(original.__func__, totals[name])))
        else:
            setattr(cls, name, _counting(original, totals[name]))
    try:
        yield totals
    finally:
        for name, original in saved.items():
            setattr(cls, name, original)
