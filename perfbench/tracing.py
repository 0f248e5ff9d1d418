"""In-memory span recorder for the traced benchmark run.

A traced rep swaps timing wrappers onto the public entry points of every
layer (``repro.core``, ``repro.synthesis``, ``repro.rewrite``,
``repro.circuits``, ``repro.perf``, ``repro.parallel``, ``repro.distrib``,
``repro.serve``) and restores the originals afterwards, so untraced reps run
the program exactly as shipped.  Each span records its name, start, end,
parent span and the job it belongs to; spans stay in memory and are written
out once, when the benchmark ends.

Portfolio workers run in forked processes.  The wrapper around the worker
entry point (``repro.parallel.backends._step_engine``) collects the spans and
counters a worker recorded for one round and rides them back on the pickled
engine; the parent's ``run_round`` wrapper unpacks them under its own span.
``time.perf_counter`` reads the system-wide monotonic clock on Linux, so
child timestamps line up with the parent's.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager

#: attribute a worker's trace rides back on, stripped by the parent
_SHIP_ATTR = "_perfbench_trace"
#: attribute naming the job a portfolio optimizer / run belongs to
JOB_ATTR = "_perfbench_job"


class Tracer:
    """Spans and counters recorded at layer boundaries (see module docstring)."""

    def __init__(self) -> None:
        #: ``[id, name, start, end, parent, job]`` per finished span
        self.spans: "list[list]" = []
        self.counters: "dict[str, float]" = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: "list[tuple[object, str, object, object]]" = []
        #: serve job id -> when it was submitted / when its optimizer was built
        self.submitted: "dict[str, float]" = {}
        self.opened: "dict[str, float]" = {}

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, job=None):
        stack = self._stack()
        parent, parent_job = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        job = parent_job if job is None else job
        stack.append((span_id, job))
        record = [span_id, name, time.perf_counter(), None, parent, job]
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- patching --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None, job_of=None) -> None:
        """Time every call of ``owner.attr`` as span ``name`` once installed.

        ``after(tracer, args, result, record)`` runs after a call that
        returned, with the call's span record; ``job_of(args)`` names the job
        a call belongs to (None inherits).
        """
        raw = owner.__dict__[attr]
        tracer = self

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            job = job_of(args) if job_of is not None else None
            with tracer.span(name, job=job) as record:
                result = raw(*args, **kwargs)
            if after is not None:
                after(tracer, args, result, record)
            return result

        self._patches.append((owner, attr, raw, wrapper))

    def wrap_worker_entry(self, owner, attr: str, name: str) -> None:
        """Wrap a function that runs in a pool worker and returns the engine."""
        raw = owner.__dict__[attr]
        tracer = self

        @functools.wraps(raw)
        def wrapper(payload):
            mark = len(tracer.spans)
            before = dict(tracer.counters)
            # The forked worker inherited the parent's open-span stack.
            tracer._local.stack = []
            with tracer.span(name):
                engine = raw(payload)
            shipped = tracer.spans[mark:]
            del tracer.spans[mark:]
            counters = {
                key: value - before.get(key, 0)
                for key, value in tracer.counters.items()
                if value != before.get(key, 0)
            }
            engine.__dict__[_SHIP_ATTR] = (shipped, counters)
            return engine

        self._patches.append((owner, attr, raw, wrapper))

    def wrap_round(self, owner, attr: str, name: str) -> None:
        """Wrap ``run_round``: time it and unpack what its workers shipped."""
        raw = owner.__dict__[attr]
        tracer = self

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                engines = raw(*args, **kwargs)
                for engine in engines:
                    shipped = engine.__dict__.pop(_SHIP_ATTR, None)
                    if shipped is not None:
                        tracer._adopt(shipped, record[0], record[5])
            return engines

        self._patches.append((owner, attr, raw, wrapper))

    def _adopt(self, shipped, parent: int, job) -> None:
        spans, counters = shipped
        renumber = {span[0]: next(self._ids) for span in spans}
        for span_id, name, start, end, span_parent, _ in spans:
            self.spans.append(
                [renumber[span_id], name, start, end, renumber.get(span_parent, parent), job]
            )
        for key, value in counters.items():
            self.count(key, value)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw, _ in reversed(self._patches):
            setattr(owner, attr, raw)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------------

    def durations(self, name: str) -> "list[float]":
        return [span[3] - span[2] for span in self.spans if span[1] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def total_under(self, name: str, ancestor: str) -> float:
        """Summed duration of the ``name`` spans nested in an ``ancestor`` span."""
        by_id = {span[0]: span for span in self.spans}

        def nested(span) -> bool:
            parent = by_id.get(span[4])
            while parent is not None:
                if parent[1] == ancestor:
                    return True
                parent = by_id.get(parent[4])
            return False

        return sum(span[3] - span[2] for span in self.spans if span[1] == name and nested(span))

    def self_times(self) -> "dict[str, float]":
        """Per span name: duration minus the part its children cover."""
        children: "dict[int, list[tuple[float, float]]]" = {}
        for span in self.spans:
            if span[4] is not None:
                children.setdefault(span[4], []).append((span[2], span[3]))
        totals: "dict[str, float]" = {}
        for span_id, name, start, end, _, _ in self.spans:
            covered = _union_length(children.get(span_id, ()), start, end)
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def coverage(self, windows: "list[tuple[float, float]]", prefix: str = "bench.") -> float:
        """Share of the ``windows`` under spans whose name lacks ``prefix``."""
        layer = [(s[2], s[3]) for s in self.spans if not s[1].startswith(prefix)]
        spent = sum(end - start for start, end in windows)
        covered = sum(_union_length(layer, start, end) for start, end in windows)
        return covered / spent if spent > 0 else 0.0

    def dump(self, path) -> None:
        names = ("id", "name", "start", "end", "parent", "job")
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": [dict(zip(names, span)) for span in self.spans],
                    "self_s": self.self_times(),
                    "counters": self.counters,
                },
                handle,
                default=str,
            )


def _union_length(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted((max(a, low), min(b, high)) for a, b in intervals if b > low and a < high)
    covered = 0.0
    cursor = low
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered
