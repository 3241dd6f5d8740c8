"""In-memory spans around the package's public functions.

Tracing is done from outside the package: each traced function is
replaced, in every module namespace that binds it, by a wrapper that
records a span (name, start, end, parent, op id) and calls through.
Each call of a traced function is counted once.  Functions that return
generators get a wrapper iterator, and each ``next`` on it is one span,
so the spans cover the work done and not the time the consumer holds
the generator.  Methods are patched on their class, which is where an
instance lookup resolves them.

A layer's self time is its span's duration minus the duration of its
direct children.  Spans from worker threads have no parent, because the
thread starts with an empty stack.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    """Collects spans; the harness sets ``op`` to the current operation index."""

    def __init__(self):
        self.spans = []  # (id, parent, op, name, start_ns, end_ns, thread)
        self.calls = defaultdict(int)  # (op, name) -> calls
        self.true_counts = defaultdict(int)  # (op, name) -> truthy results
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()  # worker threads count calls too

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, table=None) -> None:
        with self._lock:
            (self.calls if table is None else table)[(self.op, name)] += 1

    def span(self, name, fn, *args, **kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        op = self.op
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, op, name, start, end,
                               threading.get_ident()))

    def self_and_busy(self):
        """Yield (op, name, self_ns, busy_ns) for every finished span."""
        child_ns = defaultdict(int)
        for span in self.spans:
            if span[1] >= 0:
                child_ns[span[1]] += span[5] - span[4]
        for span in self.spans:
            busy = span[5] - span[4]
            yield span[2], span[3], busy - child_ns[span[0]], busy

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns,thread\n")
            for span in self.spans:
                fh.write(",".join(str(v) for v in span) + "\n")


class _TracedIterator:
    __slots__ = ("_tracer", "_name", "_it")

    def __init__(self, tracer, name, it):
        self._tracer, self._name, self._it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.span(self._name, next, self._it)


def _wrap_function(tracer, name, fn, iterates, count_true):
    def traced(*args, **kwargs):
        tracer.count(name)
        if iterates:
            return _TracedIterator(tracer, name, fn(*args, **kwargs))
        result = tracer.span(name, fn, *args, **kwargs)
        if count_true and result:
            tracer.count(name, tracer.true_counts)
        return result
    traced.__wrapped__ = fn
    return traced


class Patches:
    """Install and remove wrappers for a fixed list of targets.

    A target is (span name, owner, attribute, options).  For a module
    owner, every module in ``namespaces`` that binds the same object is
    patched too, so each caller sees the wrapper under the name it
    resolves.  Options: ``iterates`` for generator functions,
    ``count_true`` to count truthy results.
    """

    def __init__(self, tracer, targets, namespaces):
        self._saved = []
        self._wrappers = []
        for name, owner, attr, opts in targets:
            original = getattr(owner, attr)
            wrapper = _wrap_function(tracer, name, original,
                                     opts.get("iterates", False),
                                     opts.get("count_true", False))
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [ns for ns in namespaces
                           if getattr(ns, attr, None) is original]
            for holder in holders:
                self._saved.append((holder, attr, original))
                self._wrappers.append((holder, attr, wrapper))

    def install(self) -> None:
        for holder, attr, wrapper in self._wrappers:
            setattr(holder, attr, wrapper)

    def remove(self) -> None:
        for holder, attr, original in self._saved:
            setattr(holder, attr, original)
