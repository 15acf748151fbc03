"""In-memory spans around calls into the library's layers.

The tracer replaces public module attributes (``binalloc.dynamics.anneal``,
``numpy.linalg.eigh``, ...) with timing wrappers for the duration of a
``with tracer.patched(...)`` block, so the library itself is unchanged and
the untraced path carries no timers. Each span is
``[name, start, end, parent, solve]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``solve`` identifies the solve the span
belongs to (-1 outside any solve).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import time
from unittest import mock


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._solves = 0
        self._origin = time.perf_counter()

    def _open(self, name, solve):
        parent = self._stack[-1] if self._stack else -1
        if solve:
            sid = self._solves
            self._solves += 1
        else:
            sid = self.spans[parent][4] if parent >= 0 else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, sid])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name, solve=False):
        """A span opened by the benchmark's own code."""
        self._open(name, solve)
        try:
            yield
        finally:
            self._close()

    def wrap(self, fn, name, solve=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name, solve)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Route each ``(module, attribute, span name, starts_solve)`` through a span."""
        with contextlib.ExitStack() as stack:
            for module, attr, name, solve in targets:
                wrapper = self.wrap(getattr(module, attr), name, solve)
                stack.enter_context(mock.patch.object(module, attr, wrapper))
            yield

    def write_csv(self, path):
        """One row per span; times in seconds from the tracer's creation."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "solve"])
            for i, (name, start, end, parent, solve) in enumerate(self.spans):
                writer.writerow(
                    [i, name, f"{start - self._origin:.9f}", f"{end - self._origin:.9f}", parent, solve]
                )


def span_or_nothing(tracer, name):
    """The benchmark's own span when tracing, otherwise a no-op context."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def layer_times(spans, solve_names):
    """Time per span name, and the solve spans' time split into children and self.

    Returns ``(totals, inside, inside_calls, solve_s, solve_self_s)``:
    ``totals`` sums every span of a name that is not nested in a span of the
    same name; ``inside``/``inside_calls`` count only spans whose parent is a
    solve span (a name in ``solve_names``); ``solve_self_s`` is the solve
    spans' duration minus their children's.
    """
    totals, inside, inside_calls = {}, {}, {}
    solve_s = 0.0
    child_s = 0.0
    for name, start, end, parent, _ in spans:
        dur = end - start
        pname = spans[parent][0] if parent >= 0 else None
        if pname != name:
            totals[name] = totals.get(name, 0.0) + dur
        if name in solve_names and pname not in solve_names:
            solve_s += dur
        if pname in solve_names:
            inside[name] = inside.get(name, 0.0) + dur
            inside_calls[name] = inside_calls.get(name, 0) + 1
            child_s += dur
    return totals, inside, inside_calls, solve_s, solve_s - child_s
