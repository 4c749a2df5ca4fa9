"""Span recording around the program's public functions, from outside.

Nothing under ``src/`` knows about tracing: :class:`SpanRecorder` replaces
module or class attributes with timing wrappers and puts the originals back
on :meth:`SpanRecorder.restore`. Spans live in memory and are written out
once, when the traced process ends.

A span is ``[id, name, t0, t1, parent, nbytes]``. ``t0``/``t1`` come from
``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and therefore
comparable between the client and the server process. The parent is the
innermost open span on the same thread, or, for functions that receive a
``QuerySpec``, the open ``TsubasaService.submit`` span of that very spec
object: the service computes matrices on an executor thread and
post-processes in a task of its own, so neither thread nesting nor context
variables lead back to the request.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from collections.abc import Iterable
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_requests: dict[int, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _replace(self, owner: object, attr: str, wrapper: object) -> None:
        # Save the raw attribute (a classmethod/staticmethod descriptor stays
        # a descriptor) so restore() is exact.
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def wrap(self, owner: object, attr: str, name: str, *,
             spec_arg: int | None = None, size_of_result: bool = False) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``spec_arg`` is the positional index of a ``QuerySpec`` argument
        that links the span to its request; ``size_of_result`` records
        ``len()`` of the return value.
        """
        fn = getattr(owner, attr)
        stack_of = self._stack
        open_requests = self._open_requests
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = None
            if spec_arg is not None and len(args) > spec_arg:
                parent = open_requests.get(id(args[spec_arg]))
            if parent is None and stack:
                parent = stack[-1]
            span = [next(ids), name, clock(), 0.0, parent, 0]
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                spans.append(span)
            if size_of_result:
                span[5] = len(result)
            return result

        self._replace(owner, attr, wrapper)

    def wrap_request(self, owner: type, attr: str, name: str) -> None:
        """Time an ``async def method(self, spec)`` request entry point."""
        fn = getattr(owner, attr)
        open_requests = self._open_requests
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        async def wrapper(instance, spec):
            span = [next(ids), name, clock(), 0.0, None, 0]
            open_requests[id(spec)] = span[0]
            try:
                return await fn(instance, spec)
            finally:
                span[3] = clock()
                open_requests.pop(id(spec), None)
                spans.append(span)

        self._replace(owner, attr, wrapper)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` (exact, no timing)."""
        fn = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as a span."""
        stack = self._stack()
        span = [next(self._ids), name, time.perf_counter(), 0.0,
                stack[-1] if stack else None, 0]
        stack.append(span[0])
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load(path: str) -> list[list]:
    with open(path) as fh:
        return json.load(fh)


def self_times(spans: Iterable[list],
               windows: list[tuple[float, float]]) -> dict[str, dict[str, float]]:
    """Per span name: total self seconds, call count and result bytes.

    Only spans lying wholly inside one of ``windows`` (the timed phases)
    count. Self time is a span's duration minus its children's durations.
    """
    kept = [s for s in spans
            if any(lo <= s[2] and s[3] <= hi for lo, hi in windows)]
    child_time: dict[int, float] = defaultdict(float)
    for s in kept:
        if s[4] is not None:
            child_time[s[4]] += s[3] - s[2]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "bytes": 0}
    )
    for s in kept:
        entry = out[s[1]]
        entry["self_s"] += (s[3] - s[2]) - child_time.get(s[0], 0.0)
        entry["calls"] += 1
        entry["bytes"] += s[5]
    return out
