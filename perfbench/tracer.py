"""Spans around obsched's public functions, installed from outside the package.

The benchmark does not change ``src/``.  It replaces module attributes with
timing wrappers for the length of one traced pass and puts the originals
back afterwards.  A name is wrapped where it is *looked up*: ``index``
imports ``phi`` into its own namespace, so ``obsched.index.phi`` is wrapped
as well as ``obsched.dynamics.phi``.

Two kinds of wrapper:

* a *span* records ``(id, name, start, end, parent)`` for every call;
* a *leaf* is a per-step function (the variance map, ``CostFn.eval``, word
  tests, table lookups) called millions of times a pass.  Storing one record
  per call would cost more than the work measured, so leaf calls are folded
  into the innermost open span as a per-name ``[calls, seconds]`` total.
  A leaf called from inside another leaf (``phi`` calling ``phi0``) runs
  unwrapped, so each outer call counts once.

Self time is a span's duration minus the time covered by its child spans
and folded leaves; see :func:`self_times`.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    folded: dict = field(default_factory=dict)  # leaf name -> [calls, seconds]


ROOT = 0


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(ROOT + 1)
        self._stack: list[tuple[int, dict]] = [(ROOT, {})]
        self._in_leaf = False
        self._saved: list[tuple[object, str, object]] = []
        self._start = perf_counter()

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn: Callable, on_return: Optional[Callable] = None):
        """Wrap fn so each call records a span; on_return(tracer, result, args)."""
        tracer = self

        def wrapper(*args, **kwargs):
            sid = next(tracer._ids)
            parent = tracer._stack[-1][0]
            folded: dict = {}
            tracer._stack.append((sid, folded))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent, folded))
            if on_return is not None:
                on_return(tracer, result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn: Callable, on_call: Optional[Callable] = None):
        """Wrap a per-step fn; calls fold into the innermost open span.

        on_call(tracer, args) updates counters before the call.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args)
            tracer._in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._in_leaf = False
                folded = tracer._stack[-1][1]
                cell = folded.get(name)
                if cell is None:
                    folded[name] = [1, elapsed]
                else:
                    cell[0] += 1
                    cell[1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # -- installing -------------------------------------------------------

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace owner.attr by make(original); restore() puts it back."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        """Put back every patched name, last patched first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def close(self) -> None:
        """Restore the originals and record the root span.

        The root spans the tracer's life; its self time is the time spent
        outside every wrapped call, and it holds leaf calls made there.
        """
        self.restore()
        self.spans.append(Span(ROOT, "<root>", self._start, perf_counter(), None,
                               self._stack[0][1]))

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "folded": s.folded}) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name self time: duration minus child-span and folded-leaf time.

    A folded leaf's time is its own self time (leaves have no children).
    """
    covered: dict[int, float] = defaultdict(float)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
        for leaf, (_, seconds) in s.folded.items():
            covered[s.id] += seconds
            out[leaf] += seconds
    for s in spans:
        out[s.name] += (s.end - s.start) - covered[s.id]
    return dict(out)


def call_counts(spans: list[Span]) -> dict[str, int]:
    """Calls per name, spans and folded leaves alike."""
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        if s.id != ROOT:
            out[s.name] += 1
        for leaf, (calls, _) in s.folded.items():
            out[leaf] += calls
    return dict(out)

