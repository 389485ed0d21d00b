"""Spans recorded from outside the program, and their self-time arithmetic.

A :class:`Tracer` patches callables that the program looks up at call
time (class methods, module attributes) with wrappers that record one
span each: ``[name, start_ns, end_ns, parent_index, thread_ident]``.
The parent is the innermost open span on the same thread, so spans a
service thread records have no parent in the client's tree.  Spans stay
in memory until the benchmark reads them, and it writes them out at
exit; :meth:`Tracer.restore` puts every original back, so a pass
without patches runs the program as is.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

Span = List[Any]  # [name, start_ns, end_ns, parent_index, thread_ident]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: List[tuple] = []

    # ----------------------------------------------------------- recording

    def _open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        span = [name, time.perf_counter_ns(), 0, parent,
                threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around the body (the benchmark's own roots)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span; ``on_result(tracer, result, args)``
        sees each return value, for counts taken where the work happens."""
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(self, result, args)
            return result
        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ patching

    def patch(self, owner: Any, attr: str, name: str,
              on_result: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a class or module) by a traced wrapper."""
        self.substitute(owner, attr,
                        lambda original: self.wrap(name, original, on_result))

    def substitute(self, owner: Any, attr: str,
                   make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until restore."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Forget recorded spans and counts (patches stay installed)."""
        with self._lock:
            self.spans = []
            self.counts = Counter()


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Seconds per span name, each span minus the time of its children.

    A parent's children nest inside it on its own thread, so over one
    root span the self times of the root and all its descendants add up
    exactly to the root's duration.
    """
    child_ns = [0] * len(spans)
    for _name, start, end, parent, _thread in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: Dict[str, int] = defaultdict(int)
    for index, (name, start, end, _parent, _thread) in enumerate(spans):
        totals[name] += (end - start) - child_ns[index]
    return {name: ns / 1e9 for name, ns in totals.items()}

