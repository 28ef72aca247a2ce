"""In-memory span tracer used by the traced (``--trace 1``) run.

Spans are recorded from outside ``src/repro``: the benchmark wraps the
public functions at each layer boundary (``Tracer.patch``) and opens
explicit spans around its own calls (``Tracer.span``).  A span is
``[name, start, end, parent, op_id]``; ``parent`` is the index of the
enclosing span on the same thread (-1 for a root) and ``op_id`` the
operation the harness was issuing when the span opened.  Nothing is
written while measuring; ``write_jsonl`` dumps the list afterwards.

A layer's *self time* is its span's duration minus the durations of its
direct children, so self times summed over every span equal the summed
durations of the root spans.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, OP_ID = range(5)


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *_exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "op_id", "index")

    def __init__(self, tracer: "Tracer", name: str, op_id) -> None:
        self.tracer = tracer
        self.name = name
        self.op_id = op_id

    def __enter__(self) -> int:
        self.index = self.tracer._open(self.name, self.op_id)
        return self.index

    def __exit__(self, *_exc) -> bool:
        self.tracer._close(self.index)
        return False


class Tracer:
    """Records nested spans per thread; disabled tracers record nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[type, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, op_id) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if op_id is None and parent >= 0:
            op_id = self.spans[parent][OP_ID]
        record = [name, 0.0, 0.0, parent, op_id]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[START] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str, op_id=None):
        """Context manager recording one span (a no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, op_id)

    # -- wrapping public functions ---------------------------------------

    def patch(self, owner: type, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` so every call records a span ``name``.

        Class-level, so every instance (each shard's index, every epoch
        snapshot) is covered; ``restore`` puts the originals back.
        """
        if not self.enabled:
            return
        original = owner.__dict__[attr]
        func = original.__func__ if isinstance(original, classmethod) else original

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(name, None)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(index)

        setattr(owner, attr,
                classmethod(traced) if isinstance(original, classmethod) else traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every ``patch``."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; ``spans[mark:]`` is what follows."""
        return len(self.spans)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op_id": op_id,
                }) + "\n")


def self_times(spans: list[list], begin: int = 0, end: int | None = None) -> dict[str, float]:
    """Summed self time per span name over ``spans[begin:end]``."""
    end = len(spans) if end is None else end
    child_time: dict[int, float] = defaultdict(float)
    for index in range(begin, end):
        record = spans[index]
        if record[PARENT] >= begin:
            child_time[record[PARENT]] += record[END] - record[START]
    out: dict[str, float] = defaultdict(float)
    for index in range(begin, end):
        record = spans[index]
        out[record[NAME]] += record[END] - record[START] - child_time[index]
    return dict(out)


def durations(spans: list[list], name: str, begin: int = 0, end: int | None = None) -> list[float]:
    """Durations of every span called ``name`` in ``spans[begin:end]``."""
    end = len(spans) if end is None else end
    return [
        spans[i][END] - spans[i][START]
        for i in range(begin, end) if spans[i][NAME] == name
    ]
