"""Pluggable time sources for serving and lifecycle scheduling.

The serving layer's coalescing deadlines and token buckets, and the
background compactor's interval, read time through a :class:`Clock`
rather than calling :mod:`time` directly.  Production code uses
:class:`SystemClock`; tests substitute a :class:`FakeClock`, which only
moves when the test advances it — so admission decisions, batch
composition and compaction schedules replay bit-for-bit and no test
sleeps.
"""

from __future__ import annotations

import threading
import time


class Clock:
    """Interface: a monotonic time source.

    ``monotonic`` values are only compared against each other, never
    against wall-clock timestamps, so any monotonically non-decreasing
    float works.
    """

    def monotonic(self) -> float:
        """Seconds on a monotonically non-decreasing axis."""
        raise NotImplementedError


class SystemClock(Clock):
    """The real thing: ``time.monotonic``."""

    def monotonic(self) -> float:
        """Current ``time.monotonic()`` reading."""
        return time.monotonic()


class FakeClock(Clock):
    """Deterministic virtual clock for tests.

    Time moves only through :meth:`advance`; reads and advances are
    lock-protected, so a search on the serving dispatch thread reads a
    consistent value while the test thread advances it.

    Args:
        start: initial reading of :meth:`monotonic`.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def monotonic(self) -> float:
        """Current virtual time."""
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        """Move virtual time forward."""
        if seconds < 0:
            raise ValueError(f"cannot rewind a monotonic clock ({seconds})")
        with self._lock:
            self._now += float(seconds)
