"""Pluggable time sources for deadline and backoff logic.

Everything in the resilience layer (per-shard deadlines, retry
backoff, circuit-breaker reset windows) reads time through a
:class:`Clock` rather than calling :mod:`time` directly.  Production
code uses :class:`SystemClock`; the chaos test suite
substitutes a :class:`FakeClock`, whose ``sleep`` advances virtual time
instantly — so fault schedules with multi-second latency spikes run in
microseconds of wall time and are bit-for-bit deterministic.
"""

from __future__ import annotations

import threading
import time


class Clock:
    """Interface: a monotonic time source plus a sleep primitive.

    ``monotonic`` values are only compared against each other, never
    against wall-clock timestamps, so any monotonically non-decreasing
    float works.
    """

    def monotonic(self) -> float:
        """Seconds on a monotonically non-decreasing axis."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block (really or virtually) for ``seconds``."""
        raise NotImplementedError


class SystemClock(Clock):
    """The real thing: ``time.monotonic`` + ``time.sleep``."""

    def monotonic(self) -> float:
        """Current ``time.monotonic()`` reading."""
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        """Really sleep via ``time.sleep`` (no-op for non-positive)."""
        if seconds > 0:
            time.sleep(seconds)


class FakeClock(Clock):
    """Deterministic virtual clock for tests and chaos benchmarks.

    ``sleep`` advances virtual time atomically and returns immediately;
    ``advance`` does the same without the sleep framing.  All state
    transitions are lock-protected, so concurrent sleepers interleave
    safely (each advance is atomic), though per-thread *elapsed*
    measurements are only exact when probes run sequentially — the
    chaos suite therefore scatters shard probes on the calling thread.

    Args:
        start: initial reading of :meth:`monotonic`.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()
        self._slept = 0.0

    def monotonic(self) -> float:
        """Current virtual time."""
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        """Advance virtual time by ``seconds`` without blocking."""
        if seconds > 0:
            with self._lock:
                self._now += float(seconds)
                self._slept += float(seconds)

    def advance(self, seconds: float) -> None:
        """Move virtual time forward (e.g. to expire breaker windows)."""
        if seconds < 0:
            raise ValueError(f"cannot rewind a monotonic clock ({seconds})")
        with self._lock:
            self._now += float(seconds)

    @property
    def total_slept(self) -> float:
        """Virtual seconds spent inside :meth:`sleep` so far."""
        with self._lock:
            return self._slept
