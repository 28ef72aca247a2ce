"""Zero-copy shared-memory snapshots for process-parallel search.

A :class:`SnapshotArena` holds one epoch's index image — the bytes
:func:`~repro.persistence.save_index` would write to a file, laid out
by :func:`~repro.persistence.image_layout`: a header, a JSON manifest
(meta plus one name / offset / shape / dtype / sha256 entry per array),
then the arrays at 64-byte-aligned offsets — in a single named
``multiprocessing.shared_memory`` block.  Worker processes map the
block and read it with :func:`~repro.persistence.read_image`, which
verifies every sha256 and hands out read-only views at the recorded
offsets, so the traversal hot path reads the *same physical pages* as
the parent: no pickling, no copies, no per-worker duplication of the
index payload.  Only the block's name and the epoch token travel to
workers; a corrupt or torn mapping names the broken array instead of
silently serving garbage adjacency.
"""

from __future__ import annotations

import dataclasses
import os
import secrets
import threading
from multiprocessing import shared_memory

import numpy as np

from repro.persistence import image_layout, read_image


class SnapshotArena:
    """One epoch's index image in a named shared-memory block.

    Build with :meth:`create` in the publishing process; workers attach
    through :func:`attach_arena` using the picklable :meth:`handle`.
    The creating side owns the block's lifetime (:meth:`unlink`);
    attachments only unmap (:meth:`close`).
    """

    def __init__(self, shm: shared_memory.SharedMemory, token: str,
                 owner: bool) -> None:
        self.shm = shm
        self.token = token
        self._owner = owner
        self.meta: dict | None = None
        self._views: dict[str, np.ndarray] | None = None
        self._closed = False

    @classmethod
    def create(cls, image: tuple[dict, dict], token: str) -> "SnapshotArena":
        """Lay the ``(meta, arrays)`` image out in a fresh block."""
        size, pieces = image_layout(*image)
        name = f"repro-arena-{os.getpid():x}-{secrets.token_hex(6)}"
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(size, 1))
        arena = cls(shm, token, owner=True)
        block = arena._block()
        for offset, raw in pieces:
            block[offset:offset + raw.size] = raw
        return arena

    def handle(self) -> dict:
        """Picklable description workers attach from."""
        return {"shm_name": self.shm.name, "token": self.token}

    def _block(self) -> np.ndarray:
        # Built with ndarray(buffer=), which holds no export on the
        # mapping, so close() can always unmap; views must not be read
        # after it.
        return np.ndarray((self.shm.size,), dtype=np.uint8,
                          buffer=self.shm.buf)

    def views(self) -> dict[str, np.ndarray]:
        """All packed arrays as read-only views (verified once, cached)."""
        if self._views is None:
            self.meta, self._views = read_image(self._block(), self.source)
        return self._views

    def view(self, name: str) -> np.ndarray:
        """Read-only view of one packed array."""
        return self.views()[name]

    @property
    def source(self) -> str:
        """How errors name the block."""
        return f"arena {self.shm.name!r}"

    @property
    def nbytes(self) -> int:
        """Size of the shared block in bytes."""
        return self.shm.size

    def verify(self) -> None:
        """Re-hash the manifest and every array against their sha256.

        Raises:
            ~repro.persistence.ArchiveError: naming the arena and the
                first array whose bytes do not match (a ``ValueError``).
        """
        read_image(self._block(), self.source)

    def close(self) -> None:
        """Unmap the block (idempotent).  Views become invalid."""
        if self._closed:
            return
        self._closed = True
        self._views = self.meta = None
        self.shm.close()

    def unlink(self) -> None:
        """Destroy the block (owner side; idempotent, unmaps first)."""
        self.close()
        if self._owner:
            self._owner = False
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass

    def __del__(self) -> None:
        try:
            self.unlink() if self._owner else self.close()
        except Exception:
            pass


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without resource-tracker adoption.

    On Python < 3.13 every ``SharedMemory(name=...)`` attachment
    registers the segment with the resource tracker, which unlinks it
    when the attaching process is deemed to have leaked it — a crashing
    worker would destroy the arena under everyone else.  Suppressing
    the registration during attach restores "creator owns the
    lifetime" semantics (3.13's ``track=False``, backported).
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach_arena(handle: dict) -> SnapshotArena:
    """Map a published arena from its :meth:`SnapshotArena.handle`,
    verifying every array's sha256 before any query reads it."""
    arena = SnapshotArena(_attach_untracked(handle["shm_name"]),
                          handle["token"], owner=False)
    try:
        arena.views()
    except Exception:
        arena.close()
        raise
    return arena


def parallel_available() -> bool:
    """Whether this platform can serve shared-memory arenas at all.

    Probes by round-tripping a tiny block; False (e.g. no ``/dev/shm``
    mount, seccomp-denied ``shm_open``) makes ``executor="process"``
    engines run their batches inline (a counted fallback).
    """
    try:
        shm = shared_memory.SharedMemory(
            name=f"repro-probe-{os.getpid():x}-{secrets.token_hex(4)}",
            create=True, size=64,
        )
    except Exception:
        return False
    try:
        shm.buf[0] = 42
        ok = shm.buf[0] == 42
    except Exception:
        ok = False
    finally:
        shm.close()
        try:
            shm.unlink()
        except Exception:
            pass
    return ok


@dataclasses.dataclass
class ArenaRecord:
    """One published arena plus the bookkeeping the manager needs.

    Attributes:
        arena: the shared block.
        refs: parent-side objects pinned for the record's lifetime so
            the ``id()``-based epoch token can never be recycled while
            this arena is live.
        refcount: in-flight batches reading the arena.
        retired: True once a newer epoch replaced this record; a
            retired record unlinks when its refcount drains.
    """

    arena: SnapshotArena
    refs: tuple
    refcount: int = 0
    retired: bool = False

    @property
    def token(self) -> str:
        """The epoch token the arena was published under."""
        return self.arena.token


class ArenaManager:
    """Publish/retire lifecycle for a searcher's snapshot arenas.

    One manager per engine.  ``publish`` freezes a
    new epoch and retires the previous one; retired arenas are
    refcounted and unlink only when their last in-flight batch
    releases, so compaction (the PR 9 lifecycle) can swap epochs while
    older batches finish on the old pages.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current: ArenaRecord | None = None
        self._retired: list[ArenaRecord] = []
        self.published = 0
        self.retired_unlinked = 0

    @property
    def current(self) -> ArenaRecord | None:
        """The live record, or None before the first publish."""
        return self._current

    def publish(self, token: str, image: tuple[dict, dict],
                refs: tuple = ()) -> ArenaRecord:
        """Lay ``image`` (an :func:`~repro.persistence.encode_index`
        pair) out as the new current epoch, retiring the old."""
        record = ArenaRecord(arena=SnapshotArena.create(image, token),
                             refs=refs)
        with self._lock:
            old = self._current
            self._current = record
            self.published += 1
            if old is not None:
                old.retired = True
                if old.refcount == 0:
                    old.arena.unlink()
                    self.retired_unlinked += 1
                else:
                    self._retired.append(old)
        return record

    def acquire(self, record: ArenaRecord) -> ArenaRecord:
        """Pin a record for one in-flight batch."""
        with self._lock:
            record.refcount += 1
        return record

    def release(self, record: ArenaRecord) -> None:
        """Drop a batch's pin; unlinks the arena if retired and drained."""
        with self._lock:
            record.refcount -= 1
            if record.retired and record.refcount <= 0:
                record.arena.unlink()
                if record in self._retired:
                    self._retired.remove(record)
                self.retired_unlinked += 1

    def live_arenas(self) -> int:
        """Arenas currently holding shared memory (current + draining)."""
        with self._lock:
            return (1 if self._current is not None else 0) + len(self._retired)

    def close(self) -> None:
        """Unlink everything (idempotent); in-flight readers be damned —
        callers drain batches before closing."""
        with self._lock:
            records = ([self._current] if self._current is not None else [])
            records += self._retired
            self._current = None
            self._retired = []
        for record in records:
            record.arena.unlink()
