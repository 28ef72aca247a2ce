"""Zero-copy shared-memory snapshots for process-parallel search.

A :class:`SnapshotArena` packs one epoch's read-only arrays — CSR
``indptr``/``indices`` per level, float32 vectors, norms,
tombstone masks — into a single named ``multiprocessing.shared_memory``
block.  Worker processes map the block and reconstruct numpy views at
recorded offsets, so the traversal hot path reads the *same physical
pages* as the parent: no pickling, no copies, no per-worker duplication
of the index payload.

Layout: arrays are packed back-to-back at 64-byte-aligned offsets
(cache-line aligned, so a view never straddles a line shared with its
neighbor's tail).  A manifest — one :class:`ArraySpec` per array with
name, offset, shape, dtype, and a sha256 stamp over the bytes — travels
to workers as a small pickle; attaching verifies the stamps, so a
corrupt or torn mapping names the broken array instead of silently
serving garbage adjacency.

Freeze-time hygiene (the GEMM kernels and this arena both need it):
:func:`canonical_array` enforces C-contiguity and the declared dtype,
copying *once* with a counted warning when an input violates the
contract — e.g. a Fortran-ordered or float64 vector matrix smuggled in
through ``VectorStore`` internals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import secrets
import threading
import warnings
from multiprocessing import shared_memory

import numpy as np

_ALIGN = 64

#: Arrays silently copied into canonical (C-contiguous, declared-dtype)
#: form at freeze time, by role name.  A correctness backstop that is
#: expected to stay empty: every producer in the library already emits
#: canonical arrays, and each role warns at most once per process.
COPY_FIXUPS: dict[str, int] = {}

_WARNED: set[str] = set()
_FIXUP_LOCK = threading.Lock()


def reset_fixup_counters() -> None:
    """Clear the freeze-time copy counters (test isolation hook)."""
    with _FIXUP_LOCK:
        COPY_FIXUPS.clear()
        _WARNED.clear()


def canonical_array(
    name: str, array: np.ndarray, dtype=None
) -> np.ndarray:
    """Return ``array`` as C-contiguous with the declared dtype.

    The no-copy path is the contract; a violation (wrong dtype, Fortran
    order, or a strided view) is repaired with one copy, counted in
    :data:`COPY_FIXUPS` and warned once per role so the producer can be
    fixed at the source.
    """
    array = np.asarray(array)
    want = array.dtype if dtype is None else np.dtype(dtype)
    if array.dtype == want and array.flags.c_contiguous:
        return array
    with _FIXUP_LOCK:
        COPY_FIXUPS[name] = COPY_FIXUPS.get(name, 0) + 1
        first = name not in _WARNED
        _WARNED.add(name)
    if first:
        warnings.warn(
            f"snapshot array {name!r} was {array.dtype}/"
            f"{'C' if array.flags.c_contiguous else 'non-contiguous'} "
            f"instead of {want}/C-contiguous; copied once at freeze "
            "time — fix the producer to avoid the copy",
            RuntimeWarning,
            stacklevel=2,
        )
    return np.ascontiguousarray(array, dtype=want)


@dataclasses.dataclass(frozen=True)
class ArraySpec:
    """Where one array lives inside an arena block.

    Attributes:
        name: role name (``"vectors"``, ``"L0.indices"``, ...).
        offset: byte offset of the array's first element in the block.
        shape: array shape.
        dtype: numpy dtype string (``np.dtype(spec.dtype)`` rebuilds it).
        sha256: hex digest over the array's packed bytes.
    """

    name: str
    offset: int
    shape: tuple
    dtype: str
    sha256: str

    @property
    def nbytes(self) -> int:
        """Payload size in bytes."""
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _digest(view: np.ndarray) -> str:
    return hashlib.sha256(view.tobytes()).hexdigest()


class SnapshotArena:
    """One epoch's arrays frozen into a named shared-memory block.

    Build with :meth:`create` in the publishing process; workers attach
    through :func:`attach_arena` using the picklable :meth:`manifest`.
    The creating side owns the block's lifetime (:meth:`unlink`);
    attachments only unmap (:meth:`close`).
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        specs: dict[str, ArraySpec],
        token: str,
        owner: bool,
    ) -> None:
        self.shm = shm
        self.specs = specs
        self.token = token
        self._owner = owner
        self._views: dict[str, np.ndarray] = {}
        self._closed = False

    @classmethod
    def create(
        cls, arrays: dict[str, np.ndarray], token: str
    ) -> "SnapshotArena":
        """Pack ``arrays`` into a fresh shared-memory block.

        Every array passes through :func:`canonical_array` (with its own
        dtype as the declared one — producers canonicalize dtypes before
        handing arrays here), so the block holds a dense C-order image
        that views reconstruct without any deserialization step.
        """
        packed: dict[str, np.ndarray] = {}
        offset = 0
        layout: list[tuple[str, int, np.ndarray]] = []
        for name in sorted(arrays):
            arr = canonical_array(name, arrays[name])
            offset = _aligned(offset)
            layout.append((name, offset, arr))
            packed[name] = arr
            offset += arr.nbytes
        total = max(offset, 1)
        name = f"repro-arena-{os.getpid():x}-{secrets.token_hex(6)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        specs: dict[str, ArraySpec] = {}
        for role, off, arr in layout:
            dest = np.ndarray(arr.shape, dtype=arr.dtype,
                              buffer=shm.buf, offset=off)
            dest[...] = arr
            specs[role] = ArraySpec(
                name=role, offset=off, shape=tuple(arr.shape),
                dtype=arr.dtype.str, sha256=_digest(dest),
            )
        return cls(shm, specs, token, owner=True)

    def manifest(self) -> dict:
        """Picklable description workers attach from."""
        return {
            "shm_name": self.shm.name,
            "token": self.token,
            "size": self.shm.size,
            "arrays": [dataclasses.asdict(s) for s in self.specs.values()],
        }

    def view(self, name: str) -> np.ndarray:
        """Read-only view of one packed array (cached)."""
        got = self._views.get(name)
        if got is None:
            spec = self.specs[name]
            got = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                             buffer=self.shm.buf, offset=spec.offset)
            got.flags.writeable = False
            self._views[name] = got
        return got

    def views(self) -> dict[str, np.ndarray]:
        """All packed arrays as read-only views."""
        return {name: self.view(name) for name in self.specs}

    @property
    def nbytes(self) -> int:
        """Size of the shared block in bytes."""
        return self.shm.size

    def verify(self) -> None:
        """Re-hash every array against its manifest stamp.

        Raises:
            ValueError: naming the first array whose bytes do not match
                its sha256 stamp.
        """
        for name, spec in self.specs.items():
            actual = _digest(self.view(name))
            if actual != spec.sha256:
                raise ValueError(
                    f"arena {self.shm.name!r} array {name!r} failed its "
                    f"sha256 check (expected {spec.sha256[:12]}..., got "
                    f"{actual[:12]}...)"
                )

    def close(self) -> None:
        """Unmap the block (idempotent).  Views become invalid."""
        if self._closed:
            return
        self._closed = True
        self._views.clear()
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


def attach_arena(manifest: dict, verify: bool = True) -> SnapshotArena:
    """Map a published arena from its :meth:`SnapshotArena.manifest`.

    Args:
        manifest: the creator's manifest dict.
        verify: re-hash every array against its sha256 stamp (one pass
            over the block at pin time; catches corrupt mappings before
            any query reads them).
    """
    shm = _attach_untracked(manifest["shm_name"])
    specs = {
        entry["name"]: ArraySpec(
            name=entry["name"], offset=int(entry["offset"]),
            shape=tuple(entry["shape"]), dtype=entry["dtype"],
            sha256=entry["sha256"],
        )
        for entry in manifest["arrays"]
    }
    arena = SnapshotArena(shm, specs, manifest["token"], owner=False)
    if verify:
        try:
            arena.verify()
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
        spec: the searcher-reconstruction spec shipped alongside.
        refs: parent-side objects pinned for the record's lifetime so
            the ``id()``-based epoch token can never be recycled while
            this arena is live.
        refcount: in-flight batches reading the arena.
        retired: True once a newer epoch replaced this record; a
            retired record unlinks when its refcount drains.
    """

    arena: SnapshotArena
    spec: object
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

    def publish(
        self, token: str, arrays: dict[str, np.ndarray], spec,
        refs: tuple = (),
    ) -> ArenaRecord:
        """Freeze ``arrays`` as the new current epoch, retiring the old."""
        record = ArenaRecord(
            arena=SnapshotArena.create(arrays, token), spec=spec,
            refs=refs,
        )
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
