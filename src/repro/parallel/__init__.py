"""Process-parallel execution over zero-copy shared-memory snapshots.

The GIL serializes the Python-level beam-walk loops that dominate
ACORN-γ traversal, so threads cannot share a batch's work (measured:
0.54–0.63x of the inline loop).  This package is the one fan-out that
pays: an epoch's read-only arrays are frozen into a named shared-memory
:class:`SnapshotArena`, a persistent spawn-based :class:`ProcessPool`
maps them zero-copy, and workers run the library's *own* search methods
over index objects decoded from the block by the decoder ``load_index``
uses — so ``executor="process"`` results are byte-identical to the
inline ``"sync"`` path.  See
``docs/parallelism.md``.
"""

from repro.parallel.arena import (
    ArenaManager,
    ArenaRecord,
    SnapshotArena,
    attach_arena,
    parallel_available,
)
from repro.parallel.pool import ProcessPool, RemoteError, WorkerCrash
from repro.parallel.snapshot import (
    UnsupportedSearcher,
    snapshot_refs,
    snapshot_token,
)
from repro.persistence import (
    COPY_FIXUPS,
    canonical_array,
    reset_fixup_counters,
)

EXECUTORS = ("sync", "process")


def resolve_executor(executor: str) -> str:
    """Validate an ``executor=`` argument."""
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; choose from {EXECUTORS}"
        )
    return executor


__all__ = [
    "ArenaManager",
    "ArenaRecord",
    "COPY_FIXUPS",
    "EXECUTORS",
    "ProcessPool",
    "RemoteError",
    "SnapshotArena",
    "UnsupportedSearcher",
    "WorkerCrash",
    "attach_arena",
    "canonical_array",
    "parallel_available",
    "reset_fixup_counters",
    "resolve_executor",
    "snapshot_refs",
    "snapshot_token",
]
