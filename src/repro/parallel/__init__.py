"""Process-parallel execution over zero-copy shared-memory snapshots.

The GIL serializes the Python-level beam-walk loops that dominate
ACORN-γ traversal, so threads cannot share a batch's work (measured:
0.54–0.63x of the inline loop).  This package is the one fan-out that
pays: an epoch's read-only arrays are frozen into a named shared-memory
:class:`SnapshotArena`, a persistent spawn-based :class:`ProcessPool`
maps them zero-copy, and workers run the library's *own* search methods
over reconstructed index objects — so ``executor="process"`` results
are byte-identical to the inline ``"sync"`` path.  See
``docs/parallelism.md``.
"""

from repro.parallel.arena import (
    COPY_FIXUPS,
    ArenaManager,
    ArenaRecord,
    ArraySpec,
    SnapshotArena,
    attach_arena,
    canonical_array,
    parallel_available,
    reset_fixup_counters,
)
from repro.parallel.pool import ProcessPool, RemoteError, WorkerCrash
from repro.parallel.snapshot import (
    IndexSpec,
    UnsupportedSearcher,
    build_snapshot,
    materialize,
    searcher_kind,
    snapshot_refs,
    snapshot_token,
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
    "ArraySpec",
    "COPY_FIXUPS",
    "EXECUTORS",
    "IndexSpec",
    "ProcessPool",
    "RemoteError",
    "SnapshotArena",
    "UnsupportedSearcher",
    "WorkerCrash",
    "attach_arena",
    "build_snapshot",
    "canonical_array",
    "materialize",
    "parallel_available",
    "reset_fixup_counters",
    "resolve_executor",
    "searcher_kind",
    "snapshot_refs",
    "snapshot_token",
]
