"""Which searchers reach worker processes, and under which epoch token.

A worker receives an index as its image — the same
:func:`~repro.persistence.encode_index` arrays ``save_index`` writes,
in a shared-memory :class:`~repro.parallel.arena.SnapshotArena` — and
rebuilds it with :func:`~repro.persistence.decode_index`, whose store
and frozen CSR are views straight into the shared block.  Because
workers then execute the exact same search methods over byte-identical
arrays, process-parallel results match the inline path bit for bit —
the determinism contract ``docs/parallelism.md`` documents and the
equivalence suite pins.

Searchers outside the supported set (HNSW, routers, lifecycle indices
whose epoch state lives in Python objects, sharded indexes, unknown
subclasses) raise :class:`UnsupportedSearcher`; the engine catches it
and runs the batch inline instead.
"""

from __future__ import annotations

from repro.core.acorn import AcornIndex, AcornOneIndex
from repro.core.flat import FlatAcornIndex


class UnsupportedSearcher(RuntimeError):
    """The searcher cannot be shipped to worker processes.

    Raised by :func:`snapshot_token`; callers treat it as "run the batch
    inline", never as an error.
    """


#: Exact types of process-executable searchers.  Exact on purpose: an
#: unknown subclass may carry Python-side state the image would
#: silently drop, so it must run inline.
_PROCESS_TYPES = (AcornIndex, AcornOneIndex, FlatAcornIndex)


def snapshot_token(searcher) -> str:
    """Cheap epoch identity for one searcher's current frozen state.

    Built from the object identities of the frozen snapshot and the
    vector buffer plus the tombstone version — each of which changes
    whenever search-visible state changes (``add`` invalidates
    ``_frozen``, deletes bump ``_deleted_version``).  The arena record
    pins those same objects, so a live token can never collide via id
    reuse.

    Raises:
        UnsupportedSearcher: for searcher types outside the registry or
            an empty index (nothing to ship; the sync path answers
            empty batches anyway).
    """
    if type(searcher) not in _PROCESS_TYPES:
        raise UnsupportedSearcher(
            f"{type(searcher).__name__} is not process-executable"
        )
    if len(searcher.store) == 0 or len(searcher.graph) == 0:
        raise UnsupportedSearcher("empty index has no snapshot to share")
    frozen = searcher.freeze()
    return (
        f"{type(searcher).__name__}:{id(searcher):x}:f{id(frozen):x}:"
        f"d{searcher._deleted_version}:n{len(searcher.store)}:"
        f"b{id(searcher.store._data):x}"
    )


def snapshot_refs(searcher) -> tuple:
    """The objects a live arena record must pin (see token docstring)."""
    return (searcher, searcher._frozen, searcher.store._data)
