"""Searcher ⇄ arena translation: build specs, materialize workers' views.

:func:`build_snapshot` decomposes a built ACORN index into (a) a small
picklable :class:`IndexSpec` — parameters, entry point, level layout
— and (b) the big read-only arrays destined for a
:class:`~repro.parallel.arena.SnapshotArena`.  :func:`materialize`
inverts it inside a worker: a *real* ``AcornIndex`` /
``AcornOneIndex`` / ``FlatAcornIndex`` instance is reconstructed whose
store and frozen CSR levels are views straight into
the shared block.  Because workers then execute the exact same search
methods over byte-identical arrays, process-parallel results match the
inline path bit for bit — the determinism contract
``docs/parallelism.md`` documents and the equivalence suite pins.

Searchers outside the supported set (routers, lifecycle indices whose
epoch state lives in Python objects, fault-injection wrappers) raise
:class:`UnsupportedSearcher`; the engine catches it and runs the batch
inline instead.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np

from repro.core.acorn import AcornIndex, AcornOneIndex
from repro.core.flat import FlatAcornIndex
from repro.core.search import FrozenLevel
from repro.parallel.arena import canonical_array
from repro.vectors.distance import Metric
from repro.vectors.store import VectorStore


class UnsupportedSearcher(RuntimeError):
    """The searcher cannot be shipped to worker processes.

    Raised by :func:`snapshot_token` / :func:`build_snapshot`; callers
    treat it as "run the batch inline", never as an error.
    """


#: Exact-type registry of process-executable searchers.  Exact on
#: purpose: an unknown subclass may carry Python-side state the spec
#: would silently drop, so it must run inline instead.
_KINDS: dict[type, str] = {
    AcornIndex: "acorn",
    AcornOneIndex: "acorn1",
    FlatAcornIndex: "flat",
}
_CLASSES = {kind: cls for cls, kind in _KINDS.items()}


@dataclasses.dataclass(frozen=True)
class IndexSpec:
    """Everything a worker needs beyond the arena arrays.

    Attributes:
        kind: registry key naming the concrete index class.
        dim / n / n_rows: vector dim, stored vectors, table rows.
        metric: metric value string.
        entry_point / entry_level / graph_len: the graph stub's state.
        params: the index's ``AcornParams`` (picklable dataclass).
        levels: frozen levels whose raw CSR rides in the arena (each
            worker builds its own candidate rows as its walks expand
            nodes).
        has_norms: whether a cosine norm cache array is present.
    """

    kind: str
    dim: int
    n: int
    n_rows: int
    metric: str
    entry_point: int
    entry_level: int
    graph_len: int
    params: object
    levels: int
    has_norms: bool


class _GraphStub:
    """The slice of ``LayeredGraph`` the search path reads.

    Search needs the entry point, its level, and the node count;
    everything else lives in the frozen CSR snapshot.  Asking for any
    other node's level is a contract violation, not a fallback.
    """

    __slots__ = ("entry_point", "_entry_level", "_n")

    def __init__(self, entry_point: int, entry_level: int, n: int) -> None:
        self.entry_point = entry_point
        self._entry_level = entry_level
        self._n = n

    def __len__(self) -> int:
        return self._n

    def node_level(self, node_id: int) -> int:
        if node_id != self.entry_point:
            raise RuntimeError(
                "snapshot graph stub only knows the entry point's level; "
                f"asked for node {node_id}"
            )
        return self._entry_level


class _TableStub:
    """Length-only table stand-in.

    Workers receive predicates pre-compiled to masks, so the index's
    ``_compile`` only ever length-checks the table.  Anything that
    would *evaluate* a predicate must not reach a worker.
    """

    __slots__ = ("_n",)

    def __init__(self, n: int) -> None:
        self._n = n

    def __len__(self) -> int:
        return self._n


def searcher_kind(searcher) -> str | None:
    """The registry key for a process-executable searcher, else None."""
    return _KINDS.get(type(searcher))


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
    kind = searcher_kind(searcher)
    if kind is None:
        raise UnsupportedSearcher(
            f"{type(searcher).__name__} is not process-executable"
        )
    if len(searcher.store) == 0 or len(searcher.graph) == 0:
        raise UnsupportedSearcher("empty index has no snapshot to share")
    frozen = searcher.freeze()
    return (
        f"{kind}:{id(searcher):x}:f{id(frozen):x}:"
        f"d{searcher._deleted_version}:n{len(searcher.store)}:"
        f"b{id(searcher.store._data):x}"
    )


def snapshot_refs(searcher) -> tuple:
    """The objects a live arena record must pin (see token docstring)."""
    return (searcher, searcher._frozen, searcher.store._data)


def build_snapshot(searcher) -> tuple[IndexSpec, dict[str, np.ndarray]]:
    """Decompose one index into a spec and its arena-bound arrays.

    All arrays pass through
    :func:`~repro.parallel.arena.canonical_array` with their canonical
    dtypes (float32 vectors, int32 CSR, bool tombstones),
    so a mis-dtyped or Fortran-ordered producer is repaired — counted
    and warned — rather than shipped.
    """
    kind = searcher_kind(searcher)
    if kind is None:
        raise UnsupportedSearcher(
            f"{type(searcher).__name__} is not process-executable"
        )
    if len(searcher.store) == 0 or len(searcher.graph) == 0:
        raise UnsupportedSearcher("empty index has no snapshot to share")
    frozen = searcher.freeze()
    n = len(searcher.store)
    arrays: dict[str, np.ndarray] = {}
    arrays["vectors"] = canonical_array(
        "vectors", searcher.store.vectors, dtype=np.float32
    )
    has_norms = searcher.store.metric is Metric.COSINE
    if has_norms:
        arrays["norms"] = canonical_array("norms", searcher.store.base_norms())
    tombstones = np.zeros(n, dtype=bool)
    if searcher._deleted:
        tombstones[list(searcher._deleted)] = True
    arrays["tombstones"] = tombstones
    for lev, level in enumerate(frozen):
        arrays[f"L{lev}.indptr"] = canonical_array(
            f"L{lev}.indptr", level.indptr, dtype=np.int32
        )
        arrays[f"L{lev}.indices"] = canonical_array(
            f"L{lev}.indices", level.indices, dtype=np.int32
        )
        arrays[f"L{lev}.node_ids"] = canonical_array(
            f"L{lev}.node_ids", level.node_ids, dtype=np.int32
        )
    entry = searcher.graph.entry_point
    spec = IndexSpec(
        kind=kind,
        dim=searcher.store.dim,
        n=n,
        n_rows=len(searcher.table),
        metric=searcher.store.metric.value,
        entry_point=entry,
        entry_level=searcher.graph.node_level(entry),
        graph_len=len(searcher.graph),
        params=searcher.params,
        levels=len(frozen),
        has_norms=has_norms,
    )
    return spec, arrays


def _materialize_store(spec: IndexSpec, arrays) -> VectorStore:
    store = VectorStore.__new__(VectorStore)
    store.dim = spec.dim
    store.metric = Metric(spec.metric)
    store._data = arrays["vectors"]
    store._size = spec.n
    if spec.has_norms:
        store._norms = arrays["norms"]
        store._norm_size = spec.n
    else:
        store._norms = np.empty(0, dtype=np.float32)
        store._norm_size = 0
    return store


def materialize(spec: IndexSpec, arrays):
    """Reconstruct a searchable index over arena-backed array views.

    ``arrays`` is any mapping of role name → ndarray — an attached
    arena's :meth:`~repro.parallel.arena.SnapshotArena.views` in
    workers, or the raw freeze-time dict for in-process equivalence
    tests.  No array data is copied: the store and every frozen level
    reference the provided buffers directly; each level's row memo
    starts empty and fills as this process's walks expand nodes.
    """
    cls = _CLASSES[spec.kind]
    index = cls.__new__(cls)
    index.params = spec.params
    index.table = _TableStub(spec.n_rows)
    index.store = _materialize_store(spec, arrays)
    index.graph = _GraphStub(spec.entry_point, spec.entry_level,
                             spec.graph_len)
    index._frozen = [
        FrozenLevel(
            arrays[f"L{lev}.indptr"],
            arrays[f"L{lev}.indices"],
            arrays[f"L{lev}.node_ids"],
            index._level_m_beta(lev),
        )
        for lev in range(spec.levels)
    ]
    index._labels = None
    index._levels = None
    index._edge_dists = []
    deleted = np.flatnonzero(arrays["tombstones"])
    index._deleted = set(int(node) for node in deleted)
    index._deleted_version = 0
    index._mask_cache = {}
    index._mask_cache_lock = threading.Lock()
    return index
