"""Index maintenance: compacting tombstones (and new rows) into a fresh index.

Tombstones keep deletes cheap but waste space and relay traversal
through dead nodes; past some delete fraction an operator compacts.
Two routines produce the compacted index, both returning a *new* index
and never touching the old one:

- :func:`rebuild` constructs a fresh index of the same class and
  parameters over the live entities only, and returns the id remapping
  so callers can translate any ids they stored externally;
- :func:`fold` keeps the graph that already exists: it copies the
  surviving nodes' adjacency, repairs the lists that pointed at removed
  nodes, and ``add()``\\ s the new rows — construction is incremental
  (paper §5), so folding a small change costs that change, not the
  index.  The copy reads the old base's frozen CSR (the arrays every
  search walks and every image stores): a level's edges are remapped
  by one gather and the removed ones dropped by one compress, and the
  lists are cut per node, so the copy runs no Python per edge.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.attributes.table import AttributeTable, subset_table
from repro.core.acorn import AcornIndex, AcornOneIndex
from repro.core.flat import FlatAcornIndex
from repro.hnsw.graph import LayeredGraph, csr_rows
from repro.vectors.distance import smallest_k
from repro.vectors.store import VectorStore


def live_subset(
    index: AcornIndex,
) -> tuple[np.ndarray, np.ndarray, AttributeTable]:
    """The index's live entities in ascending-id order.

    Returns ``(keep, vectors, table)``: the kept old ids, their vectors,
    and a fresh table of their rows — the input :func:`rebuild` feeds to
    ``build``.  (The online compactor,
    :meth:`repro.lifecycle.manager.LifecycleIndex.compact`, assembles
    the same thing from its own cut — its tombstones live outside the
    base — with the same :func:`~repro.attributes.table.subset_table`.)
    """
    keep = np.asarray(
        [node for node in range(len(index)) if not index.is_deleted(node)],
        dtype=np.int64,
    )
    return keep, index.store.vectors[keep], subset_table(index.table, keep)


def _variant_kwargs(index: AcornIndex) -> dict:
    """The constructor / ``build`` keywords that reproduce ``index``'s
    class-specific parameters."""
    if isinstance(index, AcornOneIndex):
        # ACORN-1's constructor derives its fixed params from (m, efc).
        return {"m": index.params.m,
                "ef_construction": index.params.ef_construction,
                "metric": index.metric}
    return {"params": index.params, "metric": index.metric}


def build_like(
    index: AcornIndex,
    vectors: np.ndarray,
    table: AttributeTable,
    seed: int | np.random.Generator | None = 0,
) -> AcornIndex:
    """Build ``vectors``/``table`` from scratch with ``index``'s class,
    parameters and metric."""
    return type(index).build(
        vectors, table, seed=seed, **_variant_kwargs(index),
    )


def rebuild(
    index: AcornIndex,
    seed: int | np.random.Generator | None = 0,
) -> tuple[AcornIndex, np.ndarray]:
    """Compact an index: drop tombstoned entities, rebuild the graph.

    Args:
        index: any ACORN-family index (γ / 1 / flat).
        seed: level-assignment seed for the new build.

    Returns:
        (new_index, id_map): the fresh index, plus an int64 array where
        ``id_map[old_id]`` is the entity's new id, or -1 if it was
        deleted.
    """
    keep, vectors, table = live_subset(index)
    id_map = np.full(len(index), -1, dtype=np.int64)
    id_map[keep] = np.arange(keep.shape[0])
    kwargs = _variant_kwargs(index)
    if index._labels is not None:
        # Metadata-aware pruning (Figure 12) needs the kept rows' labels.
        kwargs["labels"] = index._labels[keep]
    return type(index).build(vectors, table, seed=seed, **kwargs), id_map


def fold(
    index: AcornIndex,
    keep: np.ndarray,
    vectors: np.ndarray,
    table: AttributeTable,
) -> AcornIndex:
    """Compact ``index`` incrementally into a new index; ``index`` is
    only read.

    The surviving nodes ``keep`` get dense new ids in order and bring
    their adjacency lists and edge distances along; every survivor that
    pointed at a removed node is offered that node's own surviving
    out-neighbours in exchange (admitted through
    :meth:`AcornIndex._add_reverse_edge`, so caps and Mβ re-pruning are
    construction's rules); then the rows of ``vectors`` past
    ``len(keep)`` are ``add()``\\ ed in order.  The level generator's
    state is carried over, so with nothing removed the result is the
    graph a sequential build of all the rows would have produced, byte
    for byte; with removals it is a different graph of the same quality
    (tests/lifecycle/test_fold_compaction.py pins both).

    The survivors' lists are cut from ``index``'s frozen CSR: per level
    one gather remaps every edge, one compress drops the removed ones,
    and the row splitter a decoded image uses
    (:func:`~repro.hnsw.graph.csr_rows`) hands out the lists — no
    per-edge Python.

    Args:
        keep: ascending ids of ``index``'s nodes to keep.
        vectors: the new index's vectors — the kept nodes' first, then
            the rows to insert.
        table: attribute rows aligned with ``vectors``.

    Returns:
        The new index, unfrozen.
    """
    n_keep = int(keep.shape[0])
    new = type(index)(vectors.shape[1], table, **_variant_kwargs(index))
    new.store = VectorStore.from_array(vectors[:n_keep], metric=index.metric)
    new._levels = copy.deepcopy(index._levels)
    remap = np.full(len(index), -1, dtype=np.int64)
    remap[keep] = np.arange(n_keep)
    # The lists are gathered from object arrays, so every edge to a node
    # shares one int object and every distance stays the old base's
    # float object: the new graph costs its lists' pointers, no more.
    new_ids = np.empty(len(index), dtype=object)
    new_ids[:] = remap.tolist()

    frozen = index._adjacency()
    node_levels = np.zeros(len(index), dtype=np.int64)
    for level, csr in enumerate(frozen[1:], 1):
        node_levels[csr.node_ids] = level
    node_levels = node_levels[keep]
    adjacency, edge_dists = [], []
    heirs = []  # per level: {removed old id: its surviving out-neighbours}
    orphaned = []  # (level, new id, removed old out-neighbours)
    for level in range(int(node_levels.max()) + 1 if n_keep else 0):
        csr = frozen[level]
        nodes = csr.node_ids
        counts = csr.indptr[nodes + 1] - csr.indptr[nodes]
        kept = remap[csr.indices] >= 0  # edges to a surviving node
        edge_node = np.repeat(np.arange(nodes.size), counts)
        kept_counts = np.bincount(edge_node[kept], minlength=nodes.size)
        kept_at = _offsets(kept_counts)
        owners = remap[nodes]
        live = owners >= 0
        hit = live & (kept_counts < counts)
        lists = new_ids[csr.indices[kept]].tolist()
        dists = index._csr_edge_dists(level, csr, dtype=object)
        dists = dists[kept].tolist()
        survivors = owners[live].tolist()
        adjacency.append(_cut(survivors, lists, kept_at, live))
        edge_dists.append(_cut(survivors, dists, kept_at, live))
        heirs.append(_cut(nodes[~live].tolist(), lists, kept_at, ~live))
        lost = _cut(owners[hit].tolist(), csr.indices[~kept].tolist(),
                    _offsets(counts - kept_counts), hit)
        orphaned.extend((level, owner, ids) for owner, ids in lost.items())

    flat = isinstance(new, FlatAcornIndex)
    entry = -1
    if n_keep:
        entry = int(remap[index.graph.entry_point])
        if flat or entry < 0:
            # What a sequential build over the survivors would hold: the
            # first node to have reached the top level (a flat build
            # anchors at node 0 and re-anchors once it is done).
            entry = min(adjacency[-1])
    new.graph = LayeredGraph.from_adjacency(node_levels.tolist(), adjacency,
                                            entry)
    new._edge_dists = edge_dists
    if n_keep:
        _repair(new, heirs, orphaned)
    for vector in vectors[n_keep:]:
        new.add(vector)
    if flat:
        new.reanchor_entry_point()
    return new


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets of rows ``counts`` long (a leading 0)."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _cut(keys: list, values: list, offsets: np.ndarray, rows) -> dict:
    """``{key: its row of values}`` for the ``rows`` (a mask over the
    CSR's rows) that ``keys`` name, in order."""
    return csr_rows(keys, values, offsets[:-1][rows], offsets[1:][rows])


def _repair(new, heirs, orphaned) -> None:
    """Give each survivor that lost ``k`` out-edges the ``k`` nearest
    surviving out-neighbours (``heirs``) of the nodes it lost.

    Without this a chain of folds thins the neighbourhoods around every
    delete and recall drifts down cycle by cycle (EXPERIMENTS.md, "Fold
    vs rebuild compaction"); a removed node's own neighbours are the
    local candidates HNSW-style delete repair reconnects through.
    """
    computer = new.store.computer()
    computer.defer_counts()
    base = computer.base
    try:
        for level, owner, lost in orphaned:
            pool = set()
            for gone in lost:
                pool.update(heirs[level][gone])
            pool.discard(owner)
            pool.difference_update(new.graph.neighbors(owner, level))
            if not pool:
                continue
            cands = np.fromiter(pool, dtype=np.intp, count=len(pool))
            # Ties break on the id, so the set's order never shows.
            dists, picks = smallest_k(
                computer.distances_to(base[owner], cands), cands, len(lost))
            # The pool holds neither the owner nor its list and the picks
            # are distinct, so no pick can already be in the list.
            for dist, cand in zip(dists.tolist(), picks.tolist()):
                new._add_reverse_edge(computer, owner, cand, dist, level,
                                      fresh=True)
    finally:
        computer.flush_counts()
