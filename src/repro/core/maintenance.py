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
  index.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.attributes.table import AttributeTable, subset_table
from repro.core.acorn import AcornIndex, AcornOneIndex
from repro.core.flat import FlatAcornIndex
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
    parameters, metric and quantization config (codes retrained over
    ``vectors``, as if built with ``quantization=`` directly)."""
    new_index = type(index).build(
        vectors, table, seed=seed, **_variant_kwargs(index),
    )
    if index.quantization is not None:
        # enable_quantization retrains the codec over the live vectors —
        # byte-identical to building with quantization= up front, and it
        # works uniformly across the family (flat builds lack the kwarg).
        new_index.enable_quantization(index.quantization)
    return new_index


def rebuild(
    index: AcornIndex,
    seed: int | np.random.Generator | None = 0,
) -> tuple[AcornIndex, np.ndarray]:
    """Compact an index: drop tombstoned entities, rebuild the graph.

    Quantization state survives the rebuild: a quantized source yields
    a quantized result with the same config.

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
    return build_like(index, vectors, table, seed), id_map


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

    Args:
        keep: ascending ids of ``index``'s nodes to keep.
        vectors: the new index's vectors — the kept nodes' first, then
            the rows to insert.
        table: attribute rows aligned with ``vectors``.

    Returns:
        The new index, unfrozen, with ``index``'s quantization config.
    """
    n_keep = int(keep.shape[0])
    new = type(index)(vectors.shape[1], table, **_variant_kwargs(index))
    new.store = VectorStore.from_array(vectors[:n_keep], metric=index.metric)
    new._levels = copy.deepcopy(index._levels)
    remap = np.full(len(index), -1, dtype=np.int64)
    remap[keep] = np.arange(n_keep)
    remap = remap.tolist()

    old = index.graph
    for node in keep.tolist():
        new._register_node(remap[node], old.node_level(node))
    heirs = {}  # (level, removed old id) -> its surviving out-neighbours
    orphaned = []  # (level, new id, removed old out-neighbours)
    for level in range(new.graph.max_level + 1):
        adjacency = new.graph.level_adjacency(level)
        dists = new._edge_dists[level]
        old_dists = index._edge_dists[level]
        for node, neighbors in old.level_adjacency(level).items():
            owner = remap[node]
            mapped = [remap[nb] for nb in neighbors]
            if owner < 0:
                heirs[level, node] = [nb for nb in mapped if nb >= 0]
            elif -1 not in mapped:
                adjacency[owner] = mapped
                dists[owner] = list(old_dists[node])
            else:
                adjacency[owner] = [nb for nb in mapped if nb >= 0]
                dists[owner] = [
                    d for d, nb in zip(old_dists[node], mapped) if nb >= 0
                ]
                orphaned.append((level, owner, [
                    nb for nb, new_id in zip(neighbors, mapped) if new_id < 0
                ]))

    flat = isinstance(new, FlatAcornIndex)
    if n_keep:
        entry = remap[old.entry_point]
        if flat or entry < 0:
            # What a sequential build over the survivors would hold: the
            # first node to have reached the top level (a flat build
            # anchors at node 0 and re-anchors once it is done).
            entry = min(new.graph.level_adjacency(new.graph.max_level))
        new.graph.entry_point = entry
        _repair(new, heirs, orphaned)
    for vector in vectors[n_keep:]:
        new.add(vector)
    if flat:
        new.reanchor_entry_point()
    if index.quantization is not None:
        new.enable_quantization(index.quantization)
    return new


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
    try:
        for level, owner, lost in orphaned:
            pool = set()
            for gone in lost:
                pool.update(heirs[level, gone])
            pool.discard(owner)
            pool.difference_update(new.graph.neighbors(owner, level))
            if not pool:
                continue
            candidates = list(pool)
            query = computer.set_query(new.store.get(owner))
            dists = computer.distances_to(query, candidates).tolist()
            # Ties break on the id, so the set's order never shows.
            for dist, cand in sorted(zip(dists, candidates))[: len(lost)]:
                new._add_reverse_edge(computer, owner, cand, dist, level)
    finally:
        computer.flush_counts()
