"""Immutable epoch snapshots — what lifecycle readers actually search.

An :class:`EpochSnapshot` is a published, never-mutated view of the
dataset at one epoch: the frozen graph **base** (with an external-id
translation array), zero or more frozen **delta** segments (recent
writes, searched exactly), and the epoch's **tombstone set**.  Search
runs the base's graph traversal and a brute-force pass over each delta
segment, then merges the per-segment ``(distances, external_ids)``
arrays with the shard layer's top-k merge
(:func:`repro.shard.sharded.merge_topk`) — the same concatenate-and-
lexsort that merges scatter-gather shard results.

Immutability contract: a snapshot holds every array it needs; writers
publishing later epochs and the compactor swapping the base never
touch a previously published snapshot, so a reader holding one sees
bit-identical results forever.  The tombstone set is turned into one
alive mask per segment (base and each delta) when the snapshot is
published; the base's composes into its predicate mask exactly like a
failing attribute (the ``_effective_mask`` pattern from
:mod:`repro.core.acorn`), and each delta's into
:meth:`DeltaView.topk`'s — a deleted entity can never surface from
either side, and no read consults the tombstone set itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.searcher import Searcher, check_search_args
from repro.lifecycle.delta import DeltaView
from repro.predicates.base import CompiledPredicate, Predicate
from repro.shard.sharded import merge_topk
from repro.telemetry import QueryStats, SearchResult, fold_telemetry

__all__ = ["EpochSnapshot", "alive_mask"]


def alive_mask(ids: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """Read-only mask of the ascending ``ids`` that are not in ``dead``."""
    alive = np.ones(ids.shape[0], dtype=bool)
    if dead.size and ids.shape[0]:
        pos = np.searchsorted(ids, dead)
        in_range = pos < ids.shape[0]
        pos, dead = pos[in_range], dead[in_range]
        alive[pos[ids[pos] == dead]] = False
    alive.setflags(write=False)
    return alive


class EpochSnapshot(Searcher):
    """One published, immutable epoch of a :class:`LifecycleIndex`.

    Args:
        epoch: monotonically increasing publication counter.
        base: the frozen graph index (any ACORN-family class).
        base_ids: (len(base),) int64 external id of each base-internal
            node, strictly ascending.
        deltas: frozen delta segments, oldest first.
        tombstones: external ids deleted as of this epoch.
        previous: the snapshot this one succeeds, if any.  When both
            hold the same tombstones, every alive mask whose segment is
            unchanged — the base (same index and id array) and each
            delta view they share — is carried from it instead of
            rebuilt, so a publish after an insert costs O(delta), not
            O(base).
    """

    __slots__ = (
        "epoch", "base", "base_ids", "deltas", "tombstones",
        "_base_alive", "_delta_alive", "_readers",
    )

    def __init__(
        self,
        epoch: int,
        base,
        base_ids: np.ndarray,
        deltas: tuple[DeltaView, ...],
        tombstones: frozenset[int],
        previous: "EpochSnapshot | None" = None,
    ) -> None:
        self.epoch = int(epoch)
        self.base = base
        self.base_ids = np.asarray(base_ids, dtype=np.int64)
        self.base_ids.setflags(write=False)
        self.deltas = tuple(deltas)
        self.tombstones = frozenset(tombstones)
        dead = np.fromiter(self.tombstones, dtype=np.int64,
                           count=len(self.tombstones))
        same_dead = (previous is not None
                     and previous.tombstones == self.tombstones)
        if (same_dead and previous.base is base
                and previous.base_ids is self.base_ids):
            self._base_alive = previous._base_alive
        else:
            self._base_alive = alive_mask(self.base_ids, dead)
        carried = ({id(view): alive for view, alive
                    in zip(previous.deltas, previous._delta_alive)}
                   if same_dead else {})
        self._delta_alive = tuple(
            carried[id(view)] if id(view) in carried
            else alive_mask(view.external_ids, dead)
            for view in self.deltas
        )
        self._readers = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def table(self):
        """The base's attribute table, which raw predicates compile
        against for the base side."""
        return self.base.table

    @property
    def readers(self) -> int:
        """Readers currently holding this snapshot (acquire/release)."""
        return self._readers

    def live_count(self) -> int:
        """Live entities visible at this epoch (base + deltas)."""
        return sum(int(alive.sum())
                   for alive in (self._base_alive, *self._delta_alive))

    def live_ids(self) -> np.ndarray:
        """Sorted external ids of every live entity at this epoch."""
        return np.sort(np.concatenate([
            self.base_ids[self._base_alive],
            *(view.external_ids[alive]
              for view, alive in zip(self.deltas, self._delta_alive)),
        ]))

    def delta_size(self) -> int:
        """Total entries across the snapshot's delta segments."""
        return sum(len(view) for view in self.deltas)

    def live_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, vectors)`` for every live entity, ascending by id.

        The brute-force oracle input: because the snapshot owns every
        array, this stays valid (and bit-identical) even after later
        epochs compact the entities away.
        """
        ids_parts = [self.base_ids[self._base_alive]]
        vec_parts = [
            self.base.store.vectors[self._base_alive]
            if len(self.base) > 0
            else np.empty((0, 0), dtype=np.float32)
        ]
        for view, alive in zip(self.deltas, self._delta_alive):
            ids_parts.append(view.external_ids[alive])
            vec_parts.append(view.vectors[alive])
        vec_parts = [v for v in vec_parts if v.size or v.shape[0]]
        ids = np.concatenate(ids_parts)
        vectors = (np.concatenate(vec_parts) if vec_parts
                   else np.empty((0, 0), dtype=np.float32))
        order = np.argsort(ids, kind="stable")
        return ids[order], vectors[order]

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        ef_search: int = 64,
    ) -> SearchResult:
        """Merged hybrid search over base + deltas, minus tombstones.

        Result ids are **external ids**.  The predicate resolves
        against the base's table (:meth:`Searcher._compile`): a mask
        compiled against another table — say of coincidentally equal
        length, before a compaction swapped the base — is recompiled
        from its source predicate, which also filters the deltas.
        """
        check_search_args(k, ef_search)
        compiled = self._compile(predicate)
        raw = compiled.predicate
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        children: list[QueryStats] = []
        base_candidates = delta_candidates = 0

        if len(self.base) > 0:
            composed = compiled.mask & self._base_alive
            composed.setflags(write=False)
            result = self.base.search(
                query, CompiledPredicate(raw, composed), k,
                ef_search=ef_search,
            )
            children.append(result)
            base_candidates = len(result)
            parts.append((result.distances, self.base_ids[result.ids]))

        for view, alive in zip(self.deltas, self._delta_alive):
            dists, ids, scored = view.topk(query, raw, k, alive)
            children.append(QueryStats(distance_computations=scored))
            delta_candidates += ids.shape[0]
            parts.append((dists, ids))

        distances, ids = merge_topk(parts, k)
        return SearchResult(
            ids=ids,
            distances=distances,
            delta_candidates=delta_candidates,
            base_candidates=base_candidates,
            **fold_telemetry(children, epoch=self.epoch),
        )

    def exact_search(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
    ) -> SearchResult:
        """Brute-force oracle: exact top-k over the live, passing set.

        Scans every base entity instead of walking the graph, so its
        results are ground truth for this snapshot — what the
        equivalence harness and the lifecycle bench measure recall
        against.  Same tie-breaking (ascending distance, then id) as
        :meth:`search`.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        compiled = self._compile(predicate)
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        ndist = 0
        if len(self.base) > 0:
            passing = np.flatnonzero(compiled.mask & self._base_alive)
            if passing.size:
                computer = self.base.store.computer()
                q = computer.set_query(query)
                parts.append((computer.distances_to(q, passing),
                              self.base_ids[passing]))
                ndist += int(passing.size)
        for view, alive in zip(self.deltas, self._delta_alive):
            dists, ids, scored = view.topk(query, compiled.predicate, k,
                                           alive)
            parts.append((dists, ids))
            ndist += scored
        distances, ids = merge_topk(parts, k)
        return SearchResult(ids=ids, distances=distances,
                            distance_computations=ndist, epoch=self.epoch)
