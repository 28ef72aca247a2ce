"""Immutable epoch snapshots — what lifecycle readers actually search.

An :class:`EpochSnapshot` is a published, never-mutated view of the
dataset at one epoch: the frozen graph **base** (with an external-id
translation array), zero or more frozen **delta** segments (recent
writes, searched exactly), and the epoch's **tombstone set**.  Search
runs the base's graph traversal and a brute-force pass over each delta
segment, then folds the per-segment ``(distance, external_id)`` streams
through the shard layer's streaming top-k merge
(:func:`repro.shard.sharded.merge_topk`) — the same heap that merges
scatter-gather shard results, reused here for the base/delta merge.

Immutability contract: a snapshot holds every array it needs; writers
publishing later epochs and the compactor swapping the base never
touch a previously published snapshot, so a reader holding one sees
bit-identical results forever.  Tombstones compose into the base's
predicate mask exactly like a failing attribute (the
``_effective_mask`` pattern from :mod:`repro.core.acorn`), and hide
delta entries inside :meth:`DeltaView.topk` — a deleted entity can
never surface from either side.
"""

from __future__ import annotations

import numpy as np

from repro.lifecycle.delta import DeltaView
from repro.predicates.base import CompiledPredicate, Predicate
from repro.shard.sharded import merge_topk
from repro.telemetry import QueryStats, SearchResult, fold_telemetry

__all__ = ["EpochSnapshot"]


class EpochSnapshot:
    """One published, immutable epoch of a :class:`LifecycleIndex`.

    Args:
        epoch: monotonically increasing publication counter.
        base: the frozen graph index (any ACORN-family class), or None
            for a delta-only lifecycle.
        base_ids: (len(base),) int64 external id of each base-internal
            node, strictly ascending.
        deltas: frozen delta segments, oldest first.
        tombstones: external ids deleted as of this epoch.
    """

    __slots__ = (
        "epoch", "base", "base_ids", "deltas", "tombstones",
        "_base_alive", "_readers",
    )

    def __init__(
        self,
        epoch: int,
        base,
        base_ids: np.ndarray,
        deltas: tuple[DeltaView, ...],
        tombstones: frozenset[int],
    ) -> None:
        self.epoch = int(epoch)
        self.base = base
        self.base_ids = np.asarray(base_ids, dtype=np.int64)
        self.base_ids.setflags(write=False)
        self.deltas = tuple(deltas)
        self.tombstones = frozenset(tombstones)
        alive = np.ones(self.base_ids.shape[0], dtype=bool)
        if self.tombstones and self.base_ids.shape[0]:
            dead = np.asarray(sorted(self.tombstones), dtype=np.int64)
            pos = np.searchsorted(self.base_ids, dead)
            in_range = pos < self.base_ids.shape[0]
            pos, dead = pos[in_range], dead[in_range]
            alive[pos[self.base_ids[pos] == dead]] = False
        alive.setflags(write=False)
        self._base_alive = alive
        self._readers = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def readers(self) -> int:
        """Readers currently holding this snapshot (acquire/release)."""
        return self._readers

    def live_count(self) -> int:
        """Live entities visible at this epoch (base + deltas)."""
        n = int(self._base_alive.sum())
        for view in self.deltas:
            for ext in view.external_ids.tolist():
                if ext not in self.tombstones:
                    n += 1
        return n

    def live_ids(self) -> np.ndarray:
        """Sorted external ids of every live entity at this epoch."""
        ids = [int(e) for e in self.base_ids[self._base_alive].tolist()]
        for view in self.deltas:
            ids.extend(
                int(e) for e in view.external_ids.tolist()
                if e not in self.tombstones
            )
        return np.asarray(sorted(ids), dtype=np.int64)

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
            if self.base is not None and len(self.base) > 0
            else np.empty((0, 0), dtype=np.float32)
        ]
        for view in self.deltas:
            keep = np.asarray(
                [e not in self.tombstones
                 for e in view.external_ids.tolist()],
                dtype=bool,
            )
            ids_parts.append(view.external_ids[keep])
            vec_parts.append(view.vectors[keep])
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

        Result ids are **external ids**.  A pre-compiled predicate is
        honored on the base side only when it was compiled against
        *this snapshot's* base table (``compiled.table is base.table``
        — the batch engine compiles against the table of the epoch it
        pins); anything else — including a mask of coincidentally equal
        length compiled before a compaction swapped the base — is
        recompiled from the raw predicate.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        raw = (predicate.predicate
               if isinstance(predicate, CompiledPredicate) else predicate)
        streams: list[list[tuple[float, int]]] = []
        children: list[QueryStats] = []
        base_candidates = delta_candidates = 0

        if self.base is not None and len(self.base) > 0:
            if (isinstance(predicate, CompiledPredicate)
                    and predicate.table is self.base.table):
                base_mask = predicate.mask
            else:
                base_mask = np.asarray(
                    raw.mask(self.base.table), dtype=bool
                )
            composed = base_mask & self._base_alive
            composed.setflags(write=False)
            result = self.base.search(
                query, CompiledPredicate(raw, composed), k,
                ef_search=ef_search,
            )
            children.append(result)
            base_candidates = len(result)
            streams.append([
                (float(d), int(self.base_ids[i]))
                for d, i in zip(result.distances.tolist(),
                                result.ids.tolist())
            ])

        for view in self.deltas:
            stream, scored = view.topk(query, raw, k, self.tombstones)
            children.append(QueryStats(distance_computations=scored))
            delta_candidates += len(stream)
            streams.append(stream)

        merged = merge_topk(streams, k)
        return SearchResult.from_pairs(
            merged,
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
        raw = (predicate.predicate
               if isinstance(predicate, CompiledPredicate) else predicate)
        streams: list[list[tuple[float, int]]] = []
        ndist = 0
        if self.base is not None and len(self.base) > 0:
            mask = (np.asarray(raw.mask(self.base.table), dtype=bool)
                    & self._base_alive)
            passing = np.flatnonzero(mask)
            if passing.size:
                computer = self.base.store.computer()
                q = computer.set_query(query)
                dists = computer.distances_to(q, passing)
                ext = self.base_ids[passing]
                order = np.lexsort((ext, dists))[:k]
                streams.append([
                    (float(dists[i]), int(ext[i])) for i in order.tolist()
                ])
                ndist += int(passing.size)
        for view in self.deltas:
            stream, scored = view.topk(query, raw, k, self.tombstones)
            streams.append(stream)
            ndist += scored
        merged = merge_topk(streams, k)
        return SearchResult.from_pairs(
            merged, distance_computations=ndist, epoch=self.epoch
        )
