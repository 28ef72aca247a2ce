"""Sharded ACORN index: scatter-gather search with an array top-k merge.

:class:`ShardedAcornIndex` partitions the base vectors and their
attribute table with a :class:`~repro.shard.partition.Partitioner`,
builds one ACORN index per shard (any variant: ACORN-γ, ACORN-1, or the
flat substrate), and answers hybrid queries shard-by-shard:

1. the query predicate is compiled once against the *global* table;
2. the :class:`~repro.shard.router.ShardRouter` prunes shards whose
   predicate mask is provably empty (and may scale per-shard
   ``ef_search`` by estimated local selectivity);
3. each probed shard searches its local predicate subgraph over its
   sliced mask;
4. per-shard results, with shard-local ids mapped back to global ids,
   are merged into the global top-k by one concatenation and one
   ``(distance, id)`` lexsort (:func:`merge_topk`).

Merge semantics: when every probed shard's search is exhaustive over
its passing rows (per-shard ``ef_search ≥`` shard size), the merge
yields exactly the global exact top-k — byte-identical to what the
unsharded index returns in its own exhaustive regime, which is the
contract the equivalence suite pins.  At lower effort each shard
contributes its usual graph-search approximation and the merge is
exact over whatever the shards returned.

The class plugs straight into the PR-1 batch engine: it exposes
``search``/``freeze``/``table`` and returns
:class:`~repro.telemetry.SearchResult` records: child counters folded
by :func:`~repro.telemetry.fold_telemetry`, plus the shard accounting
(``shards_probed``, ``shards_pruned``, ``per_shard``) this layer owns.
Shards are probed in plan order on the calling thread; an exception
raised inside a shard's search propagates to the caller unchanged.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.attributes.table import AttributeTable
from repro.core.acorn import AcornIndex, AcornOneIndex
from repro.core.flat import FlatAcornIndex
from repro.core.params import AcornParams
from repro.core.searcher import Searcher, check_search_args
from repro.predicates.base import CompiledPredicate, Predicate
from repro.shard.partition import (
    Partitioner,
    ShardAssignment,
    subset_table,
)
from repro.shard.router import ShardDecision, ShardPlan, ShardRouter
from repro.shard.summary import summarize_table
from repro.telemetry import SearchResult, fold_telemetry
from repro.vectors.distance import Metric


def merge_topk(
    parts: list[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The global top-k of per-part ``(distances, ids)`` arrays.

    Concatenates every part and keeps the first ``k`` of one
    ``np.lexsort`` by (distance, id), so parts need not be sorted.
    Ties break on id, making the merged order deterministic regardless
    of part order.  Returns ``(distances, ids)`` as float32 and
    ``intp`` arrays, ascending.
    """
    if k <= 0 or not parts:
        return np.empty(0, dtype=np.float32), np.empty(0, dtype=np.intp)
    dists = np.concatenate([d for d, _ in parts])
    ids = np.concatenate([i for _, i in parts])
    order = np.lexsort((ids, dists))[:k]
    return (dists[order].astype(np.float32, copy=False),
            ids[order].astype(np.intp, copy=False))


def _default_build_shard(
    variant: str,
    params: AcornParams | None,
    metric,
    seed,
    acorn1_m: int,
    acorn1_ef_construction: int,
) -> Callable[[np.ndarray, AttributeTable], AcornIndex]:
    """The per-shard index factory for a named ACORN variant."""
    if variant == "acorn":
        return lambda vectors, table: AcornIndex.build(
            vectors, table, params=params, metric=metric, seed=seed,
        )
    if variant == "acorn1":
        return lambda vectors, table: AcornOneIndex.build(
            vectors, table, m=acorn1_m,
            ef_construction=acorn1_ef_construction, metric=metric, seed=seed,
        )
    if variant == "flat":
        return lambda vectors, table: FlatAcornIndex.build(
            vectors, table, params=params, metric=metric, seed=seed,
        )
    raise ValueError(
        f"unknown variant {variant!r}; choose acorn, acorn1, or flat"
    )


class ShardedAcornIndex(Searcher):
    """N ACORN shards behind one predicate-aware scatter-gather front.

    Build with :meth:`build`; the constructor wires together
    already-built pieces (persistence uses it directly).

    Args:
        shards: one ACORN index per shard, aligned with ``assignment``.
        assignment: the global ↔ (shard, local) id mapping.
        partitioner: the policy that produced ``assignment`` (kept for
            the persisted archive).
        table: the *global* attribute table; query predicates are
            compiled against it exactly as on an unsharded index.
        router: routing policy; defaults to a
            :class:`~repro.shard.router.ShardRouter` over fresh
            summaries of each shard's table.
        scale_ef: when True the router scales per-shard ``ef_search``
            by estimated local selectivity (efficiency mode); when
            False every probed shard uses the caller's ``ef_search``
            (the equivalence-preserving default).
        executor: compatibility keyword with no effect — the frozen
            ``benchmarks/e2e/workloads.py`` still passes
            ``executor="sync"``.  Probes always run one after another on
            the calling thread (threaded and per-shard process probes
            measured 0.60x and 0.37x of that), so any other value is
            rejected rather than silently ignored.
    """

    def __init__(
        self,
        shards: list[AcornIndex],
        assignment: ShardAssignment,
        partitioner: Partitioner,
        table: AttributeTable,
        router: ShardRouter | None = None,
        scale_ef: bool = False,
        executor: str = "sync",
    ) -> None:
        if executor != "sync":
            raise ValueError(
                "ShardedAcornIndex probes shards on the calling thread; "
                f"executor must be 'sync', got {executor!r}"
            )
        if len(shards) != assignment.n_shards:
            raise ValueError(
                f"{len(shards)} shard indexes but assignment has "
                f"{assignment.n_shards} shards"
            )
        for s, (shard, gids) in enumerate(zip(shards, assignment.global_ids)):
            if len(shard) != gids.shape[0]:
                raise ValueError(
                    f"shard {s} holds {len(shard)} vectors but assignment "
                    f"maps {gids.shape[0]} rows to it"
                )
        self.shards = shards
        self.assignment = assignment
        self.partitioner = partitioner
        self.table = table
        self.router = (
            router if router is not None
            else ShardRouter([summarize_table(s.table) for s in shards])
        )
        self.scale_ef = bool(scale_ef)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        table: AttributeTable,
        partitioner: Partitioner,
        params: AcornParams | None = None,
        metric: "Metric | str" = Metric.L2,
        seed: int | np.random.Generator | None = None,
        variant: str = "acorn",
        acorn1_m: int = 32,
        acorn1_ef_construction: int = 40,
        build_shard: Callable[[np.ndarray, AttributeTable], AcornIndex] | None = None,
        scale_ef: bool = False,
        executor: str = "sync",
    ) -> "ShardedAcornIndex":
        """Partition ``vectors``/``table`` and build one index per shard.

        Args:
            vectors: (n, dim) float32 base vectors, aligned with
                ``table`` rows.
            table: global attribute table (must match ``vectors``
                exactly — sharding fixes the universe up front).
            partitioner: row-placement policy.
            params: ACORN-γ construction parameters (``acorn``/``flat``
                variants).
            metric: distance metric shared by all shards.
            seed: level-assignment seed, reused per shard so a
                single-shard build is graph-identical to the unsharded
                reference.
            variant: ``"acorn"`` (γ), ``"acorn1"``, or ``"flat"``.
            acorn1_m / acorn1_ef_construction: ACORN-1 build knobs.
            build_shard: optional ``(vectors, table) -> index`` factory
                overriding ``variant`` entirely.
            scale_ef: forwarded to the instance (see class docs).
            executor: forwarded to the instance (see class docs).
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if len(table) != vectors.shape[0]:
            raise ValueError(
                f"table has {len(table)} rows but got {vectors.shape[0]} "
                "vectors; sharding requires a fully-aligned table"
            )
        if build_shard is None:
            build_shard = _default_build_shard(
                variant, params, metric, seed, acorn1_m,
                acorn1_ef_construction,
            )
        assignment = partitioner.partition(table)
        shards = [
            build_shard(vectors[gids], subset_table(table, gids))
            for gids in assignment.global_ids
        ]
        return cls(
            shards=shards, assignment=assignment, partitioner=partitioner,
            table=table, scale_ef=scale_ef, executor=executor,
        )

    def __len__(self) -> int:
        return self.assignment.n_rows

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return self.assignment.n_shards

    @property
    def metric(self) -> Metric:
        """The distance metric shared by every shard."""
        return self.shards[0].metric

    def freeze(self) -> None:
        """Freeze every shard's adjacency snapshot (batch-engine hook)."""
        for shard in self.shards:
            if len(shard):
                shard.freeze()

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def plan(
        self, predicate: "Predicate | CompiledPredicate", k: int,
        ef_search: int = 64,
    ) -> ShardPlan:
        """The routing plan one query would execute (EXPLAIN-style)."""
        return self.router.plan(self._compile(predicate).predicate, k=k,
                                ef_search=ef_search, scale_ef=self.scale_ef)

    def _probe_shard(
        self,
        decision: ShardDecision,
        compiled: CompiledPredicate,
        query: np.ndarray,
        k: int,
    ) -> tuple[dict, object | None, np.ndarray]:
        """Execute one probed shard's local search.

        Returns ``(record, found, gids)`` where ``record`` is the
        per-shard telemetry dict, ``found`` is the local
        :class:`~repro.telemetry.SearchResult` (``None`` when the
        shard's slice of the mask is empty), and ``gids`` maps local
        ids back to global ids.  Exceptions from the shard propagate.
        """
        record = {
            "shard": decision.shard_id,
            "pruned": decision.pruned,
            "reason": decision.reason,
            "est_selectivity": decision.est_selectivity,
            "ef_search": decision.ef_search,
            "distance_computations": 0,
            "hops": 0,
            "returned": 0,
        }
        gids = self.assignment.global_ids[decision.shard_id]
        local_mask = compiled.mask[gids]
        if not local_mask.any():
            # Probed per the plan, but the materialized local mask is
            # empty — nothing to search.
            return record, None, gids
        local = CompiledPredicate(compiled.predicate, local_mask)
        found = self.shards[decision.shard_id].search(
            query, local, k, ef_search=decision.ef_search,
        )
        record["distance_computations"] = int(found.distance_computations)
        record["hops"] = int(found.hops)
        record["returned"] = int(len(found))
        return record, found, gids

    def search(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        ef_search: int = 64,
    ) -> SearchResult:
        """Scatter-gather hybrid search: global top-k passing entities.

        The predicate compiles once against the global table; the plan
        prunes provably-empty shards; each probed shard in turn searches
        its local subgraph over the sliced mask; the per-shard results
        merge into the global top-k.  An exception raised by a shard
        propagates unchanged.
        """
        check_search_args(k, ef_search)
        compiled = self._compile(predicate)
        plan = self.plan(compiled, k=k, ef_search=ef_search)
        parts = []
        children = []
        per_shard = []
        for decision in plan.decisions:
            if decision.pruned:
                per_shard.append({
                    "shard": decision.shard_id,
                    "pruned": True,
                    "reason": decision.reason,
                    "est_selectivity": decision.est_selectivity,
                    "ef_search": decision.ef_search,
                })
                continue
            record, found, gids = self._probe_shard(
                decision, compiled, query, k)
            per_shard.append(record)
            if found is not None:
                parts.append((found.distances, gids[found.ids]))
                children.append(found)

        distances, ids = merge_topk(parts, k)
        return SearchResult(
            ids=ids,
            distances=distances,
            per_shard=tuple(per_shard),
            **fold_telemetry(
                children,
                shards_probed=plan.n_probed,
                shards_pruned=plan.n_pruned,
            ),
        )

    # ------------------------------------------------------------------
    # Deletion (tombstones route to the owning shard)
    # ------------------------------------------------------------------

    def mark_deleted(self, global_id: int) -> None:
        """Tombstone a global entity on its owning shard."""
        shard, local = self.assignment.to_local(global_id)
        self.shards[shard].mark_deleted(local)

    def unmark_deleted(self, global_id: int) -> None:
        """Remove a global entity's tombstone (no-op if absent)."""
        shard, local = self.assignment.to_local(global_id)
        self.shards[shard].unmark_deleted(local)

    def is_deleted(self, global_id: int) -> bool:
        """Whether a global entity is tombstoned."""
        shard, local = self.assignment.to_local(global_id)
        return self.shards[shard].is_deleted(local)

    @property
    def num_deleted(self) -> int:
        """Tombstoned entities across all shards."""
        return sum(shard.num_deleted for shard in self.shards)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        """Total vector + adjacency footprint across shards."""
        return sum(shard.nbytes() for shard in self.shards)

    def stats(self) -> dict:
        """Operator-facing build summary: shard sizes and per-shard stats."""
        return {
            "n_shards": self.n_shards,
            "num_vectors": len(self),
            "num_deleted": self.num_deleted,
            "partitioner": self.partitioner.spec(),
            "shard_sizes": [len(shard) for shard in self.shards],
            "shards": [shard.stats() for shard in self.shards],
        }
