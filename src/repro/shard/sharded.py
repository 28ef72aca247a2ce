"""Sharded ACORN index: scatter-gather search with an array top-k merge.

:class:`ShardedAcornIndex` partitions the base vectors and their
attribute table with a :class:`~repro.shard.partition.Partitioner`,
builds one ACORN index per shard (any variant: ACORN-γ, ACORN-1, or the
flat substrate), and answers hybrid queries shard-by-shard:

1. the query predicate is compiled once against the *global* table;
2. :meth:`ShardedAcornIndex.plan` groups the mask by shard in one
   gather and prunes exactly the shards whose slice has no passing row;
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

The class plugs straight into the batch engine: it exposes
``search``/``freeze``/``table`` and returns
:class:`~repro.telemetry.SearchResult` records: child counters folded
by :func:`~repro.telemetry.fold_telemetry`, plus the shard accounting
(``shards_probed``, ``shards_pruned``, ``per_shard``) this layer owns.
Shards are probed in shard order on the calling thread; an exception
raised inside a shard's search propagates to the caller unchanged.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

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
from repro.telemetry import SearchResult, fold_telemetry
from repro.vectors.distance import Metric, smallest_k


def merge_topk(
    parts: list[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The global top-k of per-part ``(distances, ids)`` arrays.

    Concatenates every part and keeps the ``k`` smallest by (distance,
    id) (:func:`~repro.vectors.distance.smallest_k`), so parts need not
    be sorted and ties break on id whatever the part order.  Returns
    ``(distances, ids)`` as float32 and ``intp`` arrays, ascending.
    """
    if k <= 0 or not parts:
        return np.empty(0, dtype=np.float32), np.empty(0, dtype=np.intp)
    return smallest_k(np.concatenate([d for d, _ in parts]),
                      np.concatenate([i for _, i in parts]), k)


class ShardDecision(NamedTuple):
    """One shard's part in one query's plan.

    Attributes:
        shard_id: which shard this decision covers.
        pruned: True when no row of the shard passes the predicate, so
            the shard is not probed.
        reason: ``"probe"`` or ``"no passing rows"``.
        est_selectivity: the exact local selectivity — passing rows
            over shard rows (0.0 for an empty shard).
        ef_search: dynamic-list size the probe uses (0 when pruned).
    """

    shard_id: int
    pruned: bool
    reason: str
    est_selectivity: float
    ef_search: int


class ShardPlan(NamedTuple):
    """One query's decisions, one per shard in shard order (so
    ``n_pruned + n_probed == n_shards``), and each shard's slice of the
    query's mask."""

    decisions: list[ShardDecision]
    masks: list[np.ndarray]

    @property
    def n_shards(self) -> int:
        """Total shards covered by the plan."""
        return len(self.decisions)

    @property
    def n_pruned(self) -> int:
        """Shards without a passing row."""
        return sum(1 for d in self.decisions if d.pruned)

    @property
    def n_probed(self) -> int:
        """Shards that will execute a search."""
        return self.n_shards - self.n_pruned

    @property
    def probed(self) -> list[ShardDecision]:
        """Decisions for the shards that will be searched, in shard order."""
        return [d for d in self.decisions if not d.pruned]


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
    """N ACORN shards behind one scatter-gather front that probes only
    the shards holding a passing row.

    Build with :meth:`build`; the constructor wires together
    already-built pieces (persistence uses it directly).

    Args:
        shards: one ACORN index per shard, aligned with ``assignment``.
        assignment: the global ↔ (shard, local) id mapping.
        partitioner: the policy that produced ``assignment`` (kept for
            the persisted archive).
        table: the *global* attribute table; query predicates are
            compiled against it exactly as on an unsharded index.
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
        # Global row ids grouped by shard: one gather of a query's mask
        # through _order leaves every shard's slice as a view.
        self._order = np.concatenate(assignment.global_ids)
        stops = np.cumsum([gids.shape[0] for gids in assignment.global_ids])
        self._spans = list(zip([0, *stops[:-1].tolist()], stops.tolist()))

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
            table=table, executor=executor,
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
        self, predicate: "Predicate | CompiledPredicate", ef_search: int = 64,
    ) -> ShardPlan:
        """Which shards one query probes (EXPLAIN-style).

        One gather of the compiled mask groups it by shard; a shard is
        pruned exactly when its slice has no passing row, and each
        decision carries the exact local selectivity.
        """
        grouped = self._compile(predicate).mask[self._order]
        masks = [grouped[start:stop] for start, stop in self._spans]
        decisions = []
        for shard_id, local in enumerate(masks):
            count = int(np.count_nonzero(local))
            decisions.append(ShardDecision(
                shard_id,
                count == 0,
                "probe" if count else "no passing rows",
                count / local.shape[0] if count else 0.0,
                int(ef_search) if count else 0,
            ))
        return ShardPlan(decisions, masks)

    def search(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        ef_search: int = 64,
    ) -> SearchResult:
        """Scatter-gather hybrid search: global top-k passing entities.

        The predicate compiles once against the global table; the plan
        prunes the shards without a passing row; each probed shard in
        turn searches its local subgraph over its slice of the mask;
        the per-shard results merge into the global top-k.  An
        exception raised by a shard propagates unchanged.
        """
        check_search_args(k, ef_search)
        compiled = self._compile(predicate)
        plan = self.plan(compiled, ef_search=ef_search)
        parts = []
        children = []
        per_shard = []
        for decision in plan.decisions:
            record = {
                "shard": decision.shard_id,
                "pruned": decision.pruned,
                "reason": decision.reason,
                "est_selectivity": decision.est_selectivity,
                "ef_search": decision.ef_search,
            }
            per_shard.append(record)
            if decision.pruned:
                continue
            local = CompiledPredicate(compiled.predicate,
                                      plan.masks[decision.shard_id])
            found = self.shards[decision.shard_id].search(
                query, local, k, ef_search=decision.ef_search,
            )
            record.update(
                distance_computations=int(found.distance_computations),
                hops=int(found.hops),
                returned=int(len(found)),
            )
            gids = self.assignment.global_ids[decision.shard_id]
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
