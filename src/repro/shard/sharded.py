"""Sharded ACORN index: scatter-gather search with streaming top-k merge.

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
4. per-shard results — already sorted by distance — are merged with a
   streaming k-way heap merge (:func:`merge_topk`) into the global
   top-k, mapping shard-local ids back to global ids.

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
(``shards_*``, ``degraded``, ``recall_ceiling``, ``per_shard``) this
layer owns.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import Counter
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.attributes.table import AttributeTable
from repro.core.acorn import AcornIndex, AcornOneIndex
from repro.core.flat import FlatAcornIndex
from repro.core.params import AcornParams
from repro.engine.batching import BatchSearchMixin
from repro.predicates.base import CompiledPredicate, Predicate
from repro.shard.partition import (
    Partitioner,
    ShardAssignment,
    subset_table,
)
from repro.shard.resilience import (
    BreakerState,
    ResiliencePolicy,
    recall_ceiling,
    resilient_probe,
)
from repro.shard.router import ShardDecision, ShardPlan, ShardRouter
from repro.shard.summary import summarize_table
from repro.telemetry import SearchResult, fold_telemetry
from repro.vectors.distance import Metric


def merge_topk(
    streams: Iterable[Iterable[tuple[float, int]]], k: int
) -> list[tuple[float, int]]:
    """Streaming k-way merge of per-shard ``(distance, id)`` streams.

    Each stream must already be sorted ascending (per-shard searches
    return sorted results); the merge walks all streams heap-wise and
    stops after ``k`` emissions, so no concatenation of full result
    lists is ever materialized.  Ties break on id, making the merged
    order deterministic regardless of shard enumeration order.
    """
    return list(heapq.merge(*streams))[:k] if k > 0 else []


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


class ShardedAcornIndex(BatchSearchMixin):
    """N ACORN shards behind one predicate-aware scatter-gather front.

    Build with :meth:`build`; the constructor wires together
    already-built pieces (persistence uses it directly).

    Args:
        shards: one ACORN index per shard, aligned with ``assignment``.
        assignment: the global ↔ (shard, local) id mapping.
        partitioner: the policy that produced ``assignment`` (kept for
            the persistence manifest).
        table: the *global* attribute table; query predicates are
            compiled against it exactly as on an unsharded index.
        router: routing policy; defaults to a
            :class:`~repro.shard.router.ShardRouter` over fresh
            summaries of each shard's table.
        scale_ef: when True the router scales per-shard ``ef_search``
            by estimated local selectivity (efficiency mode); when
            False every probed shard uses the caller's ``ef_search``
            (the equivalence-preserving default).
        resilience: optional
            :class:`~repro.shard.resilience.ResiliencePolicy`.  Without
            one (the default), shard failures propagate and no
            deadline/retry/breaker machinery runs — the historical
            fail-fast semantics.  With one, probes run under per-shard
            deadlines with retry-and-backoff and per-shard circuit
            breakers, and queries degrade gracefully to a partial
            top-k over surviving shards with exact failure accounting.
        shard_workers: fan shard probes of a single query across this
            many threads (``None``/1 probes sequentially on the calling
            thread — the deterministic default the chaos suite relies
            on).  ``BaseException`` raised inside a probe always
            propagates, never folds into failure accounting.
        route_policy: per-shard query routing.  ``None`` (default)
            probes each shard's graph directly — the historical
            behavior.  ``"static"`` or ``"adaptive"`` wraps each shard
            in a :class:`~repro.routing.planner.RoutePlanner` of that
            policy, seeded with the shard router's summary-based local
            selectivity estimate as the prior; route telemetry
            surfaces on the result and in per-shard records.
        executor: probe fan-out mechanism.  ``"thread"`` (default)
            keeps the historical in-process probes (threaded when
            ``shard_workers > 1``); ``"sync"`` behaves identically
            (probes are already sequential at ``shard_workers <= 1``);
            ``"process"`` runs each probed shard's local search in a
            spawned worker over a zero-copy shared-memory arena of all
            shards (``docs/parallelism.md``).  Results are
            byte-identical across executors; the process path falls
            back to in-process probes — counted in
            ``process_fallbacks`` / ``last_fallback_reason`` — when
            shared memory is unavailable or the shards cannot be
            snapshotted (fault-injection wrappers, per-shard route
            planners).  Worker crashes surface as ordinary probe
            ``Exception``s, so the resilience policy's
            failed/degraded/recall-ceiling accounting applies to a
            dying worker process exactly as to a throwing shard.
        process_pool: a shared
            :class:`~repro.parallel.pool.ProcessPool`; ``None`` lazily
            creates one owned (and closed) by this index.
    """

    def __init__(
        self,
        shards: list[AcornIndex],
        assignment: ShardAssignment,
        partitioner: Partitioner,
        table: AttributeTable,
        router: ShardRouter | None = None,
        scale_ef: bool = False,
        resilience: ResiliencePolicy | None = None,
        shard_workers: int | None = None,
        route_policy: str | None = None,
        executor: str = "thread",
        process_pool=None,
    ) -> None:
        from repro.parallel import resolve_executor
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
        self.resilience = resilience
        self.breakers = (
            resilience.make_breakers(len(shards))
            if resilience is not None else None
        )
        self.shard_workers = (
            1 if shard_workers is None else max(int(shard_workers), 1)
        )
        self.route_policy = route_policy
        self._shard_planners = None
        if route_policy is not None:
            from repro.routing.planner import RoutePlanner

            # One planner (and one private feedback store) per shard:
            # shard sizes differ, so observed costs must not mix.
            self._shard_planners = [
                RoutePlanner(shard, policy=route_policy)
                for shard in self.shards
            ]
        self._scatter_pool: ThreadPoolExecutor | None = None
        self.executor = resolve_executor(executor)
        self._proc_pool = process_pool
        self._own_proc_pool = process_pool is None
        self._arena_manager = None
        self._closed = False
        self.process_fallbacks = 0
        self.last_fallback_reason = ""

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
        resilience: ResiliencePolicy | None = None,
        shard_workers: int | None = None,
        route_policy: str | None = None,
        executor: str = "thread",
        process_pool=None,
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
            resilience: forwarded to the instance (see class docs).
            shard_workers: forwarded to the instance (see class docs).
            route_policy: forwarded to the instance (see class docs).
            executor: forwarded to the instance (see class docs).
            process_pool: forwarded to the instance (see class docs).
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
            table=table, scale_ef=scale_ef, resilience=resilience,
            shard_workers=shard_workers, route_policy=route_policy,
            executor=executor, process_pool=process_pool,
        )

    def with_faults(self, injector) -> "ShardedAcornIndex":
        """A chaos view of this index: same shards, decorated by
        ``injector`` (see :class:`~repro.shard.faults.FaultInjector`).

        The view shares the assignment, table, router, and policy
        configuration but gets fresh circuit breakers, so injected
        failures never poison the undecorated index's state.
        """
        return type(self)(
            shards=injector.wrap(self.shards),
            assignment=self.assignment,
            partitioner=self.partitioner,
            table=self.table,
            router=self.router,
            scale_ef=self.scale_ef,
            resilience=self.resilience,
            shard_workers=self.shard_workers,
            route_policy=self.route_policy,
            # Process probes cannot reach fault-injection wrappers (they
            # live outside the snapshot registry), so the chaos view
            # always probes in-process regardless of this executor.
            executor=self.executor,
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

    def begin_batch(self) -> None:
        """Batch-engine hook: open a feedback batch on every shard
        planner (no-op without per-shard routing)."""
        if self._shard_planners is not None:
            for planner in self._shard_planners:
                planner.begin_batch()

    # ------------------------------------------------------------------
    # Lifecycle (worker pools and shared-memory arenas)
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the probe pools and shared-memory arenas down.

        Idempotent and teardown safe; after an explicit close,
        :meth:`search` raises ``RuntimeError`` (the arenas are
        unlinked — silently re-creating them would hide leaks).
        """
        self._closed = True
        pool = getattr(self, "_scatter_pool", None)
        if pool is not None:
            self._scatter_pool = None
            pool.shutdown(wait=True)
        proc_pool = getattr(self, "_proc_pool", None)
        if proc_pool is not None and getattr(self, "_own_proc_pool", False):
            self._proc_pool = None
            proc_pool.close()
        manager = getattr(self, "_arena_manager", None)
        if manager is not None:
            self._arena_manager = None
            manager.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def __enter__(self) -> "ShardedAcornIndex":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def _scatter_executor(self) -> ThreadPoolExecutor:
        if self._scatter_pool is None:
            self._scatter_pool = ThreadPoolExecutor(
                max_workers=self.shard_workers,
                thread_name_prefix="repro-scatter",
            )
        return self._scatter_pool

    def _process_pool(self):
        """The probe process pool (lazily created when owned)."""
        if self._proc_pool is None:
            from repro.parallel import ProcessPool

            self._proc_pool = ProcessPool(max(self.shard_workers, 1))
            self._own_proc_pool = True
        return self._proc_pool

    def _remote_record(self):
        """The live arena record for process probes, or ``None``.

        ``None`` means this query probes in-process instead: the shards
        cannot be snapshotted (fault wrappers, route planners) or shared
        memory is unavailable.  Every ``None`` is counted.
        """
        from repro import parallel as par

        try:
            token = par.sharded_snapshot_token(self)
        except par.UnsupportedSearcher as exc:
            self.process_fallbacks += 1
            self.last_fallback_reason = f"unsupported searcher: {exc}"
            return None
        if not par.parallel_available():
            self.process_fallbacks += 1
            self.last_fallback_reason = "shared memory unavailable"
            return None
        if self._arena_manager is None:
            self._arena_manager = par.ArenaManager()
        manager = self._arena_manager
        record = manager.current
        if record is not None and record.token == token:
            return record
        old_token = record.token if record is not None else None
        spec, arrays = par.build_sharded_snapshot(self)
        record = manager.publish(
            token, arrays, spec, refs=par.sharded_snapshot_refs(self)
        )
        if old_token is not None and self._proc_pool is not None \
                and not self._proc_pool.closed:
            self._proc_pool.unpin_all(old_token)
        return record

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _compile(self, predicate: "Predicate | CompiledPredicate") -> CompiledPredicate:
        if isinstance(predicate, CompiledPredicate):
            if len(predicate) != len(self.table):
                raise ValueError(
                    f"compiled predicate covers {len(predicate)} entities, "
                    f"table has {len(self.table)}"
                )
            return predicate
        return predicate.compile(self.table)

    def plan(
        self, predicate: "Predicate | CompiledPredicate", k: int,
        ef_search: int = 64,
    ) -> ShardPlan:
        """The routing plan one query would execute (EXPLAIN-style)."""
        raw = (predicate.predicate
               if isinstance(predicate, CompiledPredicate) else predicate)
        return self.router.plan(raw, k=k, ef_search=ef_search,
                                scale_ef=self.scale_ef)

    def _probe_shard(
        self,
        decision: ShardDecision,
        compiled: CompiledPredicate,
        query: np.ndarray,
        k: int,
        remote=None,
    ) -> tuple[dict, object | None, np.ndarray]:
        """Execute one probed shard's local search.

        Returns ``(record, found, gids)`` where ``record`` is the
        per-shard telemetry dict, ``found`` is the local
        :class:`~repro.hnsw.hnsw.SearchResult` (``None`` when the shard
        had nothing to search or its probe failed under the resilience
        policy), and ``gids`` maps local ids back to global ids.

        With ``remote`` (an arena record from :meth:`_remote_record`),
        the local search runs in a pool worker over the shared-memory
        snapshot instead of in-process; a crashed worker raises
        :class:`~repro.parallel.pool.WorkerCrash` out of the closure,
        which the resilience machinery below treats like any probe
        exception.

        Exceptions from the shard propagate when no resilience policy
        is attached (fail-fast).  With a policy, ``Exception``s are
        absorbed into the record's ``status``/``failure`` accounting;
        ``BaseException`` (``KeyboardInterrupt``/``SystemExit``) always
        propagates regardless of policy.
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
            "status": "ok",
            "attempts": 0,
            "failure": None,
        }
        gids = self.assignment.global_ids[decision.shard_id]
        local_mask = compiled.mask[gids]
        if not local_mask.any():
            # Probed per the plan, but the materialized local mask is
            # empty — nothing to search, trivially successful.
            return record, None, gids
        shard = self.shards[decision.shard_id]
        local = CompiledPredicate(compiled.predicate, local_mask)

        if self._shard_planners is not None:
            planner = self._shard_planners[decision.shard_id]

            def run_search():
                """One planner-routed attempt (resilience closure).

                The shard router's summary-based local selectivity
                estimate rides along as the planner's prior.
                """
                return planner.search(
                    query, local, k, ef_search=decision.ef_search,
                    selectivity_hint=decision.est_selectivity,
                )
        elif remote is not None:
            pool = self._process_pool()
            token = remote.token
            pin = (token, {"manifest": remote.arena.manifest(),
                           "spec": remote.spec})
            mask_bytes = local_mask.tobytes()
            payload = {
                "token": token,
                "shard": decision.shard_id,
                "query": np.ascontiguousarray(query, dtype=np.float32),
                "k": k,
                "ef_search": decision.ef_search,
                "mask_digest": hashlib.sha1(mask_bytes).digest(),
                "masks": {hashlib.sha1(mask_bytes).digest(): mask_bytes},
            }
            worker_id = decision.shard_id % pool.num_workers

            def run_search():
                """One attempt in a pool worker (resilience closure)."""
                found, _elapsed = pool.call(
                    worker_id, "probe_shard", payload, pin=pin
                )
                return found
        else:
            def run_search():
                """One attempt of the local search (resilience closure)."""
                return shard.search(query, local, k,
                                    ef_search=decision.ef_search)

        if self.resilience is None:
            found = run_search()
            record["attempts"] = 1
        else:
            outcome = resilient_probe(
                decision.shard_id, run_search, len(shard),
                self.resilience, self.breakers[decision.shard_id],
            )
            record["status"] = outcome.status
            record["attempts"] = outcome.attempts
            record["failure"] = outcome.failure
            if not outcome.ok:
                return record, None, gids
            found = outcome.result
        record["distance_computations"] = int(found.distance_computations)
        record["hops"] = int(found.hops)
        record["returned"] = int(len(found))
        if self._shard_planners is not None:
            # Route telemetry only exists on planner-routed results;
            # the key set of default-path records stays pinned.
            record["route_chosen"] = found.route_chosen
            record["route_reason"] = found.route_reason
            record["fallback_triggered"] = found.fallback_triggered
            record["estimator_error"] = found.estimator_error
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
        prunes provably-empty shards; each probed shard searches its
        local subgraph over the sliced mask (sequentially, or across
        ``shard_workers`` threads); sorted per-shard results merge
        streamingly into the global top-k.  Under a resilience policy,
        shards that fail past their retry budget are dropped and the
        result degrades to the survivors' partial top-k with exact
        ``shards_failed``/``shards_timed_out`` accounting.
        """
        if self._closed:
            raise RuntimeError(
                "ShardedAcornIndex is closed; close() released its "
                "probe pools and shared-memory arenas"
            )
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        compiled = self._compile(predicate)
        plan = self.plan(compiled, k=k, ef_search=ef_search)

        remote = None
        if self.executor == "process":
            remote = self._remote_record()
        if remote is not None:
            self._arena_manager.acquire(remote)
        try:
            probed = [d for d in plan.decisions if not d.pruned]
            if self.shard_workers > 1 and len(probed) > 1:
                # Futures fan-out: executor.map re-raises anything a
                # probe raised — including BaseException, which must
                # never be folded into failure accounting.  On the
                # process path the threads only block on worker pipes.
                probe_outcomes = list(self._scatter_executor().map(
                    lambda d: self._probe_shard(
                        d, compiled, query, k, remote=remote
                    ),
                    probed,
                ))
            else:
                probe_outcomes = [
                    self._probe_shard(d, compiled, query, k, remote=remote)
                    for d in probed
                ]
        finally:
            if remote is not None:
                self._arena_manager.release(remote)

        outcomes = {rec["shard"]: (rec, found, gids)
                    for rec, found, gids in probe_outcomes}
        streams = []
        children = []
        est_rows: list[float] = []
        statuses: list[str] = []
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
            record, found, gids = outcomes[decision.shard_id]
            per_shard.append(record)
            est_rows.append(
                decision.est_selectivity * len(self.shards[decision.shard_id])
            )
            statuses.append(record["status"])
            if found is not None:
                streams.append(zip(
                    found.distances.tolist(),
                    gids[found.ids].tolist(),
                ))
                children.append(found)

        failed = statuses.count("failed")
        timed_out = statuses.count("timed_out")
        degraded = (failed + timed_out) > 0
        merged = merge_topk(streams, k)
        owned = {}
        routed = [c for c in children if c.route_chosen]
        if routed:
            from repro.routing.cost import ALL_ROUTES

            counts = Counter(c.route_chosen for c in routed)
            # Majority route across probed shards; ties break in
            # ALL_ROUTES order (pre-filter first).
            order = {r: i for i, r in enumerate(ALL_ROUTES)}
            owned["route_chosen"] = max(
                counts,
                key=lambda r: (counts[r], -order.get(r, len(order))),
            )
            owned["route_reason"] = "shards: " + ", ".join(
                f"{r}x{counts[r]}"
                for r in sorted(counts, key=lambda r: order.get(r, len(order)))
            )
            owned["estimator_error"] = float(
                np.mean([c.estimator_error for c in routed])
            )
        return SearchResult.from_pairs(
            merged,
            per_shard=tuple(per_shard),
            **fold_telemetry(
                children,
                shards_probed=plan.n_probed,
                shards_pruned=plan.n_pruned,
                shards_failed=failed,
                shards_timed_out=timed_out,
                degraded=degraded,
                recall_ceiling=(
                    recall_ceiling(est_rows, [s == "ok" for s in statuses])
                    if degraded else 1.0
                ),
                **owned,
            ),
        )

    # ``search_batch`` comes from BatchSearchMixin: batches run through
    # repro.engine and the shard counters surface in QueryStats.

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

    def breaker_states(self) -> list[str] | None:
        """Per-shard circuit-breaker state names (``None`` without a
        resilience policy)."""
        if self.breakers is None:
            return None
        return [breaker.state.value for breaker in self.breakers]

    def open_breaker_fraction(self) -> float:
        """Fraction of shard circuit breakers currently open (0.0
        without a resilience policy).

        The serving layer's breaker-aware load shedding reads this as
        its health signal: when the fraction crosses the configured
        threshold, new arrivals are rejected instead of queued against
        an index that can only answer degraded.
        """
        if self.breakers is None or not self.breakers:
            return 0.0
        open_count = sum(
            1 for breaker in self.breakers
            if breaker.state is BreakerState.OPEN
        )
        return open_count / len(self.breakers)

    def stats(self) -> dict:
        """Operator-facing build summary: shard sizes and per-shard stats."""
        return {
            "n_shards": self.n_shards,
            "num_vectors": len(self),
            "num_deleted": self.num_deleted,
            "partitioner": self.partitioner.spec(),
            "shard_sizes": [len(shard) for shard in self.shards],
            "breakers": self.breaker_states(),
            "shards": [shard.stats() for shard in self.shards],
        }
