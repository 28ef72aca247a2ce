"""Concurrent batched query execution over frozen index snapshots.

The serving-side counterpart of the index structures: a
:class:`SearchEngine` takes a :class:`QueryBatch` of (vector, predicate)
queries, compiles predicates once through an LRU bitmask cache, freezes
the underlying index's adjacency snapshot, and fans the queries across a
``ThreadPoolExecutor``.  Results come back in submission order — byte
identical to a sequential loop — with one
:class:`~repro.engine.instrumentation.QueryStats` record per query and
batch-level p50/p95/p99 summaries.

Any searcher exposing ``search(query, predicate, k, ef_search=...) ->
SearchResult`` works: the ACORN indices, the router, and every baseline.
Thread safety rests on two invariants established elsewhere:

- adjacency snapshots are frozen read-only arrays
  (:func:`repro.core.search.freeze_graph`'s immutability contract);
- distance counting is lock-protected
  (:class:`repro.vectors.distance.DistanceComputer`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.engine.cache import CacheInfo, PredicateCache
from repro.predicates.base import CompiledPredicate, Predicate
from repro.telemetry import QueryStats, SearchResult


def _result_stats(
    index: int, result: SearchResult, elapsed: float, cache_hit: bool
) -> QueryStats:
    """The result's telemetry plus the three fields the engine owns
    (shared by every executor path, so counters agree across them)."""
    return result.stamped(
        query_index=index, predicate_cache_hit=cache_hit, wall_time_s=elapsed
    )


def _tally(values) -> dict[str, int]:
    """Occurrences of each non-empty value, sorted by value."""
    return dict(sorted(Counter(v for v in values if v).items()))


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _percentiles(values) -> dict:
    from repro.eval.stats import percentile_summary

    return dataclasses.asdict(percentile_summary(values))


#: ``rule(column, field default)`` for each summary rule a
#: :class:`QueryStats` field may name in its ``summary`` metadata.
_SUMMARY_RULES = {
    "sum": lambda column, _: sum(column),
    "count": lambda column, _: sum(1 for value in column if value),
    "count_false": lambda column, _: sum(1 for value in column if not value),
    "min": lambda column, default: min(column, default=default),
    "max": lambda column, default: max(column, default=default),
    "mean": lambda column, _: _mean(column),
    "mean_abs": lambda column, _: _mean([abs(value) for value in column]),
    "tally": lambda column, _: _tally(column),
    "percentiles": lambda column, _: _percentiles(column),
}

#: ``(field, default, summary key, rule)`` in ``summary()`` order:
#: latency first (it sits beside the batch's own wall time and qps),
#: then field declaration order.
_SUMMARY_ROWS = sorted(
    (
        (f.name, f.default, key, _SUMMARY_RULES[rule])
        for f in dataclasses.fields(QueryStats)
        for key, rule in f.metadata["summary"].items()
    ),
    key=lambda row: row[0] != "wall_time_s",
)


def resolve_table(searcher):
    """Find the attribute table a searcher compiles predicates against.

    Checks ``searcher.table`` first, then ``searcher.index.table`` (the
    router's shape).  Returns None when the searcher carries no table —
    such engines only accept pre-compiled predicates.
    """
    table = getattr(searcher, "table", None)
    if table is not None:
        return table
    return getattr(getattr(searcher, "index", None), "table", None)


@dataclasses.dataclass
class QueryBatch:
    """An ordered batch of hybrid queries sharing one K and ef_search.

    Attributes:
        queries: (q, dim) float32 query matrix.
        predicates: one predicate (raw or compiled) per query row.
        k: neighbors requested per query.
        ef_search: search-effort knob forwarded to the searcher.
    """

    queries: np.ndarray
    predicates: list
    k: int
    ef_search: int = 64

    @classmethod
    def build(cls, queries, predicates, k: int, ef_search: int = 64) -> "QueryBatch":
        """Normalize raw inputs into a validated batch.

        Args:
            queries: (q, dim) matrix, a single vector, or an empty
                sequence (the empty batch).
            predicates: one predicate per query, or a single predicate
                broadcast to every query (the engine's cache then
                materializes its mask exactly once).
            k: neighbors per query (must be positive).
            ef_search: search-effort knob.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries = np.asarray(queries, dtype=np.float32)
        if queries.size == 0:
            queries = queries.reshape(0, queries.shape[-1] if queries.ndim >= 2 else 0)
        else:
            queries = np.atleast_2d(queries)
        if isinstance(predicates, (Predicate, CompiledPredicate)):
            predicates = [predicates] * queries.shape[0]
        else:
            predicates = list(predicates)
            if len(predicates) != queries.shape[0]:
                raise ValueError(
                    f"QueryBatch.build got {queries.shape[0]} queries but "
                    f"{len(predicates)} predicates; pass exactly one "
                    "predicate per query, or a single Predicate/"
                    "CompiledPredicate to broadcast across the batch"
                )
        return cls(
            queries=queries,
            predicates=predicates,
            k=int(k),
            ef_search=int(ef_search),
        )

    def __len__(self) -> int:
        return int(self.queries.shape[0])


@dataclasses.dataclass
class BatchResult:
    """Everything one batch execution produced, in submission order.

    Attributes:
        results: one :class:`SearchResult` per query, ordered by query
            index regardless of thread completion order.
        stats: one :class:`QueryStats` per query, same order.
        wall_time_s: wall-clock seconds for the whole batch (compile +
            fan-out + gather).
        num_workers: worker threads the batch actually used.
    """

    results: list[SearchResult]
    stats: list[QueryStats]
    wall_time_s: float
    num_workers: int

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> SearchResult:
        return self.results[index]

    @property
    def qps(self) -> float:
        """Batch throughput in queries per second."""
        if self.wall_time_s <= 0:
            return float("inf")
        return len(self.results) / self.wall_time_s

    def summary(self) -> dict:
        """Batch-level aggregation of the per-query instrumentation.

        Returns a JSON-serializable dict: batch size, throughput, then
        one entry per ``summary`` row the :class:`QueryStats` fields
        declare (latency and distance-computation p50/p95/p99 via
        :func:`repro.eval.stats.percentile_summary`, cache
        effectiveness, shard/route/quantization totals, ...).
        """
        out = {
            "queries": len(self.results),
            "num_workers": self.num_workers,
            "wall_time_s": self.wall_time_s,
            "qps": self.qps,
        }
        for name, default, key, rule in _SUMMARY_ROWS:
            out[key] = rule([getattr(s, name) for s in self.stats], default)
        return out


class SearchEngine:
    """Batched, concurrent query execution over one searcher.

    The engine owns a worker pool and a predicate cache; one engine per
    served index is the intended deployment shape.  Execution is
    deterministic: for a fixed searcher and batch, results are byte
    identical for any ``num_workers`` (queries never share mutable
    state — the adjacency snapshot is frozen, each search binds its own
    distance computer, and compiled masks are read-only inputs).

    Args:
        searcher: any object exposing ``search(query, predicate, k,
            ef_search=...) -> SearchResult``.
        num_workers: worker threads for batch fan-out; ``None`` or 1
            runs queries inline on the calling thread.
        cache_size: LRU capacity of the compiled-predicate cache.
        table: attribute table for predicate compilation; defaults to
            the searcher's own table (``searcher.table`` or
            ``searcher.index.table``).
        executor: batch fan-out mechanism.  ``"thread"`` (default)
            keeps the historical ``ThreadPoolExecutor`` path;
            ``"sync"`` forces the inline sequential loop regardless of
            ``num_workers``; ``"process"`` fans chunks across a
            persistent spawned worker pool reading the index through a
            zero-copy shared-memory arena (``docs/parallelism.md``).
            All three produce byte-identical results — the process path
            falls back to threads when shared memory is unavailable or
            the searcher cannot be snapshotted (``process_fallbacks`` /
            ``last_fallback_reason`` record every such downgrade).
        process_pool: a shared
            :class:`~repro.parallel.pool.ProcessPool` to dispatch on;
            ``None`` lazily creates a pool owned (and closed) by this
            engine.
    """

    def __init__(
        self,
        searcher,
        num_workers: int | None = None,
        cache_size: int = 64,
        table=None,
        executor: str = "thread",
        process_pool=None,
    ) -> None:
        from repro.parallel import resolve_executor

        self.searcher = searcher
        self.num_workers = 1 if num_workers is None else max(int(num_workers), 1)
        self._table_override = table
        self.cache = PredicateCache(cache_size)
        self._pool: ThreadPoolExecutor | None = None
        self.executor = resolve_executor(executor)
        self._proc_pool = process_pool
        self._own_proc_pool = process_pool is None
        self._arena_manager = None
        self._closed = False
        #: process→thread downgrades this engine performed, and why the
        #: latest one happened (telemetry; tests pin clean fallback).
        self.process_fallbacks = 0
        self.last_fallback_reason = ""
        #: chunks re-dispatched after a worker crash, and chunks that
        #: ultimately ran inline because the respawned worker crashed
        #: again (the never-fail ladder: process → retry → inline).
        self.chunk_retries = 0
        self.chunk_inline_fallbacks = 0

    @property
    def table(self):
        """The table predicates currently compile against.

        Re-resolved from the searcher on every read (unless an explicit
        ``table=`` was given) because lifecycle searchers swap their
        base table on compaction — a table pinned at construction would
        go stale and compile masks against rows the published epoch no
        longer serves.
        """
        if self._table_override is not None:
            return self._table_override
        return resolve_table(self.searcher)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pools and shared-memory arenas down.

        Idempotent and interpreter-teardown safe: a second ``close``
        (including the implicit one from ``__del__`` after an explicit
        close, or a ``__del__`` racing a failed ``__init__``) is a
        no-op rather than an error.  After an explicit close,
        :meth:`search_batch` raises ``RuntimeError`` — a closed engine
        has unlinked its shared-memory segments and must not silently
        re-create them.
        """
        self._closed = True
        pool = getattr(self, "_pool", None)
        if pool is not None:
            self._pool = None
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

    def __enter__(self) -> "SearchEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_workers,
                thread_name_prefix="repro-engine",
            )
        return self._pool

    # ------------------------------------------------------------------
    # Process executor plumbing
    # ------------------------------------------------------------------

    def _process_pool(self):
        """The engine's process pool (lazily created when owned)."""
        if self._proc_pool is None:
            from repro.parallel import ProcessPool

            self._proc_pool = ProcessPool(self.num_workers)
            self._own_proc_pool = True
        return self._proc_pool

    def _ensure_arena(self, searcher, token: str):
        """The live arena record for ``token``, publishing on change.

        Publishing retires the previous epoch's arena (unlinked once
        its refcount drains) and broadcasts an unpin so warm workers
        drop their stale mappings instead of accumulating them.
        """
        from repro.parallel import ArenaManager, build_snapshot, snapshot_refs

        if self._arena_manager is None:
            self._arena_manager = ArenaManager()
        manager = self._arena_manager
        record = manager.current
        if record is not None and record.token == token:
            return record
        old_token = record.token if record is not None else None
        spec, arrays = build_snapshot(searcher)
        record = manager.publish(
            token, arrays, spec, refs=snapshot_refs(searcher)
        )
        if old_token is not None and self._proc_pool is not None \
                and not self._proc_pool.closed:
            self._proc_pool.unpin_all(old_token)
        return record

    def _process_pairs(self, searcher, batch, compiled, hit_flags, run_one):
        """Fan contiguous query chunks across the process pool.

        Returns ordered ``(result, stats)`` pairs, or ``None`` when the
        process path cannot run (unsupported searcher, shared memory
        unavailable) and the caller should use the thread path instead —
        the fallback is counted, never silent.  A chunk whose worker
        crashes is retried once on the respawned slot, then runs inline
        in the parent: a dying worker degrades throughput, never the
        batch.
        """
        from repro import parallel as par

        try:
            token = par.snapshot_token(searcher)
        except par.UnsupportedSearcher as exc:
            self.process_fallbacks += 1
            self.last_fallback_reason = f"unsupported searcher: {exc}"
            return None
        if not par.parallel_available():
            self.process_fallbacks += 1
            self.last_fallback_reason = "shared memory unavailable"
            return None

        record = self._ensure_arena(searcher, token)
        manager = self._arena_manager
        manager.acquire(record)
        try:
            pool = self._process_pool()
            pin = (token, {"manifest": record.arena.manifest(),
                           "spec": record.spec})
            nq = len(batch)
            bounds = np.linspace(
                0, nq, min(self.num_workers, nq) + 1
            ).astype(int)
            jobs = []
            for slot in range(len(bounds) - 1):
                lo, hi = int(bounds[slot]), int(bounds[slot + 1])
                if lo == hi:
                    continue
                digests = []
                masks = {}
                for row in range(lo, hi):
                    mask = compiled[row].mask
                    digest = hashlib.sha1(mask.tobytes()).digest()
                    digests.append(digest)
                    if digest not in masks:
                        masks[digest] = mask.tobytes()
                payload = {
                    "token": token,
                    "queries": np.ascontiguousarray(batch.queries[lo:hi]),
                    "k": batch.k,
                    "ef_search": batch.ef_search,
                    "mask_digests": digests,
                    "masks": masks,
                }
                jobs.append((slot, lo, hi, payload))

            def run_chunk(job):
                slot, lo, hi, payload = job
                try:
                    out = pool.call(slot, "search_chunk", payload, pin=pin)
                except par.WorkerCrash:
                    self.chunk_retries += 1
                    try:
                        out = pool.call(
                            slot, "search_chunk", payload, pin=pin
                        )
                    except par.WorkerCrash:
                        self.chunk_inline_fallbacks += 1
                        return [run_one(i) for i in range(lo, hi)]
                return [
                    (result, _result_stats(lo + offset, result, elapsed,
                                           hit_flags[lo + offset]))
                    for offset, (result, elapsed) in enumerate(out)
                ]

            if len(jobs) == 1:
                chunk_outputs = [run_chunk(jobs[0])]
            else:
                chunk_outputs = list(self._executor().map(run_chunk, jobs))
            return [pair for output in chunk_outputs for pair in output]
        finally:
            manager.release(record)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def search_batch(
        self,
        batch,
        predicates=None,
        k: int | None = None,
        ef_search: int = 64,
    ) -> BatchResult:
        """Execute a batch; returns results in submission order.

        Accepts either a prebuilt :class:`QueryBatch` or the raw pieces
        (``queries, predicates, k, ef_search``) which are normalized via
        :meth:`QueryBatch.build`.
        """
        if self._closed:
            raise RuntimeError(
                "SearchEngine is closed; create a new engine (close() "
                "released its worker pools and shared-memory arenas)"
            )
        if not isinstance(batch, QueryBatch):
            if k is None:
                raise ValueError(
                    "k is required when passing raw queries/predicates"
                )
            batch = QueryBatch.build(batch, predicates, k=k, ef_search=ef_search)

        start = time.perf_counter()
        # Materialize the frozen snapshot up front so worker threads
        # share one immutable adjacency instead of racing to build it.
        freeze = getattr(self.searcher, "freeze", None)
        if callable(freeze):
            freeze()
        # Snapshot-per-batch hook: lifecycle searchers pin one published
        # epoch here, so every query in the batch reads the same
        # immutable (base, delta, tombstone) state even while writers
        # publish newer epochs concurrently.  Released after the batch.
        acquire = getattr(self.searcher, "acquire_read_snapshot", None)
        snapshot = acquire() if callable(acquire) else None
        searcher = self.searcher if snapshot is None else snapshot
        try:
            # Batch-lifecycle hook: adaptive routers reset/mark their
            # per-batch feedback epoch here, before the first query runs.
            begin_batch = getattr(self.searcher, "begin_batch", None)
            if callable(begin_batch):
                begin_batch()
            # Compile against the pinned snapshot's base table when one
            # exists: the searcher's current table can move to a newer
            # epoch mid-batch, and masks must match the table the
            # queries will actually be filtered over.
            table = self._table_override
            if table is None and snapshot is not None:
                table = getattr(
                    getattr(snapshot, "base", None), "table", None
                )
            if table is None:
                table = self.table
            compiled, hit_flags = self._compile_predicates(
                batch.predicates, table
            )

            if len(batch) == 0:
                return BatchResult(
                    results=[], stats=[],
                    wall_time_s=time.perf_counter() - start,
                    num_workers=self.num_workers,
                )

            def run_one(index: int) -> tuple[SearchResult, QueryStats]:
                begin = time.perf_counter()
                result = searcher.search(
                    batch.queries[index], compiled[index], batch.k,
                    ef_search=batch.ef_search,
                )
                elapsed = time.perf_counter() - begin
                return result, _result_stats(
                    index, result, elapsed, hit_flags[index]
                )

            pairs = None
            if self.executor == "process":
                pairs = self._process_pairs(
                    searcher, batch, compiled, hit_flags, run_one
                )
            if pairs is None:
                if (self.executor == "sync" or self.num_workers == 1
                        or len(batch) == 1):
                    pairs = [run_one(i) for i in range(len(batch))]
                else:
                    # executor.map yields in submission order, so result
                    # ordering is deterministic whatever the completion
                    # order.
                    pairs = list(
                        self._executor().map(run_one, range(len(batch)))
                    )
        finally:
            if snapshot is not None:
                self.searcher.release_read_snapshot(snapshot)

        return BatchResult(
            results=[result for result, _ in pairs],
            stats=[stats for _, stats in pairs],
            wall_time_s=time.perf_counter() - start,
            num_workers=self.num_workers,
        )

    def _compile_predicates(self, predicates, table=None) -> tuple[list, list]:
        """Compile each predicate through the LRU cache (main thread).

        Pre-compiled predicates pass through untouched and count as
        cache hits (no mask materialization happened on their behalf).
        """
        if table is None:
            table = self.table
        compiled: list[CompiledPredicate] = []
        hit_flags: list[bool] = []
        for predicate in predicates:
            if isinstance(predicate, CompiledPredicate):
                compiled.append(predicate)
                hit_flags.append(True)
                continue
            if table is None:
                raise ValueError(
                    "engine has no attribute table to compile predicates "
                    "against; pass CompiledPredicate inputs or table="
                )
            mask, was_hit = self.cache.get_or_compile(predicate, table)
            compiled.append(mask)
            hit_flags.append(was_hit)
        return compiled, hit_flags

    def cache_info(self) -> CacheInfo:
        """Hit/miss/size counters of the predicate cache."""
        return self.cache.info()
