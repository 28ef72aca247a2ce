"""Concurrent batched query execution over frozen index snapshots.

The serving-side counterpart of the index structures: a
:class:`SearchEngine` takes a :class:`QueryBatch` of (vector, predicate)
queries, compiles predicates once through an LRU bitmask cache, freezes
the underlying index's adjacency snapshot, and answers the queries
inline on the calling thread — or, with ``executor="process"``, in
contiguous chunks on worker processes over a shared-memory snapshot
(:mod:`repro.parallel`).  Results come back in submission order — byte
identical to a sequential loop — with one
:class:`~repro.engine.instrumentation.QueryStats` record per query and
batch-level p50/p95/p99 summaries.

Any :class:`~repro.core.searcher.Searcher` works: the ACORN indices,
the router, the sharded and lifecycle indexes, and every baseline.
The engine starts no threads of its own, but callers may drive one
engine or index from several; that rests on two invariants established
elsewhere:

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

import numpy as np

from repro.core.searcher import check_search_args
from repro.engine.cache import CacheInfo, PredicateCache
from repro.predicates.base import CompiledPredicate, Predicate
from repro.telemetry import QueryStats, SearchResult

#: The fields only a result has, which a per-query record leaves out.
_RESULT_ONLY = tuple(
    SearchResult.__dataclass_fields__.keys()
    - QueryStats.__dataclass_fields__.keys()
)


def _result_stats(
    index: int, result: SearchResult, elapsed: float, cache_hit: bool
) -> QueryStats:
    """The result's telemetry plus the three fields the engine owns
    (shared by every executor path, so counters agree across them).

    One copy of the record the searcher built, minus the fields only a
    result has: a record is sparse (:class:`QueryStats`), so the copy
    carries exactly the fields the searcher's layers set.
    """
    stats = object.__new__(QueryStats)
    values = stats.__dict__
    values.update(result.__dict__)
    for name in _RESULT_ONLY:
        values.pop(name, None)
    values["query_index"] = index
    values["predicate_cache_hit"] = cache_hit
    values["wall_time_s"] = elapsed
    return stats


def _run_inline(searcher, batch, compiled, hit_flags, rows, results, stats):
    """Answer ``rows`` of ``batch`` on the calling thread, appending each
    query's result and record to ``results`` / ``stats``."""
    search = searcher.search
    queries, k, ef_search = batch.queries, batch.k, batch.ef_search
    clock = time.perf_counter
    for index in rows:
        begin = clock()
        result = search(queries[index], compiled[index], k, ef_search=ef_search)
        elapsed = clock() - begin
        results.append(result)
        stats.append(_result_stats(index, result, elapsed, hit_flags[index]))


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
            k: neighbors per query (a positive integer).
            ef_search: search-effort knob (a positive integer).

        Raises:
            ValueError: on a non-positive ``k`` / ``ef_search``, queries
                of more than two dimensions, or a predicate count that
                does not match the query count.
            TypeError: on a non-integral ``k`` / ``ef_search``.
        """
        k, ef_search = check_search_args(k, ef_search)
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim > 2:
            raise ValueError(
                f"queries must be one vector or a (q, dim) matrix, got "
                f"shape {queries.shape}"
            )
        if queries.size == 0:
            queries = queries.reshape(0, queries.shape[-1] if queries.ndim == 2 else 0)
        elif queries.ndim < 2:
            queries = queries.reshape(1, -1)
        # A list is never a predicate: skip the ABC check for it.
        if type(predicates) is not list and isinstance(
                predicates, (Predicate, CompiledPredicate)):
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
            queries=queries, predicates=predicates, k=k, ef_search=ef_search
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
        num_workers: how many ways the batch actually ran: 1 when it
            ran inline on the calling thread, otherwise the number of
            chunks dispatched to worker processes.
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
        effectiveness, shard/route totals, ...).
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
    """Batched query execution over one searcher.

    The engine owns a predicate cache and, under
    ``executor="process"``, a worker-process pool; one engine per served
    index is the intended deployment shape.  Execution is
    deterministic: for a fixed searcher and batch, results are byte
    identical whichever executor runs them (queries never share mutable
    state — the adjacency snapshot is frozen, each search binds its own
    distance computer, and compiled masks are read-only inputs).

    Args:
        searcher: a :class:`~repro.core.searcher.Searcher`; the engine
            calls its ``search``, ``freeze``, read-snapshot pair and
            ``table``.
        num_workers: worker processes under ``executor="process"`` (a
            batch splits into at most this many contiguous chunks);
            unused by ``"sync"``.
        cache_size: LRU capacity of the compiled-predicate cache.
        table: attribute table for predicate compilation; defaults to
            the pinned searcher's own ``table``.
        executor: ``"sync"`` (default) answers every query inline on
            the calling thread; ``"process"`` ships contiguous chunks
            of a batch to a persistent spawned worker pool reading the
            index through a zero-copy shared-memory arena
            (``docs/parallelism.md``).  Both produce byte-identical
            results.  A one-query batch runs inline under either (a
            pipe round trip costs more than the search), and the
            process path runs the batch inline when shared memory is
            unavailable or the searcher cannot be snapshotted
            (``process_fallbacks`` / ``last_fallback_reason`` record
            every such downgrade).
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
        executor: str = "sync",
        process_pool=None,
    ) -> None:
        from repro.parallel import resolve_executor

        self.searcher = searcher
        self.num_workers = 1 if num_workers is None else max(int(num_workers), 1)
        self._table_override = table
        self.cache = PredicateCache(cache_size)
        self.executor = resolve_executor(executor)
        self._proc_pool = process_pool
        self._own_proc_pool = process_pool is None
        self._arena_manager = None
        self._closed = False
        #: process→inline downgrades this engine performed, and why the
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

        Re-read from the searcher on every access (unless an explicit
        ``table=`` was given) because lifecycle searchers swap their
        base table on compaction — a table pinned at construction would
        go stale and compile masks against rows the published epoch no
        longer serves.
        """
        if self._table_override is not None:
            return self._table_override
        return self.searcher.table

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool and shared-memory arenas down.

        Idempotent and interpreter-teardown safe: a second ``close``
        (including the implicit one from ``__del__`` after an explicit
        close, or a ``__del__`` racing a failed ``__init__``) is a
        no-op rather than an error.  After an explicit close,
        :meth:`search_batch` raises ``RuntimeError`` — a closed engine
        has unlinked its shared-memory segments and must not silently
        re-create them.
        """
        self._closed = True
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
        from repro.parallel import ArenaManager, snapshot_refs
        from repro.persistence import encode_index

        if self._arena_manager is None:
            self._arena_manager = ArenaManager()
        manager = self._arena_manager
        record = manager.current
        if record is not None and record.token == token:
            return record
        old_token = record.token if record is not None else None
        record = manager.publish(token, encode_index(searcher),
                                 refs=snapshot_refs(searcher))
        if old_token is not None and self._proc_pool is not None \
                and not self._proc_pool.closed:
            self._proc_pool.unpin_all(old_token)
        return record

    def _run_process(self, searcher, batch, compiled, hit_flags,
                     results, stats):
        """Run contiguous query chunks on the process pool.

        Appends every query's result and record to ``results`` /
        ``stats`` in order and returns the number of chunks dispatched,
        or returns ``None`` with nothing appended when the process path
        cannot run (unsupported searcher, shared memory unavailable) and
        the caller should run the batch inline instead — the fallback
        is counted, never silent.  A chunk whose worker crashes is
        retried once on the respawned slot, then runs inline in the
        parent: a dying worker degrades throughput, never the batch.
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
            pin = (token, {"arena": record.arena.handle()})
            nq = len(batch)
            # One chunk per slot: map_calls takes one call per worker.
            ways = min(self.num_workers, pool.num_workers, nq)
            bounds = np.linspace(0, nq, ways + 1).astype(int)
            chunks = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
            calls = []
            for slot, (lo, hi) in enumerate(chunks):
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
                calls.append((slot, "search_chunk", payload, pin))

            replies = pool.map_calls(calls)
            crashed = [i for i, reply in enumerate(replies)
                       if isinstance(reply, par.WorkerCrash)]
            if crashed:
                self.chunk_retries += len(crashed)
                retried = pool.map_calls([calls[i] for i in crashed])
                for i, reply in zip(crashed, retried):
                    replies[i] = reply
            for (lo, hi), reply in zip(chunks, replies):
                if isinstance(reply, par.WorkerCrash):
                    self.chunk_inline_fallbacks += 1
                    _run_inline(searcher, batch, compiled, hit_flags,
                                range(lo, hi), results, stats)
                    continue
                for index, (result, elapsed) in enumerate(reply, lo):
                    results.append(result)
                    stats.append(_result_stats(
                        index, result, elapsed, hit_flags[index]))
            return len(chunks)
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
                "released its worker pool and shared-memory arenas)"
            )
        if not isinstance(batch, QueryBatch):
            if k is None:
                raise ValueError(
                    "k is required when passing raw queries/predicates"
                )
            batch = QueryBatch.build(batch, predicates, k=k, ef_search=ef_search)

        start = time.perf_counter()
        # Materialize the frozen snapshot up front so every query (and
        # the arena, on the process path) reads one immutable adjacency.
        self.searcher.freeze()
        # Lifecycle searchers pin one published epoch here, so every
        # query in the batch reads the same immutable (base, delta,
        # tombstone) state even while writers publish newer epochs
        # concurrently; any other searcher pins itself.
        searcher = self.searcher.acquire_read_snapshot()
        try:
            # Compile against the pinned table: the searcher's current
            # one can move to a newer epoch mid-batch, and masks must
            # match the table the queries will actually be filtered over.
            table = self._table_override
            if table is None:
                table = searcher.table
            compiled, hit_flags = self._compile_predicates(
                batch.predicates, table
            )
            results: list[SearchResult] = []
            stats: list[QueryStats] = []
            ways = None
            if self.executor == "process" and len(batch) > 1:
                ways = self._run_process(
                    searcher, batch, compiled, hit_flags, results, stats
                )
            if ways is None:
                _run_inline(searcher, batch, compiled, hit_flags,
                            range(len(batch)), results, stats)
                ways = 1
        finally:
            self.searcher.release_read_snapshot(searcher)

        return BatchResult(
            results=results,
            stats=stats,
            wall_time_s=time.perf_counter() - start,
            num_workers=ways,
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
