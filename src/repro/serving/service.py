"""Asyncio front end: request coalescing, admission control, backpressure.

:class:`AcornService` is the request-path entry point over any searcher
the batch engine accepts (:class:`~repro.core.acorn.AcornIndex`,
:class:`~repro.shard.sharded.ShardedAcornIndex`, a routed planner, …).
Three mechanisms compose:

- **Work-conserving coalescing.**  ``await service.submit(...)`` parks
  each admitted query in a FIFO buffer, and the buffer leaves as one
  :class:`~repro.engine.engine.QueryBatch` for the single dispatch
  thread (``loop.run_in_executor``) when the first of three things
  happens: it holds ``max_batch`` queries; **nothing is in flight** —
  checked when a query arrives and again when a batch completes, so an
  idle dispatcher takes a query at once and arrivals during a search
  ride together as the next batch ("batch while busy", the group-commit
  shape); or the oldest query's ``latency_budget_ms`` deadline expires.
  Batch size is therefore a consequence of load — about one under light
  traffic, growing toward ``max_batch`` as the dispatcher saturates —
  and the budget is the *maximum* time a query sits in the buffer, never
  an intended one.  Inside the batch the
  :class:`~repro.engine.engine.SearchEngine` fans out across its own
  worker pool.
- **Admission control.**  Before a query may enter the buffer it must
  pass, in order: circuit-breaker shedding (fraction of open shard
  breakers vs ``shed_breaker_fraction``), the global ``max_pending``
  backlog bound, the tenant's bounded queue, and the tenant's token
  bucket (:mod:`repro.serving.tenancy`).  A failed check resolves the
  call *immediately* with ``status="rejected"`` and a machine-readable
  reason — load shedding is explicit, never an exception or a hang.
- **Degraded accounting.**  Queries that execute against a partially
  failed sharded index surface ``status="degraded"`` with the engine's
  exact ``recall_ceiling`` bookkeeping intact, so SLO dashboards can
  separate "fast but partial" from "healthy".

All time flows through a pluggable :class:`~repro.utils.clock.Clock`.
Under a :class:`~repro.utils.clock.SystemClock` (``realtime=True``) the
idle check runs and the deadline flush is driven by one
``loop.call_later`` timer for the oldest pending query.  Under a
:class:`~repro.utils.clock.FakeClock` a batch takes zero virtual time,
so "idle" carries no information and no real timers exist: only the
size and deadline triggers apply, and a driver (the load generator, or
a test) advances the clock and calls :meth:`AcornService.pump` /
:meth:`AcornService.drain`, which makes every admission decision, batch
composition, and latency figure bit-for-bit deterministic — no test
sleeps.
"""

from __future__ import annotations

import asyncio
import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.engine.engine import QueryBatch, SearchEngine, resolve_table
from repro.serving.tenancy import TenantQuota, TenantRegistry, TenantState
from repro.telemetry import QueryStats
from repro.utils.clock import Clock, SystemClock

# Machine-readable rejection reasons (the admission log records these).
REJECT_BREAKERS = "breakers-open"
REJECT_OVERLOAD = "service-overloaded"
REJECT_TENANT_QUEUE = "tenant-queue-full"
REJECT_TENANT_QUOTA = "tenant-quota"
REJECT_CLOSED = "service-closed"

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_REJECTED = "rejected"
STATUS_APPLIED = "applied"


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Tuning knobs for :class:`AcornService`.

    Attributes:
        k: neighbors returned per query (service-wide).
        ef_search: search-effort knob forwarded to the searcher.
        max_batch: coalescing buffer size that triggers an immediate
            dispatch.
        latency_budget_ms: upper bound, in milliseconds, on the time a
            query sits in the coalescing buffer while the dispatcher is
            busy before a (possibly partial) batch is handed over on
            its behalf.  An idle realtime dispatcher never makes a
            query wait for it.
        max_pending: global bound on the service-side backlog —
            queries in the coalescing buffer plus queries dispatched
            but not yet answered; arrivals beyond it are shed with
            ``service-overloaded``.
        default_quota: admission quota for tenants without an explicit
            override.
        quotas: per-tenant quota overrides keyed by tenant id.
        shed_breaker_fraction: when the serving searcher exposes shard
            circuit breakers and at least this fraction of them is
            open, new arrivals are shed with ``breakers-open``
            (``None`` disables breaker-aware shedding).
        engine_workers: worker threads of the internal
            :class:`~repro.engine.engine.SearchEngine`.
        executor: the engine's batch fan-out mechanism — ``"thread"``
            (default), ``"sync"``, or ``"process"`` for the zero-copy
            shared-memory worker pool (``docs/parallelism.md``).
            Byte-identical results either way; ``"process"`` moves the
            GIL-bound traversal loops off the event loop's host
            process.
    """

    k: int = 10
    ef_search: int = 64
    max_batch: int = 32
    latency_budget_ms: float = 5.0
    max_pending: int = 256
    default_quota: TenantQuota = dataclasses.field(default_factory=TenantQuota)
    quotas: dict[str, TenantQuota] = dataclasses.field(default_factory=dict)
    shed_breaker_fraction: float | None = None
    engine_workers: int = 1
    executor: str = "thread"

    def __post_init__(self) -> None:
        from repro.parallel import resolve_executor

        resolve_executor(self.executor)
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.latency_budget_ms < 0:
            raise ValueError(
                f"latency_budget_ms must be >= 0, got {self.latency_budget_ms}"
            )
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.shed_breaker_fraction is not None and not (
            0.0 < self.shed_breaker_fraction <= 1.0
        ):
            raise ValueError(
                "shed_breaker_fraction must be in (0, 1], got "
                f"{self.shed_breaker_fraction}"
            )


@dataclasses.dataclass(frozen=True)
class ServedResponse:
    """What one ``submit`` call resolves to — never an exception for
    load shedding or degraded shards.

    Attributes:
        tenant_id: the submitting tenant.
        status: ``"ok"``, ``"degraded"`` (partial top-k with a recall
            ceiling), or ``"rejected"`` (shed at admission).
        reason: machine-readable shed reason (``""`` unless rejected).
        result: the :class:`~repro.hnsw.hnsw.SearchResult` (``None``
            when rejected).
        stats: the enriched :class:`QueryStats` record (``None`` when
            rejected) — carries ``queue_wait_ms``,
            ``batch_size_served`` and ``tenant_id``.
        latency_ms: milliseconds from admission to response.
    """

    tenant_id: str
    status: str
    reason: str = ""
    result: object | None = None
    stats: QueryStats | None = None
    latency_ms: float = 0.0

    @property
    def queue_wait_ms(self) -> float:
        """Milliseconds from admission until the batch started on the
        dispatch thread: buffer time plus time queued behind an earlier
        batch (0.0 when rejected)."""
        return self.stats.queue_wait_ms if self.stats is not None else 0.0

    @property
    def batch_size_served(self) -> int:
        """Size of the GEMM batch this query rode in (0 when rejected)."""
        return self.stats.batch_size_served if self.stats is not None else 0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def rejected(self) -> bool:
        return self.status == STATUS_REJECTED

    @property
    def degraded(self) -> bool:
        return self.status == STATUS_DEGRADED


@dataclasses.dataclass(frozen=True)
class WriteResponse:
    """What one ``submit_write`` call resolves to.

    Writes share the read path's admission gate (breakers, backlog,
    tenant queue, tenant quota) so a tenant cannot starve readers by
    flooding mutations, but they apply synchronously against the
    lifecycle delta rather than riding a coalesced GEMM batch.

    Attributes:
        tenant_id: the submitting tenant.
        op: ``"insert"`` or ``"delete"``.
        status: ``"applied"`` or ``"rejected"``.
        reason: machine-readable shed reason (``""`` unless rejected).
        external_id: the id the lifecycle assigned (insert) or the id
            targeted (delete); -1 when rejected.
        applied: for deletes, whether the id was live (inserts: True
            when applied).
        epoch: the lifecycle epoch current after the write (0 when
            rejected or when the searcher has no epoch counter).
    """

    tenant_id: str
    op: str
    status: str
    reason: str = ""
    external_id: int = -1
    applied: bool = False
    epoch: int = 0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_APPLIED

    @property
    def rejected(self) -> bool:
        return self.status == STATUS_REJECTED


@dataclasses.dataclass
class _PendingQuery:
    """One admitted query parked in the coalescing buffer."""

    tenant_id: str
    query: np.ndarray
    compiled: object
    cache_hit: bool
    enqueued_s: float
    deadline_s: float
    future: asyncio.Future


class AcornService:
    """Asyncio multi-tenant serving layer over a searcher.

    A service instance binds to the first event loop that calls
    :meth:`submit` and must stay on it.  Admission decisions, buffer
    mutation, and future resolution all happen on that loop; only the
    batched search itself leaves it (``run_in_executor`` on a
    single-thread dispatch pool).

    Args:
        searcher: anything the batch engine accepts (``search(query,
            predicate, k, ef_search=...)``).
        config: serving knobs; defaults are test-friendly.
        clock: time source.  A :class:`SystemClock` (default) runs the
            deadline flush on real ``loop.call_later`` timers; any
            other clock (e.g. :class:`~repro.utils.clock.FakeClock`)
            switches the service to virtual mode, where a driver calls
            :meth:`pump`/:meth:`drain` instead and nothing sleeps.
        table: attribute table predicates compile against; defaults to
            the searcher's own.
    """

    def __init__(
        self,
        searcher,
        config: ServingConfig | None = None,
        clock: Clock | None = None,
        table=None,
        compactor=None,
    ) -> None:
        self.config = config or ServingConfig()
        self.clock = clock or SystemClock()
        self.realtime = isinstance(self.clock, SystemClock)
        self.searcher = searcher
        self._table_override = table
        if self.table is None:
            raise ValueError(
                "AcornService needs an attribute table to compile tenant "
                "predicates against; pass table= or use a searcher that "
                "carries one"
            )
        self.engine = SearchEngine(
            searcher, num_workers=self.config.engine_workers, table=table,
            executor=self.config.executor,
        )
        self.tenants = TenantRegistry(
            self.config.default_quota, self.config.quotas, self.clock
        )
        self._pending: list[_PendingQuery] = []
        self._inflight: set[asyncio.Task] = set()
        self._inflight_queries = 0
        self._timer: asyncio.TimerHandle | None = None
        self._dispatch_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serving-dispatch"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False
        self.admission_log: list[tuple[str, str]] = []
        self._counters = {
            "offered": 0,
            "admitted": 0,
            "rejected": 0,
            "ok": 0,
            "degraded": 0,
            "batches_dispatched": 0,
        }
        # Writes keep their own ledger so summary()'s pinned read-side
        # accounting (offered == admitted + rejected) stays untouched.
        self.compactor = compactor
        self.write_counters = {
            "offered": 0,
            "applied": 0,
            "rejected": 0,
            "inserts": 0,
            "deletes": 0,
            "compactor_ticks": 0,
        }

    @property
    def table(self):
        """The table tenant predicates currently compile against.

        Re-resolved from the searcher on every read (unless an explicit
        ``table=`` was given): lifecycle searchers swap their base
        table on compaction, and a mask compiled against a stale table
        must not be applied to the new base.  Epoch snapshots validate
        masks by table identity, so a mask compiled here just before a
        compaction is recompiled snapshot-side rather than misapplied.
        """
        if self._table_override is not None:
            return self._table_override
        return resolve_table(self.searcher)

    # ------------------------------------------------------------------
    # Admission + submission
    # ------------------------------------------------------------------

    def open_breaker_fraction(self) -> float:
        """Fraction of the searcher's shard breakers currently open
        (0.0 for searchers without circuit breakers)."""
        probe = getattr(self.searcher, "open_breaker_fraction", None)
        if callable(probe):
            return float(probe())
        return 0.0

    def _admission_verdict(self, tenant: TenantState) -> str | None:
        """None to admit, else the rejection reason.

        Check order matters and is part of the contract: service-level
        health (breakers), then the global backlog bound, then the
        tenant's queue bound, and only then the tenant's token bucket —
        a query must have a seat before it spends a token.
        """
        if self._closed:
            return REJECT_CLOSED
        shed_at = self.config.shed_breaker_fraction
        if shed_at is not None and self.open_breaker_fraction() >= shed_at:
            return REJECT_BREAKERS
        # max_pending bounds the whole service-side backlog: queries
        # coalescing *plus* queries dispatched but not yet answered —
        # otherwise saturation just moves the unbounded queue behind
        # the dispatch thread where no admission check can see it.
        if (
            len(self._pending) + self._inflight_queries
            >= self.config.max_pending
        ):
            return REJECT_OVERLOAD
        if tenant.queue_depth >= tenant.quota.max_queue:
            return REJECT_TENANT_QUEUE
        if not tenant.bucket.try_take():
            return REJECT_TENANT_QUOTA
        return None

    async def submit(
        self, query, predicate, tenant_id: str = "default"
    ) -> ServedResponse:
        """Admit, coalesce, and answer one hybrid query.

        Never raises for load shedding or shard degradation — those
        resolve to ``rejected`` / ``degraded`` responses.  Searcher
        exceptions (no resilience policy installed) do propagate.
        """
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise RuntimeError(
                "AcornService is bound to another event loop; create one "
                "service per loop"
            )
        self._counters["offered"] += 1
        tenant = self.tenants.get(tenant_id)
        verdict = self._admission_verdict(tenant)
        self.admission_log.append((tenant_id, verdict or "admit"))
        if verdict is not None:
            tenant.rejected += 1
            self._counters["rejected"] += 1
            return ServedResponse(
                tenant_id=tenant_id, status=STATUS_REJECTED, reason=verdict
            )

        compiled, cache_hit = tenant.cache.get_or_compile(
            predicate, self.table
        )
        now = self.clock.monotonic()
        pending = _PendingQuery(
            tenant_id=tenant_id,
            query=np.asarray(query, dtype=np.float32),
            compiled=compiled,
            cache_hit=cache_hit,
            enqueued_s=now,
            deadline_s=now + self.config.latency_budget_ms / 1000.0,
            future=loop.create_future(),
        )
        self._pending.append(pending)
        tenant.queue_depth += 1
        tenant.admitted += 1
        self._counters["admitted"] += 1
        if len(self._pending) >= self.config.max_batch or self._idle():
            self._flush(now)
        else:
            self._arm_timer()
        return await pending.future

    async def submit_write(
        self,
        op: str,
        *,
        tenant_id: str = "default",
        vector=None,
        row=None,
        external_id: int | None = None,
    ) -> WriteResponse:
        """Admit and apply one mutation against the lifecycle searcher.

        ``op="insert"`` requires ``vector`` and ``row``; ``op="delete"``
        requires ``external_id``.  Writes pass through the same
        admission gate as reads (same check order, same token bucket),
        then apply synchronously to the searcher's delta index — the
        searcher must expose ``insert``/``delete``
        (:class:`~repro.lifecycle.manager.LifecycleIndex` does).
        Rejections resolve to a ``rejected`` response, never an
        exception; malformed calls (missing operands, unknown op,
        searcher without a write path) do raise.
        """
        if op not in ("insert", "delete"):
            raise ValueError(f"unknown write op {op!r}")
        apply = getattr(self.searcher, op, None)
        if not callable(apply):
            raise TypeError(
                "submit_write needs a searcher with insert/delete "
                "(e.g. repro.lifecycle.LifecycleIndex); "
                f"{type(self.searcher).__name__} has no {op}()"
            )
        if op == "insert" and (vector is None or row is None):
            raise ValueError("insert requires vector= and row=")
        if op == "delete" and external_id is None:
            raise ValueError("delete requires external_id=")
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise RuntimeError(
                "AcornService is bound to another event loop; create one "
                "service per loop"
            )
        self.write_counters["offered"] += 1
        tenant = self.tenants.get(tenant_id)
        verdict = self._admission_verdict(tenant)
        self.admission_log.append((tenant_id, verdict or f"admit-{op}"))
        if verdict is not None:
            # Billed to the tenant's write ledger, not `rejected`:
            # read-side offered/admitted/rejected must keep reconciling
            # in summary() under mixed read/write load.
            tenant.writes_rejected += 1
            self.write_counters["rejected"] += 1
            return WriteResponse(
                tenant_id=tenant_id, op=op, status=STATUS_REJECTED,
                reason=verdict,
            )
        if op == "insert":
            new_id = int(apply(vector, row))
            applied = True
            self.write_counters["inserts"] += 1
        else:
            new_id = int(external_id)
            applied = bool(apply(new_id))
            self.write_counters["deletes"] += 1
        self.write_counters["applied"] += 1
        self._tick_compactor()
        return WriteResponse(
            tenant_id=tenant_id, op=op, status=STATUS_APPLIED,
            external_id=new_id, applied=applied,
            epoch=int(getattr(self.searcher, "current_epoch", 0)),
        )

    def _tick_compactor(self) -> None:
        """Give the attached compactor (if any) a chance to run.

        Ticked after every applied write and on every :meth:`poll`, so
        compaction progresses on the service's clock — under a
        :class:`~repro.utils.clock.FakeClock` the whole maintenance
        schedule replays deterministically.
        """
        if self.compactor is None:
            return
        self.write_counters["compactor_ticks"] += 1
        self.compactor.tick()

    # ------------------------------------------------------------------
    # Coalescing + dispatch
    # ------------------------------------------------------------------

    def _idle(self) -> bool:
        """True when the realtime dispatch thread has nothing to do, so
        holding a query back could not buy it any company.

        Always False on a virtual clock: a batch takes zero virtual time
        there, and batch composition must stay a pure function of the
        arrival trace.
        """
        return self.realtime and self._inflight_queries == 0

    def _arm_timer(self) -> None:
        """Arm the deadline timer for the oldest pending query unless
        one is armed already (the oldest only changes on a flush)."""
        if (
            not self.realtime
            or self._timer is not None
            or not self._pending
            or self._loop is None
        ):
            return
        delay = max(self._pending[0].deadline_s - self.clock.monotonic(), 0.0)
        self._timer = self._loop.call_later(delay, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self.poll()
        self._arm_timer()  # poll flushed nothing: the timer ran early

    def poll(self) -> int:
        """Flush every batch that is due at the current clock reading.

        Returns the number of batches dispatched.  The realtime deadline
        timer calls this; virtual-clock drivers call it (via
        :meth:`pump`) after advancing the clock.
        """
        now = self.clock.monotonic()
        dispatched = 0
        while self._pending and (
            len(self._pending) >= self.config.max_batch
            or self._pending[0].deadline_s <= now
        ):
            self._flush(now)
            dispatched += 1
        self._tick_compactor()
        return dispatched

    def _flush(self, now: float) -> None:
        """Hand the oldest ``<= max_batch`` pending queries to the
        dispatch thread as one batch — the one exit from the buffer,
        whichever trigger (size, idle dispatcher, deadline) fired."""
        if not self._pending or self._loop is None:
            return
        take = min(len(self._pending), self.config.max_batch)
        queries = self._pending[:take]
        del self._pending[:take]
        for item in queries:
            self.tenants.get(item.tenant_id).queue_depth -= 1
        # A deadline-triggered flush that was observed late (virtual
        # clock jumped past it) is billed at the deadline, not the
        # observation time, so queue-wait accounting stays exact.
        dispatch_s = min(now, min(q.deadline_s for q in queries))
        self._inflight_queries += take
        task = self._loop.create_task(self._run_batch(queries, dispatch_s))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)
        self._counters["batches_dispatched"] += 1
        # The oldest pending query changed: its deadline gets the timer.
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._arm_timer()

    async def _run_batch(
        self, queries: list[_PendingQuery], dispatch_s: float
    ) -> None:
        try:
            await self._execute_batch(queries, dispatch_s)
        finally:
            self._inflight_queries -= len(queries)
            # Whatever arrived during this search leaves together now.
            if self._idle():
                self._flush(self.clock.monotonic())

    def _search_stamped(self, batch: QueryBatch):
        """Runs on the dispatch thread: when the search really started,
        and its outcome."""
        return self.clock.monotonic(), self.engine.search_batch(batch)

    async def _execute_batch(
        self, queries: list[_PendingQuery], dispatch_s: float
    ) -> None:
        batch = QueryBatch.build(
            np.stack([q.query for q in queries]),
            [q.compiled for q in queries],
            k=self.config.k,
            ef_search=self.config.ef_search,
        )
        assert self._loop is not None
        handoff_s = self.clock.monotonic()
        try:
            start_s, outcome = await self._loop.run_in_executor(
                self._dispatch_pool, self._search_stamped, batch
            )
        except BaseException as exc:  # searcher bug: fail every rider fast
            for item in queries:
                if not item.future.done():
                    item.future.set_exception(exc)
            raise
        # A batch flushed while the dispatch thread is busy queues behind
        # it; that is waiting, not service.  (Zero on a virtual clock.)
        behind_s = max(start_s - handoff_s, 0.0)
        # Execution cost is the clock delta across the engine call:
        # real seconds under a SystemClock, and exactly the searcher's
        # own virtual sleeps (resilience backoff) under a FakeClock —
        # the inter-arrival jumps a virtual driver makes while a batch
        # is parked must not masquerade as service time.
        exec_ms = max(self.clock.monotonic() - start_s, 0.0) * 1000.0
        for item, result, stats in zip(
            queries, outcome.results, outcome.stats
        ):
            wait_ms = (
                max(dispatch_s - item.enqueued_s, 0.0) + behind_s
            ) * 1000.0
            enriched = dataclasses.replace(
                stats,
                # The engine saw a pre-compiled mask (always a "hit");
                # the tenant-namespace lookup is the real cache verdict.
                predicate_cache_hit=item.cache_hit,
                queue_wait_ms=wait_ms,
                batch_size_served=len(queries),
                tenant_id=item.tenant_id,
            )
            tenant = self.tenants.get(item.tenant_id)
            if enriched.degraded:
                status = STATUS_DEGRADED
                tenant.degraded += 1
                self._counters["degraded"] += 1
            else:
                status = STATUS_OK
                tenant.ok += 1
                self._counters["ok"] += 1
            response = ServedResponse(
                tenant_id=item.tenant_id,
                status=status,
                result=result,
                stats=enriched,
                latency_ms=wait_ms + exec_ms,
            )
            if not item.future.done():
                item.future.set_result(response)

    # ------------------------------------------------------------------
    # Virtual-clock drivers + lifecycle
    # ------------------------------------------------------------------

    async def pump(self) -> None:
        """Flush due deadlines, then wait for all in-flight batches.

        The virtual-clock counterpart of the realtime timers: drivers
        advance the :class:`~repro.utils.clock.FakeClock` and pump.
        Awaiting in-flight work here is what guarantees deterministic
        batch composition — the next arrival only sees a settled
        buffer.
        """
        self.poll()
        while self._inflight:
            await asyncio.gather(*list(self._inflight))

    async def drain(self) -> None:
        """Flush everything pending regardless of deadline and wait for
        completion.  Every admitted query's future resolves before this
        returns — the no-hang guarantee the fault suite pins."""
        while self._pending:
            self._flush(self.clock.monotonic())
        while self._inflight:
            await asyncio.gather(*list(self._inflight))

    async def aclose(self) -> None:
        """Stop admitting, drain in-flight work, release the pools."""
        self._closed = True
        # The flush that empties the buffer also drops the deadline timer.
        await self.drain()
        self._dispatch_pool.shutdown(wait=True)
        self.engine.close()

    async def __aenter__(self) -> "AcornService":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Queries currently parked in the coalescing buffer."""
        return len(self._pending)

    def summary(self) -> dict:
        """JSON-serializable service counters.

        ``offered == admitted + rejected`` always; after :meth:`drain`,
        ``ok + degraded + rejected == offered`` — the accounting
        invariant ``tests/serving/test_loadgen.py`` pins.
        """
        return {
            **self._counters,
            "pending": len(self._pending),
            "inflight": self._inflight_queries,
            "tenants": {
                t.tenant_id: t.counters() for t in self.tenants.known()
            },
        }

    def write_summary(self) -> dict:
        """JSON-serializable write-path counters.

        ``offered == applied + rejected`` always.  Kept separate from
        :meth:`summary` so the read-side accounting invariant is
        untouched by write traffic.
        """
        out = dict(self.write_counters)
        out["epoch"] = int(getattr(self.searcher, "current_epoch", 0))
        if self.compactor is not None:
            out["compactor"] = self.compactor.stats()
        return out
