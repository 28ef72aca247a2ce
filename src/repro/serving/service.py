"""Asyncio front end: request coalescing, admission control, backpressure.

:class:`AcornService` is the request-path entry point over any searcher
the batch engine accepts (:class:`~repro.core.acorn.AcornIndex`,
:class:`~repro.shard.sharded.ShardedAcornIndex`, a routed planner, …).
Three mechanisms compose:

- **Work-conserving coalescing.**  ``await service.submit(...)`` parks
  each admitted query in a FIFO buffer, and the buffer leaves as one
  :class:`~repro.engine.engine.QueryBatch` when the first of three
  things happens: it holds ``max_batch`` queries; **nothing is in
  flight** — checked when a query arrives and again when a batch
  completes, so an idle service takes a query at once; or the oldest
  query's ``latency_budget_ms`` deadline expires.  Where the batch runs
  depends on the engine's executor.  Under ``executor="sync"`` the
  engine searches in-process, and the GIL would keep a second thread
  from overlapping anything, so the batch runs on the event-loop thread
  inside the flush: nothing is ever in flight, and a realtime batch
  holds one query.  Under ``executor="process"`` the batch goes to a
  single dispatch thread (``loop.run_in_executor``) that ships it to
  the worker processes while the loop keeps admitting, and arrivals
  during a search ride together as the next batch ("batch while busy",
  the group-commit shape).  Batch size is therefore a consequence of
  load, and the budget is the *maximum* time a query sits in the
  buffer, never an intended one.
- **Admission control.**  Before a query may enter the buffer it must
  pass, in order: the global ``max_pending`` backlog bound, the
  tenant's bounded queue, and the tenant's token bucket
  (:mod:`repro.serving.tenancy`).  A failed check resolves the call
  *immediately* with ``status="rejected"`` and a machine-readable
  reason — load shedding is explicit, never an exception or a hang.
- **Failure accounting.**  When the searcher raises, every query of
  that batch gets the exception itself from its ``submit`` and is
  counted ``failed``; the service keeps serving, and after
  :meth:`AcornService.drain` ``ok + failed + rejected == offered``.

All time flows through a pluggable :class:`~repro.utils.clock.Clock`.
Under a :class:`~repro.utils.clock.SystemClock` (``realtime=True``) the
idle check runs and the deadline flush is driven by one
``loop.call_later`` timer for the oldest pending query.  Under a
:class:`~repro.utils.clock.FakeClock` a batch takes zero virtual time,
so "idle" carries no information and no real timers exist: only the
size and deadline triggers apply, and the caller (a test) advances
the clock and calls :meth:`AcornService.pump` / :meth:`AcornService.drain`,
which makes every admission decision, batch
composition, and latency figure bit-for-bit deterministic — no test
sleeps.
"""

from __future__ import annotations

import asyncio
import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.searcher import check_search_args
from repro.engine.engine import QueryBatch, SearchEngine
from repro.serving.tenancy import TenantQuota, TenantRegistry, TenantState
from repro.telemetry import QueryStats
from repro.utils.clock import Clock, SystemClock

# Machine-readable rejection reasons (the admission log records these).
REJECT_OVERLOAD = "service-overloaded"
REJECT_TENANT_QUEUE = "tenant-queue-full"
REJECT_TENANT_QUOTA = "tenant-quota"
REJECT_CLOSED = "service-closed"

STATUS_OK = "ok"
STATUS_REJECTED = "rejected"


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
        engine_workers: worker processes of the internal
            :class:`~repro.engine.engine.SearchEngine` under
            ``executor="process"`` (unused by ``"sync"``).
        executor: the engine's executor — ``"sync"`` (default) runs
            each batch inline on the event-loop thread; ``"process"``
            hands it to a dispatch thread that ships multi-query
            batches to the zero-copy shared-memory worker pool
            (``docs/parallelism.md``).  Byte-identical results either
            way; ``"process"`` moves the GIL-bound traversal loops off
            the event loop's host process.
    """

    k: int = 10
    ef_search: int = 64
    max_batch: int = 32
    latency_budget_ms: float = 5.0
    max_pending: int = 256
    default_quota: TenantQuota = dataclasses.field(default_factory=TenantQuota)
    quotas: dict[str, TenantQuota] = dataclasses.field(default_factory=dict)
    engine_workers: int = 1
    executor: str = "sync"

    def __post_init__(self) -> None:
        from repro.parallel import resolve_executor

        resolve_executor(self.executor)
        check_search_args(self.k, self.ef_search)
        # Written as ``not value >= bound`` so NaN is refused too.
        if not self.max_batch >= 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if not self.latency_budget_ms >= 0:
            raise ValueError(
                f"latency_budget_ms must be >= 0, got {self.latency_budget_ms}"
            )
        if not self.max_pending >= 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if not self.engine_workers >= 1:
            raise ValueError(
                f"engine_workers must be >= 1, got {self.engine_workers}"
            )


@dataclasses.dataclass(frozen=True)
class ServedResponse:
    """What one ``submit`` call resolves to — never an exception for
    load shedding.

    Attributes:
        tenant_id: the submitting tenant.
        status: ``"ok"`` or ``"rejected"`` (shed at admission).
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
        """Milliseconds from admission until the batch's search started:
        buffer time, plus (process executor only) time queued behind an
        earlier batch on the dispatch thread (0.0 when rejected)."""
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
    mutation, and future resolution all happen on that loop; so does
    the batched search under ``executor="sync"``.  Only a process
    engine's batch leaves it (``run_in_executor`` on a single-thread
    dispatch pool, started by the first such batch).

    Args:
        searcher: any :class:`~repro.core.searcher.Searcher` (what the
            batch engine accepts).
        config: serving knobs; defaults are test-friendly.
        clock: time source.  A :class:`SystemClock` (default) runs the
            deadline flush on real ``loop.call_later`` timers; any
            other clock (e.g. :class:`~repro.utils.clock.FakeClock`)
            switches the service to virtual mode, where a driver calls
            :meth:`pump`/:meth:`drain` instead and nothing sleeps.
    """

    def __init__(
        self,
        searcher,
        config: ServingConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.config = config or ServingConfig()
        self.clock = clock or SystemClock()
        self.realtime = isinstance(self.clock, SystemClock)
        self.searcher = searcher
        if self.table is None:
            raise ValueError(
                "AcornService needs a searcher with an attribute table to "
                "compile tenant predicates against"
            )
        self.engine = SearchEngine(
            searcher, num_workers=self.config.engine_workers,
            executor=self.config.executor,
        )
        self.tenants = TenantRegistry(
            self.config.default_quota, self.config.quotas, self.clock
        )
        self._pending: list[_PendingQuery] = []
        self._inflight: set[asyncio.Task] = set()
        self._inflight_queries = 0
        self._timer: asyncio.TimerHandle | None = None
        #: The process executor's dispatch thread, started by its first
        #: batch; an in-process engine never has one.
        self._dispatch_pool: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False
        self.admission_log: list[tuple[str, str]] = []
        self._counters = {
            "offered": 0,
            "admitted": 0,
            "rejected": 0,
            "ok": 0,
            "failed": 0,
            # No partial answers exist; the key stays (always 0) for
            # callers that sum ok + degraded + rejected.
            "degraded": 0,
            "batches_dispatched": 0,
        }

    @property
    def table(self):
        """The table tenant predicates currently compile against.

        Re-read from the searcher on every access: lifecycle searchers
        swap their base table on compaction, and a mask compiled against
        a stale table must not be applied to the new base.  Searchers
        validate masks by table identity, so a mask compiled here just
        before a compaction is recompiled snapshot-side rather than
        misapplied.
        """
        return self.searcher.table

    # ------------------------------------------------------------------
    # Admission + submission
    # ------------------------------------------------------------------

    def _admission_verdict(self, tenant: TenantState) -> str | None:
        """None to admit, else the rejection reason.

        Check order matters and is part of the contract: the global
        backlog bound, then the tenant's queue bound, and only then the
        tenant's token bucket — a query must have a seat before it
        spends a token.
        """
        if self._closed:
            return REJECT_CLOSED
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

        Never raises for load shedding — that resolves to a
        ``rejected`` response.  An exception the searcher raises for
        this query's batch is raised here as itself.
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

    # ------------------------------------------------------------------
    # Coalescing + dispatch
    # ------------------------------------------------------------------

    def _idle(self) -> bool:
        """True when no realtime batch is in flight, so holding a query
        back could not buy it any company (always, under an in-process
        engine).

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
        return dispatched

    def _flush(self, now: float) -> None:
        """Hand the oldest ``<= max_batch`` pending queries to the
        engine as one batch — the one exit from the buffer, whichever
        trigger (size, idle dispatcher, deadline) fired.

        An in-process engine (``executor="sync"``) answers the batch
        right here on the event-loop thread; a process engine's batch
        leaves for the dispatch thread, and the loop keeps admitting.
        """
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
        self._counters["batches_dispatched"] += 1
        # The oldest pending query changes: its deadline gets the timer.
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self.engine.executor == "process":
            self._inflight_queries += take
            task = self._loop.create_task(self._run_batch(queries, dispatch_s))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
        else:
            # Nothing is ever in flight, so the wait is the buffer's
            # alone and the service is the clock delta across the search.
            start_s = self.clock.monotonic()
            try:
                outcome = self.engine.search_batch(self._batch(queries))
            except BaseException as exc:
                self._resolve(queries, exc, dispatch_s)
                if not isinstance(exc, Exception):
                    raise  # interrupts still propagate
            else:
                self._resolve(queries, outcome, dispatch_s, 0.0,
                              self.clock.monotonic() - start_s)
        self._arm_timer()

    def _batch(self, queries: list[_PendingQuery]) -> QueryBatch:
        return QueryBatch.build(
            np.stack([q.query for q in queries]),
            [q.compiled for q in queries],
            k=self.config.k,
            ef_search=self.config.ef_search,
        )

    def _search_stamped(self, batch: QueryBatch):
        """Runs on the dispatch thread: when the search really started,
        and its outcome."""
        return self.clock.monotonic(), self.engine.search_batch(batch)

    async def _run_batch(
        self, queries: list[_PendingQuery], dispatch_s: float
    ) -> None:
        """A process engine's batch, run on the dispatch thread."""
        if self._dispatch_pool is None:
            self._dispatch_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serving-dispatch"
            )
        batch = self._batch(queries)
        handoff_s = self.clock.monotonic()
        try:
            start_s, outcome = await self._loop.run_in_executor(
                self._dispatch_pool, self._search_stamped, batch
            )
        except BaseException as exc:
            self._resolve(queries, exc, dispatch_s)
            if not isinstance(exc, Exception):
                raise  # interrupts and cancellation still propagate
        else:
            # A batch flushed while the dispatch thread is busy queues
            # behind it; that is waiting, not service.
            self._resolve(queries, outcome, dispatch_s,
                          max(start_s - handoff_s, 0.0),
                          self.clock.monotonic() - start_s)
        finally:
            self._inflight_queries -= len(queries)
            # Whatever arrived during this search leaves together now.
            if self._idle():
                self._flush(self.clock.monotonic())

    def _resolve(
        self,
        queries: list[_PendingQuery],
        outcome,
        dispatch_s: float,
        behind_s: float = 0.0,
        exec_s: float = 0.0,
    ) -> None:
        """Settle one batch's futures, on the loop thread.

        ``outcome`` is the engine's :class:`BatchResult`, or the
        exception the search raised: then every rider gets that
        exception itself and is counted ``failed``.  A query waited from
        admission to ``dispatch_s``, plus ``behind_s`` queued behind an
        earlier batch; ``exec_s`` is the clock delta across the engine
        call (zero under a FakeClock, so the clock jumps a virtual-time
        replay makes between arrivals never masquerade as service time).
        """
        if isinstance(outcome, BaseException):
            for item in queries:
                self.tenants.get(item.tenant_id).failed += 1
                self._counters["failed"] += 1
                if not item.future.done():
                    item.future.set_exception(outcome)
            return
        exec_ms = max(exec_s, 0.0) * 1000.0
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
            self.tenants.get(item.tenant_id).ok += 1
            self._counters["ok"] += 1
            response = ServedResponse(
                tenant_id=item.tenant_id,
                status=STATUS_OK,
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
        completion.  Every admitted query's future resolves (with its
        response, or with the searcher's exception) before this
        returns."""
        while self._pending:
            self._flush(self.clock.monotonic())
        while self._inflight:
            await asyncio.gather(*list(self._inflight))

    async def aclose(self) -> None:
        """Stop admitting, drain in-flight work, release the pools."""
        self._closed = True
        # The flush that empties the buffer also drops the deadline timer.
        await self.drain()
        if self._dispatch_pool is not None:
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
        ``ok + failed + rejected == offered``.  ``degraded`` is always 0
        (no partial answers exist).
        """
        return {
            **self._counters,
            "pending": len(self._pending),
            "inflight": self._inflight_queries,
            "tenants": {
                t.tenant_id: t.counters() for t in self.tenants.known()
            },
        }
