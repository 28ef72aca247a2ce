"""The realtime dispatch rule: batch only while the dispatcher is busy.

The rest of ``tests/serving`` runs on a FakeClock, where a batch takes
zero virtual time and only the size/deadline triggers exist.  Here the
service runs in realtime mode (a :class:`SystemClock`) over a searcher
whose batches block on a ``threading.Event``, so "a batch is in flight"
is a state the test holds open for as long as it likes — no sleeps, no
timing margins.  The one case that has to let a real ``call_later``
deadline fire uses a 2 ms budget and spins on zero-delay loop hops.
"""

import asyncio
import threading
import time

import numpy as np

from repro.serving.service import REJECT_CLOSED, AcornService, ServingConfig
from repro.utils.clock import SystemClock

from tests.serving.conftest import K, run

TIMEOUT_S = 10.0
LONG_BUDGET_MS = 60_000.0  # a deadline no test in this file can reach


class _GatedSearcher:
    """The real index behind a gate every batch must pass.

    ``begin_batch`` is the engine's once-per-batch hook and runs on the
    service's dispatch thread: ``entered`` is released when a batch gets
    that far, then the batch blocks until ``gate`` is set.
    """

    def __init__(self, index, open_gate=False):
        self.index = index
        self.table = index.table
        self.entered = threading.Semaphore(0)
        self.gate = threading.Event()
        if open_gate:
            self.gate.set()

    def begin_batch(self):
        self.entered.release()
        assert self.gate.wait(TIMEOUT_S), "test never opened the gate"

    def search(self, query, predicate, k, ef_search=None):
        return self.index.search(query, predicate, k, ef_search=ef_search)


class _SteppedClock(SystemClock):
    """Realtime mode on a clock the test sets by hand, so the
    wait/service split pins to exact values."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


def _service(searcher, clock=None, **overrides):
    config = dict(k=K, ef_search=32, max_batch=4, engine_workers=1,
                  latency_budget_ms=LONG_BUDGET_MS)
    config.update(overrides)
    service = AcornService(searcher, ServingConfig(**config), clock=clock)
    assert service.realtime
    return service


def _submit(service, world, i):
    _, _, _, queries, predicates = world
    return asyncio.ensure_future(
        service.submit(queries[i % 12], predicates[i % 12])
    )


async def _entered(searcher):
    """Wait (off the loop) until one more batch reached the gate."""
    loop = asyncio.get_running_loop()
    assert await loop.run_in_executor(
        None, searcher.entered.acquire, True, TIMEOUT_S
    )


async def _hops():
    """Enough zero-delay hops for a submit() to reach the buffer and a
    flushed batch to reach the dispatch pool."""
    for _ in range(4):
        await asyncio.sleep(0)


async def _hold_first(service, searcher, world):
    """Submit query 0 into an idle service and hold it in flight."""
    first = _submit(service, world, 0)
    await _entered(searcher)
    assert service.summary()["batches_dispatched"] == 1
    return first


class TestIdleDispatch:
    def test_idle_arrival_leaves_alone_at_once(self, serving_world):
        """Nothing in flight: no wait for company, no wait for a timer
        (the budget is a minute; the test would hang on it)."""
        searcher = _GatedSearcher(serving_world[2], open_gate=True)

        async def drive():
            async with _service(searcher) as service:
                responses = []
                for i in range(3):
                    responses.append(await _submit(service, serving_world, i))
                    assert service._timer is None
                return responses, service.summary()

        responses, summary = run(drive())
        assert [r.batch_size_served for r in responses] == [1, 1, 1]
        assert summary["batches_dispatched"] == 3
        for r in responses:
            assert r.ok
            assert r.queue_wait_ms < LONG_BUDGET_MS / 100
            assert r.latency_ms >= r.queue_wait_ms

    def test_results_match_direct_search(self, serving_world):
        _, _, index, queries, predicates = serving_world
        searcher = _GatedSearcher(index, open_gate=True)

        async def drive():
            async with _service(searcher, max_batch=3) as service:
                alone = await _submit(service, serving_world, 0)
                crowd = await asyncio.gather(
                    *[_submit(service, serving_world, i) for i in range(1, 9)]
                )
                return [alone, *crowd]

        for i, response in enumerate(run(drive())):
            direct = index.search(queries[i], predicates[i], K, ef_search=32)
            assert response.ok
            np.testing.assert_array_equal(response.result.ids, direct.ids)
            np.testing.assert_array_equal(
                response.result.distances, direct.distances
            )


class TestBatchWhileBusy:
    def test_arrivals_during_a_search_leave_together(self, serving_world):
        searcher = _GatedSearcher(serving_world[2])

        async def drive():
            async with _service(searcher) as service:
                first = await _hold_first(service, searcher, serving_world)
                riders = [_submit(service, serving_world, i) for i in (1, 2)]
                await _hops()
                assert service.pending_count == 2
                assert service.summary()["batches_dispatched"] == 1
                armed = service._timer
                assert armed is not None
                riders.append(_submit(service, serving_world, 3))
                await _hops()
                # Same oldest query, same deadline: the handle is kept.
                assert service._timer is armed
                searcher.gate.set()
                responses = await asyncio.gather(first, *riders)
                # The completion flush emptied the buffer.
                assert service._timer is None
                return responses, service.summary()

        (first, *riders), summary = run(drive())
        assert first.batch_size_served == 1
        assert [r.batch_size_served for r in riders] == [3, 3, 3]
        assert summary["batches_dispatched"] == 2
        assert summary["ok"] == 4

    def test_full_buffer_flushes_at_once_while_busy(self, serving_world):
        searcher = _GatedSearcher(serving_world[2])

        async def drive():
            async with _service(searcher, max_batch=3) as service:
                first = await _hold_first(service, searcher, serving_world)
                riders = [_submit(service, serving_world, i)
                          for i in range(1, 6)]
                await _hops()
                # Three left on the size trigger; two wait for a
                # completion, and the timer now guards the older of them.
                assert service.summary()["batches_dispatched"] == 2
                assert service.pending_count == 2
                assert service._timer is not None
                searcher.gate.set()
                responses = await asyncio.gather(first, *riders)
                return responses, service.summary()

        responses, summary = run(drive())
        assert [r.batch_size_served for r in responses] == [1, 3, 3, 3, 2, 2]
        assert summary["batches_dispatched"] == 3

    def test_budget_caps_the_buffer_wait_while_busy(self, serving_world):
        searcher = _GatedSearcher(serving_world[2])
        budget_ms = 2.0

        async def drive():
            async with _service(
                searcher, latency_budget_ms=budget_ms
            ) as service:
                first = await _hold_first(service, searcher, serving_world)
                late = _submit(service, serving_world, 1)
                await _hops()
                assert service.pending_count == 1
                give_up = time.monotonic() + TIMEOUT_S
                while service.pending_count and time.monotonic() < give_up:
                    await asyncio.sleep(0)
                # The deadline handed it over although the dispatcher
                # is still held by the first batch.
                assert service.pending_count == 0
                assert service.summary()["batches_dispatched"] == 2
                assert not first.done()
                searcher.gate.set()
                return await asyncio.gather(first, late)

        first, late = run(drive())
        assert late.batch_size_served == 1
        # Buffer wait (the whole budget) plus the time behind the
        # dispatch thread, all of it billed as waiting.
        assert late.queue_wait_ms >= budget_ms
        assert late.latency_ms >= late.queue_wait_ms

    def test_aclose_resolves_inflight_and_buffered(self, serving_world):
        searcher = _GatedSearcher(serving_world[2])

        async def drive():
            service = _service(searcher)
            first = await _hold_first(service, searcher, serving_world)
            buffered = [_submit(service, serving_world, i) for i in (1, 2)]
            await _hops()
            assert service.pending_count == 2
            closing = asyncio.ensure_future(service.aclose())
            await _hops()
            assert service.pending_count == 0
            assert service._timer is None
            refused = await _submit(service, serving_world, 3)
            searcher.gate.set()
            await asyncio.wait_for(closing, TIMEOUT_S)
            assert first.done() and all(t.done() for t in buffered)
            return [first.result(), *(t.result() for t in buffered)], \
                refused, service.summary()

        responses, refused, summary = run(drive())
        assert all(r.ok for r in responses)
        assert [r.batch_size_served for r in responses] == [1, 2, 2]
        assert refused.rejected and refused.reason == REJECT_CLOSED
        assert summary["pending"] == 0 and summary["inflight"] == 0
        assert summary["ok"] + summary["rejected"] == summary["offered"] == 4


class TestWaitVersusService:
    def test_time_behind_the_dispatcher_is_queue_wait(self, serving_world):
        """A batch flushed while the dispatch thread is busy starts when
        the thread gets to it; until then it is waiting, not in service."""
        searcher = _GatedSearcher(serving_world[2])
        clock = _SteppedClock()

        async def drive():
            async with _service(searcher, clock=clock, max_batch=2) as service:
                first = await _hold_first(service, searcher, serving_world)
                clock.now = 0.25
                early = _submit(service, serving_world, 1)
                await _hops()
                clock.now = 1.0
                full = _submit(service, serving_world, 2)  # size trigger
                await _hops()
                assert service.summary()["batches_dispatched"] == 2
                clock.now = 3.0
                searcher.gate.set()
                return await asyncio.gather(first, early, full)

        first, early, full = run(drive())
        assert (first.queue_wait_ms, first.latency_ms) == (0.0, 3000.0)
        # Flushed at t=1, started at t=3 when the thread came free, and
        # the stepped clock gives the search itself zero duration.
        assert early.queue_wait_ms == 750.0 + 2000.0
        assert full.queue_wait_ms == 0.0 + 2000.0
        assert early.latency_ms == early.queue_wait_ms
        assert full.latency_ms == full.queue_wait_ms
