"""Shared fixtures for the serving suite.

Everything here runs on virtual time: an autouse fixture bans real
``time.sleep`` *and* positive-delay ``asyncio.sleep`` (the asyncio
extension of the chaos suite's no-real-sleep guard — the serving layer
must coordinate purely through the injected FakeClock and zero-delay
event-loop hops).  One session-scoped world keeps the per-test index
build cost down.
"""

import asyncio
import time as time_module

import numpy as np
import pytest

from repro.attributes.table import AttributeTable
from repro.core import AcornIndex, AcornParams
from repro.predicates import Equals, TruePredicate
from repro.serving import AcornService, ServingConfig
from repro.utils.clock import FakeClock

N, DIM, SEED = 160, 10, 17
K = 5


@pytest.fixture(autouse=True)
def forbid_real_sleep(monkeypatch):
    """Any real wait in this suite is a bug — fail loudly.

    ``time.sleep`` raises outright; ``asyncio.sleep`` raises for any
    positive delay but still permits the zero-delay hop
    (``asyncio.sleep(0)``) :func:`replay` uses to let submissions reach
    the coalescing buffer.
    """

    def _no_sleep(seconds):
        raise AssertionError(
            f"real time.sleep({seconds}) called inside the serving suite; "
            "all waiting must go through the injected FakeClock"
        )

    real_async_sleep = asyncio.sleep

    async def _no_async_sleep(delay, result=None):
        if delay > 0:
            raise AssertionError(
                f"positive asyncio.sleep({delay}) called inside the "
                "serving suite; virtual-clock code may only take "
                "zero-delay hops"
            )
        return await real_async_sleep(0, result)

    monkeypatch.setattr(time_module, "sleep", _no_sleep)
    monkeypatch.setattr(asyncio, "sleep", _no_async_sleep)


def make_world(n=N, dim=DIM, seed=SEED):
    """Clustered vectors + a table with the columns the suite filters on."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((5, dim)).astype(np.float32)
    assign = rng.integers(0, 5, size=n)
    vectors = (centers[assign]
               + 0.3 * rng.standard_normal((n, dim))).astype(np.float32)
    table = AttributeTable(n)
    table.add_int_column("year", rng.integers(2000, 2010, size=n))
    table.add_string_column("cat", [f"c{i % 4}" for i in range(n)])
    return vectors, table


@pytest.fixture(scope="session")
def serving_world():
    """(vectors, table, index, queries, predicates) shared by the suite."""
    vectors, table = make_world()
    index = AcornIndex.build(
        vectors, table,
        params=AcornParams(m=8, gamma=6, m_beta=12, ef_construction=24),
        seed=3,
    )
    rng = np.random.default_rng(99)
    queries = rng.standard_normal((12, DIM)).astype(np.float32)
    predicates = [
        Equals("cat", f"c{i % 4}") if i % 3 else TruePredicate()
        for i in range(12)
    ]
    return vectors, table, index, queries, predicates


def make_service(index, clock=None, **overrides):
    """A virtual-mode service with test-friendly defaults."""
    defaults = dict(k=K, ef_search=32, max_batch=4,
                    latency_budget_ms=10.0, engine_workers=1)
    defaults.update(overrides)
    return AcornService(
        index, ServingConfig(**defaults), clock=clock or FakeClock()
    )


def run(coro):
    """Run one coroutine to completion on a fresh event loop."""
    return asyncio.run(coro)


async def replay(service, arrivals, queries, predicates):
    """Replay an open-loop arrival trace against a FakeClock service.

    For each ``(time_s, tenant_id, query_index)`` arrival: advance the
    clock to it, pump the deadlines that expired before it (so batch
    composition depends only on the trace), submit without waiting,
    and take one zero-delay hop so the submission reaches the buffer.
    Then drain.  Returns one response per arrival, in arrival order.
    """
    clock = service.clock
    tasks = []
    for time_s, tenant_id, query_index in arrivals:
        gap = time_s - clock.monotonic()
        if gap > 0:
            clock.advance(gap)
        await service.pump()
        tasks.append(asyncio.ensure_future(service.submit(
            queries[query_index], predicates[query_index],
            tenant_id=tenant_id,
        )))
        await asyncio.sleep(0)
    await service.drain()
    return list(await asyncio.gather(*tasks))
