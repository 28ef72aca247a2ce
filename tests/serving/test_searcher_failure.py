"""A searcher exception behind the service: riders get it, nothing leaks.

The searcher is a two-shard ``ShardedAcornIndex`` whose shard 1 raises.
On both clocks every ``submit`` raises the shard's own exception type,
``aclose()`` returns and joins the dispatch thread, no task exception
is left unretrieved, and the summary reconciles:
``ok + failed + rejected == offered`` with ``degraded`` a constant 0.
"""

import asyncio
import gc
import threading

import pytest

from repro.predicates import TruePredicate
from repro.serving import AcornService, ServingConfig
from repro.shard import HashPartitioner, ShardedAcornIndex
from repro.utils.clock import FakeClock, SystemClock

from tests.serving.conftest import K, make_world, run


class ShardDown(RuntimeError):
    """What the broken shard raises."""


class _RaisingShard:
    def __init__(self, inner):
        self.inner = inner

    def search(self, *args, **kwargs):
        raise ShardDown("shard 1 is down")

    def __len__(self):
        return len(self.inner)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture(scope="module")
def broken_world():
    vectors, table = make_world()
    index = ShardedAcornIndex.build(
        vectors, table, partitioner=HashPartitioner(2), variant="flat",
        seed=3,
    )
    index.shards[1] = _RaisingShard(index.shards[1])
    return vectors, index


def _dispatch_threads():
    return {t for t in threading.enumerate()
            if t.name.startswith("repro-serving-dispatch")}


@pytest.mark.parametrize("clock", [FakeClock, SystemClock])
def test_shard_exception_reaches_every_rider_and_service_closes(
    broken_world, clock
):
    vectors, index = broken_world
    before = _dispatch_threads()
    service = AcornService(index, ServingConfig(
        k=K, ef_search=32, max_batch=2, latency_budget_ms=60_000.0,
    ), clock=clock())
    unretrieved = []

    async def drive():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: unretrieved.append(context))
        tasks = []
        for i in range(3):
            tasks.append(asyncio.ensure_future(
                service.submit(vectors[i], TruePredicate(), tenant_id="t")))
            await asyncio.sleep(0)
        await service.aclose()
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        gc.collect()
        return outcomes

    outcomes = run(drive())
    assert [type(o) for o in outcomes] == [ShardDown] * 3
    assert unretrieved == []
    assert _dispatch_threads() <= before
    summary = service.summary()
    assert summary["offered"] == 3
    assert (summary["ok"], summary["failed"], summary["rejected"]) == (0, 3, 0)
    assert summary["ok"] + summary["failed"] + summary["rejected"] == 3
    assert summary["degraded"] == 0
    assert summary["pending"] == summary["inflight"] == 0
    assert summary["tenants"]["t"]["failed"] == 3
