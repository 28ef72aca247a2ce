"""Unit contracts of the serving layer: admission, coalescing, tenancy.

Every test drives an :class:`AcornService` on a FakeClock — admission
decisions, batch composition, and queue-wait accounting are asserted
as exact values, never via timing margins.
"""

import asyncio
import math

import numpy as np
import pytest

from repro.predicates import Equals, TruePredicate
from repro.serving import TenantQuota, TokenBucket
from repro.serving.service import (
    REJECT_CLOSED,
    REJECT_OVERLOAD,
    REJECT_TENANT_QUEUE,
    REJECT_TENANT_QUOTA,
    ServingConfig,
)
from repro.utils.clock import FakeClock

from tests.serving.conftest import make_service, run


class TestTokenBucket:
    def test_burst_then_deny(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        assert [bucket.try_take() for _ in range(5)] == (
            [True, True, True, True, False]
        )

    def test_refill_arithmetic_is_exact(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        for _ in range(4):
            assert bucket.try_take()
        clock.advance(1.0)  # exactly 2 tokens back
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
        clock.advance(1000.0)
        assert bucket.tokens == pytest.approx(3.0)

    def test_infinite_rate_never_denies(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=math.inf, burst=2.0, clock=clock)
        assert all(bucket.try_take() for _ in range(50))


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"rate_qps": 0.0}, {"rate_qps": -1.0}, {"burst": 0.5},
        {"max_queue": 0}, {"cache_size": 0},
        # NaN passes every ``<`` check; admitted, it rejected every
        # query of the tenant (burst) or never refilled (rate).
        {"rate_qps": math.nan}, {"burst": math.nan},
    ])
    def test_bad_quota_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TenantQuota(**kwargs)

    def test_infinite_rate_is_valid(self):
        assert TenantQuota(rate_qps=math.inf).rate_qps == math.inf

    @pytest.mark.parametrize("kwargs", [
        {"k": 0}, {"max_batch": 0}, {"latency_budget_ms": -1.0},
        {"max_pending": 0},
        # A NaN budget is a deadline that never fires.
        {"latency_budget_ms": math.nan},
        {"engine_workers": 0}, {"engine_workers": -3},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)


class TestCoalescing:
    def test_full_batch_dispatches_immediately(self, serving_world):
        _, _, index, queries, predicates = serving_world
        service = make_service(index, max_batch=3)

        async def drive():
            tasks = [
                asyncio.ensure_future(
                    service.submit(queries[i], predicates[i])
                )
                for i in range(3)
            ]
            await asyncio.sleep(0)
            await service.drain()
            return await asyncio.gather(*tasks)

        responses = run(drive())
        for r in responses:
            assert r.ok
            assert r.batch_size_served == 3
            assert r.queue_wait_ms == 0.0  # flushed at arrival time
            assert r.stats.batch_size_served == 3
        assert service.summary()["batches_dispatched"] == 1

    def test_deadline_flushes_partial_batch(self, serving_world):
        _, _, index, queries, predicates = serving_world
        clock = FakeClock()
        service = make_service(
            index, clock=clock, max_batch=8, latency_budget_ms=10.0
        )

        async def drive():
            t1 = asyncio.ensure_future(
                service.submit(queries[0], predicates[0])
            )
            await asyncio.sleep(0)
            clock.advance(0.002)
            t2 = asyncio.ensure_future(
                service.submit(queries[1], predicates[1])
            )
            await asyncio.sleep(0)
            assert service.pending_count == 2
            clock.advance(0.008)  # oldest deadline (10ms) now due
            await service.pump()
            assert service.pending_count == 0
            return await asyncio.gather(t1, t2)

        first, second = run(drive())
        assert first.batch_size_served == 2
        assert first.queue_wait_ms == pytest.approx(10.0)
        assert second.queue_wait_ms == pytest.approx(8.0)

    def test_late_observation_billed_at_deadline(self, serving_world):
        """A flush observed long after the deadline (virtual clock
        jumped past it) bills queue wait at the deadline, not the
        observation time."""
        _, _, index, queries, predicates = serving_world
        clock = FakeClock()
        service = make_service(
            index, clock=clock, max_batch=8, latency_budget_ms=10.0
        )

        async def drive():
            task = asyncio.ensure_future(
                service.submit(queries[0], predicates[0])
            )
            await asyncio.sleep(0)
            clock.advance(5.0)  # way past the 10ms deadline
            await service.pump()
            return await task

        response = run(drive())
        assert response.queue_wait_ms == pytest.approx(10.0)
        assert response.latency_ms == pytest.approx(10.0)

    def test_oversized_drain_splits_into_max_batch_chunks(
        self, serving_world
    ):
        _, _, index, queries, predicates = serving_world
        service = make_service(index, max_batch=2, max_pending=100)

        async def drive():
            tasks = [
                asyncio.ensure_future(
                    service.submit(queries[i % 12], predicates[i % 12])
                )
                for i in range(5)
            ]
            await asyncio.sleep(0)
            await service.drain()
            return await asyncio.gather(*tasks)

        responses = run(drive())
        assert [r.batch_size_served for r in responses] == [2, 2, 2, 2, 1]
        assert service.summary()["batches_dispatched"] == 3


class TestAdmission:
    def test_tenant_quota_exhaustion_then_refill(self, serving_world):
        _, _, index, queries, predicates = serving_world
        clock = FakeClock()
        quota = TenantQuota(rate_qps=0.5, burst=2.0)
        service = make_service(
            index, clock=clock, max_batch=1, default_quota=quota
        )

        async def drive():
            out = []
            for _ in range(3):
                out.append(await service.submit(queries[0], predicates[0]))
                await service.pump()
            clock.advance(2.0)  # exactly one token back at 0.5 qps
            out.append(await service.submit(queries[0], predicates[0]))
            await service.pump()
            out.append(await service.submit(queries[0], predicates[0]))
            await service.drain()
            return out

        r = run(drive())
        assert [x.status for x in r] == (
            ["ok", "ok", "rejected", "ok", "rejected"]
        )
        assert r[2].reason == REJECT_TENANT_QUOTA
        assert r[2].result is None and r[2].stats is None

    def test_tenant_queue_bound_is_per_tenant(self, serving_world):
        _, _, index, queries, predicates = serving_world
        quota = TenantQuota(max_queue=2)
        service = make_service(
            index, max_batch=100, max_pending=100, default_quota=quota
        )

        async def drive():
            tasks = [
                asyncio.ensure_future(
                    service.submit(queries[i], predicates[i], tenant_id="a")
                )
                for i in range(3)
            ]
            await asyncio.sleep(0)
            other = asyncio.ensure_future(
                service.submit(queries[3], predicates[3], tenant_id="b")
            )
            await asyncio.sleep(0)
            await service.drain()
            return await asyncio.gather(*tasks), await other

        (a1, a2, a3), b = run(drive())
        assert a1.ok and a2.ok
        assert a3.rejected and a3.reason == REJECT_TENANT_QUEUE
        assert b.ok  # one tenant's full queue never blocks another

    def test_global_backlog_bound(self, serving_world):
        _, _, index, queries, predicates = serving_world
        service = make_service(index, max_batch=100, max_pending=3)

        async def drive():
            tasks = [
                asyncio.ensure_future(
                    service.submit(
                        queries[i], predicates[i], tenant_id=f"t{i}"
                    )
                )
                for i in range(4)
            ]
            await asyncio.sleep(0)
            await service.drain()
            return await asyncio.gather(*tasks)

        responses = run(drive())
        assert [r.status for r in responses] == (
            ["ok", "ok", "ok", "rejected"]
        )
        assert responses[3].reason == REJECT_OVERLOAD

    def test_backlog_shedding_spends_no_token(self, serving_world):
        _, _, index, queries, predicates = serving_world
        service = make_service(
            index, max_batch=100, max_pending=1,
            default_quota=TenantQuota(rate_qps=1e-6, burst=4.0),
        )

        async def drive():
            first = asyncio.ensure_future(
                service.submit(queries[0], predicates[0], "acme")
            )
            await asyncio.sleep(0)
            shed = await service.submit(queries[1], predicates[1], "acme")
            await service.drain()
            return await first, shed

        served, shed = run(drive())
        assert served.ok
        assert shed.rejected and shed.reason == REJECT_OVERLOAD
        # The backlog bound precedes the token bucket: the shed request
        # spent no token (contractual admission-check order).
        bucket = service.tenants.get("acme").bucket
        assert bucket.tokens == pytest.approx(3.0)

    def test_closed_service_rejects(self, serving_world):
        _, _, index, queries, predicates = serving_world
        service = make_service(index)

        # max_batch=4 default: the lone query flushes on aclose's drain.
        async def drive():
            task = asyncio.ensure_future(
                service.submit(queries[0], predicates[0])
            )
            await asyncio.sleep(0)
            await service.aclose()
            first = await task
            late = await service.submit(queries[0], predicates[0])
            return first, late

        first, late = run(drive())
        assert first.ok
        assert late.rejected and late.reason == REJECT_CLOSED

    def test_service_binds_to_one_loop(self, serving_world):
        _, _, index, queries, predicates = serving_world
        service = make_service(index, max_batch=1)

        async def first_loop():
            await service.submit(queries[0], predicates[0])
            await service.drain()

        run(first_loop())
        with pytest.raises(RuntimeError, match="another event loop"):
            run(service.submit(queries[0], predicates[0]))


class TestTenantCacheIsolation:
    def test_partitioned_namespaces(self, serving_world):
        _, _, index, queries, _ = serving_world
        service = make_service(index, max_batch=1)
        pred = Equals("cat", "c1")

        async def drive():
            ra1 = await service.submit(queries[0], pred, tenant_id="a")
            rb1 = await service.submit(queries[0], pred, tenant_id="b")
            ra2 = await service.submit(queries[1], pred, tenant_id="a")
            await service.drain()
            return ra1, rb1, ra2

        ra1, rb1, ra2 = run(drive())
        # Same predicate, separate namespaces: each tenant pays its own
        # compile; only the repeat within a namespace hits.
        assert ra1.stats.predicate_cache_hit is False
        assert rb1.stats.predicate_cache_hit is False
        assert ra2.stats.predicate_cache_hit is True
        info_a = service.tenants.cache_info("a")
        info_b = service.tenants.cache_info("b")
        assert (info_a.hits, info_a.misses) == (1, 1)
        assert (info_b.hits, info_b.misses) == (0, 1)

    def test_churn_cannot_evict_another_tenant(self, serving_world):
        _, _, index, queries, _ = serving_world
        service = make_service(
            index, max_batch=1,
            quotas={"churn": TenantQuota(cache_size=1)},
        )

        async def drive():
            await service.submit(queries[0], Equals("cat", "c0"), "stable")
            # Churn floods its size-1 namespace with distinct predicates.
            for year in range(2000, 2006):
                await service.submit(
                    queries[1], Equals("year", year), "churn"
                )
            again = await service.submit(
                queries[2], Equals("cat", "c0"), "stable"
            )
            await service.drain()
            return again

        again = run(drive())
        assert again.stats.predicate_cache_hit is True
        assert service.tenants.cache_info("churn").size == 1


class TestAccounting:
    def test_summary_sums_to_offered(self, serving_world):
        _, _, index, queries, predicates = serving_world
        quota = TenantQuota(rate_qps=1e-6, burst=2.0)
        service = make_service(
            index, max_batch=2, quotas={"limited": TenantQuota(
                rate_qps=1e-6, burst=1.0)},
            default_quota=quota,
        )

        async def drive_simple():
            tenants = ["a", "a", "a", "limited", "limited", "b"]
            tasks = []
            for i, tid in enumerate(tenants):
                tasks.append(asyncio.ensure_future(
                    service.submit(queries[i], predicates[i], tenant_id=tid)
                ))
                await asyncio.sleep(0)
            await service.drain()
            return await asyncio.gather(*tasks)

        responses = run(drive_simple())
        summary = service.summary()
        assert summary["offered"] == 6
        assert summary["admitted"] + summary["rejected"] == 6
        assert summary["ok"] + summary["failed"] + summary["rejected"] == 6
        assert summary["failed"] == summary["degraded"] == 0
        assert summary["pending"] == 0 and summary["inflight"] == 0
        # Tenant "a" ran into its burst of 2; "limited" into its burst
        # of 1 — the rejects are attributed per tenant.
        assert summary["tenants"]["a"]["rejected"] == 1
        assert summary["tenants"]["limited"]["rejected"] == 1
        assert summary["tenants"]["b"]["rejected"] == 0
        assert sum(1 for r in responses if r.rejected) == 2
        assert service.admission_log == [
            ("a", "admit"), ("a", "admit"), ("a", REJECT_TENANT_QUOTA),
            ("limited", "admit"), ("limited", REJECT_TENANT_QUOTA),
            ("b", "admit"),
        ]

    def test_results_match_direct_search(self, serving_world):
        _, _, index, queries, predicates = serving_world
        service = make_service(index, max_batch=3)

        async def drive():
            tasks = [
                asyncio.ensure_future(
                    service.submit(queries[i], predicates[i], "acme")
                )
                for i in range(3)
            ]
            await asyncio.sleep(0)
            await service.drain()
            return await asyncio.gather(*tasks)

        responses = run(drive())
        for i, r in enumerate(responses):
            direct = index.search(
                queries[i], predicates[i],
                service.config.k, ef_search=service.config.ef_search,
            )
            np.testing.assert_array_equal(r.result.ids, direct.ids)
            np.testing.assert_allclose(r.result.distances, direct.distances)
            assert r.stats.tenant_id == "acme"


class TestLifecycleSearcher:
    def test_answers_at_the_published_epoch(self):
        """Rows written straight to the lifecycle (one compacted into
        the base, one still in the delta) are served at the epoch the
        lifecycle publishes."""
        from repro.lifecycle import LifecycleIndex
        from tests.lifecycle.conftest import DIM, PARAMS, make_world

        vectors, table, rng = make_world(seed=23, n=24)
        lc = LifecycleIndex.build(vectors, table, params=PARAMS, seed=0)
        for i in range(8):
            lc.insert(rng.standard_normal(DIM).astype(np.float32),
                      {"v": i % 4})
        lc.compact()
        lc.insert(rng.standard_normal(DIM).astype(np.float32), {"v": 0})
        query = rng.standard_normal(DIM).astype(np.float32)
        service = make_service(lc)

        async def drive():
            fut = asyncio.ensure_future(service.submit(query, TruePredicate()))
            await asyncio.sleep(0)
            await service.drain()
            response = await fut
            await service.aclose()
            return response

        response = run(drive())
        assert response.ok
        assert response.stats.epoch == lc.current_epoch > 0
        direct = lc.search(query, TruePredicate(), service.config.k,
                           ef_search=service.config.ef_search)
        np.testing.assert_array_equal(response.result.ids, direct.ids)
