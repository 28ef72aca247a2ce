"""Serving write path: admission-gated mutations + compactor ticking.

``submit_write`` shares the read path's admission gate (so a tenant
cannot starve readers with mutations) but applies synchronously to the
lifecycle delta and keeps its own ledger — the read-side ``summary()``
accounting is untouched by write traffic.
"""

import asyncio

import numpy as np
import pytest

from repro.lifecycle import (
    BackgroundCompactor,
    LifecycleConfig,
    LifecycleIndex,
)
from repro.predicates import TruePredicate
from repro.serving import (
    REJECT_CLOSED,
    REJECT_TENANT_QUOTA,
    AcornService,
    ServingConfig,
    TenantQuota,
    WriteResponse,
)
from repro.utils.clock import FakeClock

from tests.lifecycle.conftest import DIM, PARAMS, make_world

pytestmark = pytest.mark.lifecycle


def run(coro):
    return asyncio.new_event_loop().run_until_complete(coro)


def make_lifecycle_service(clock=None, compactor=False, **config_kwargs):
    vectors, table, rng = make_world(seed=23, n=24)
    clock = clock or FakeClock()
    lc = LifecycleIndex.build(
        vectors, table, params=PARAMS, seed=0,
        config=LifecycleConfig(compact_min_delta=4,
                               compact_delta_fraction=0.05),
        clock=clock,
    )
    comp = (BackgroundCompactor(lc, interval_s=0.5, clock=clock)
            if compactor else None)
    service = AcornService(
        lc,
        ServingConfig(max_batch=4, latency_budget_ms=5.0,
                      **config_kwargs),
        clock=clock,
        compactor=comp,
    )
    return service, lc, comp, clock, rng


class TestSubmitWrite:
    def test_insert_and_delete_apply(self):
        service, lc, _, _, rng = make_lifecycle_service()

        async def drive():
            w = await service.submit_write(
                "insert",
                vector=rng.standard_normal(DIM).astype(np.float32),
                row={"v": 1},
            )
            assert isinstance(w, WriteResponse)
            assert w.ok and w.applied and not w.rejected
            assert w.external_id == 24  # first id after the base
            assert w.epoch == lc.current_epoch
            d = await service.submit_write("delete",
                                           external_id=w.external_id)
            assert d.ok and d.applied
            d2 = await service.submit_write("delete",
                                            external_id=w.external_id)
            assert d2.ok and not d2.applied  # idempotent double delete
            await service.aclose()

        run(drive())
        assert lc.is_deleted(24)
        summary = service.write_summary()
        assert summary["offered"] == 3
        assert summary["applied"] == 3
        assert summary["rejected"] == 0
        assert summary["inserts"] == 1
        assert summary["deletes"] == 2

    def test_writes_share_admission_gate(self):
        service, _, _, _, rng = make_lifecycle_service(
            quotas={"greedy": TenantQuota(rate_qps=0.001, burst=1.0,
                                          max_queue=4)},
        )

        async def drive():
            first = await service.submit_write(
                "insert", tenant_id="greedy",
                vector=rng.standard_normal(DIM).astype(np.float32),
                row={"v": 0},
            )
            assert first.ok  # burst token
            second = await service.submit_write(
                "insert", tenant_id="greedy",
                vector=rng.standard_normal(DIM).astype(np.float32),
                row={"v": 0},
            )
            assert second.rejected
            assert second.reason == REJECT_TENANT_QUOTA
            assert second.external_id == -1
            await service.aclose()

        run(drive())
        assert service.write_counters["rejected"] == 1
        assert ("greedy", REJECT_TENANT_QUOTA) in service.admission_log
        # the read ledger never saw these writes
        assert service.summary()["offered"] == 0

    def test_write_rejections_stay_off_tenant_read_ledger(self):
        """A shed write bills tenant.writes_rejected, never the shared
        `rejected` counter — per-tenant read accounting (admitted +
        rejected == reads offered, admitted == ok + failed) must
        keep reconciling in summary() under mixed read/write load."""
        service, _, _, clock, rng = make_lifecycle_service(
            quotas={"greedy": TenantQuota(rate_qps=0.001, burst=2.0,
                                          max_queue=4)},
        )

        async def drive():
            q = rng.standard_normal(DIM).astype(np.float32)
            read = asyncio.ensure_future(
                service.submit(q, TruePredicate(), tenant_id="greedy")
            )
            await asyncio.sleep(0)  # let the read take its burst token
            await service.drain()
            r = await read
            assert r.ok  # first burst token goes to the read
            w = await service.submit_write(
                "insert", tenant_id="greedy",
                vector=rng.standard_normal(DIM).astype(np.float32),
                row={"v": 0},
            )
            assert w.ok  # second burst token
            w2 = await service.submit_write(
                "insert", tenant_id="greedy",
                vector=rng.standard_normal(DIM).astype(np.float32),
                row={"v": 0},
            )
            assert w2.rejected
            await service.aclose()

        run(drive())
        tenant = service.summary()["tenants"]["greedy"]
        assert tenant["writes_rejected"] == 1
        assert tenant["rejected"] == 0  # read side untouched
        assert tenant["admitted"] == 1
        assert tenant["admitted"] + tenant["rejected"] == 1  # == reads offered
        assert tenant["ok"] + tenant["failed"] == tenant["admitted"]
        # the service-level write ledger still records the shed write
        assert service.write_counters["rejected"] == 1

    def test_closed_service_rejects_writes(self):
        service, _, _, _, rng = make_lifecycle_service()

        async def drive():
            await service.aclose()
            w = await service.submit_write(
                "insert",
                vector=rng.standard_normal(DIM).astype(np.float32),
                row={"v": 0},
            )
            assert w.rejected and w.reason == REJECT_CLOSED

        run(drive())

    def test_malformed_writes_raise(self):
        service, _, _, _, rng = make_lifecycle_service()

        async def drive():
            with pytest.raises(ValueError, match="unknown write op"):
                await service.submit_write("upsert")
            with pytest.raises(ValueError, match="insert requires"):
                await service.submit_write("insert")
            with pytest.raises(ValueError, match="delete requires"):
                await service.submit_write("delete")
            await service.aclose()

        run(drive())

    def test_non_lifecycle_searcher_rejected_loudly(self, tmp_path):
        from repro.core import AcornIndex

        vectors, table, rng = make_world(seed=29, n=16)
        index = AcornIndex.build(vectors, table, params=PARAMS, seed=0)
        service = AcornService(index, ServingConfig(), clock=FakeClock())

        async def drive():
            with pytest.raises(TypeError, match="insert/delete"):
                await service.submit_write(
                    "insert",
                    vector=rng.standard_normal(DIM).astype(np.float32),
                    row={"v": 0},
                )
            await service.aclose()

        run(drive())


class TestCompactorTicking:
    def test_writes_and_polls_drive_compaction(self):
        service, lc, comp, clock, rng = make_lifecycle_service(
            compactor=True
        )

        async def drive():
            for i in range(12):
                w = await service.submit_write(
                    "insert",
                    vector=rng.standard_normal(DIM).astype(np.float32),
                    row={"v": i % 4},
                )
                assert w.ok
                clock.advance(0.1)
            await service.aclose()

        run(drive())
        assert comp.compactions >= 1
        assert lc.delta_size() < 12
        summary = service.write_summary()
        assert summary["compactor_ticks"] >= 12
        assert summary["compactor"]["compactions"] == comp.compactions
        assert summary["epoch"] == lc.current_epoch

    def test_reads_interleave_with_writes(self):
        service, lc, comp, clock, rng = make_lifecycle_service(
            compactor=True
        )
        queries = rng.standard_normal((2, DIM)).astype(np.float32)

        async def drive():
            for i in range(8):
                await service.submit_write(
                    "insert",
                    vector=rng.standard_normal(DIM).astype(np.float32),
                    row={"v": 0},
                )
                clock.advance(0.2)
            fut = asyncio.ensure_future(
                service.submit(queries[0], TruePredicate())
            )
            await asyncio.sleep(0)
            clock.advance(0.01)
            await service.pump()
            response = await fut
            assert response.ok
            assert response.stats.epoch == lc.current_epoch
            await service.aclose()

        run(drive())
        # read-side ledger balances independently of the write ledger
        summary = service.summary()
        assert summary["offered"] == summary["admitted"] + summary["rejected"]
        assert summary["offered"] == 1
        assert service.write_counters["applied"] == 8
