"""Asyncio multi-tenant serving layer over the batch engine.

The request-path front end of the reproduction: work-conserving
coalescing (batches form only while the dispatcher is busy, under a
latency budget), per-tenant admission control
(token buckets, bounded queues, partitioned predicate-cache
namespaces), breaker-aware load shedding with explicit
rejected/degraded accounting, and a seeded open-loop load harness —
all on a pluggable clock so every behaviour is testable without
sleeping.  See ``docs/serving.md``.
"""

from repro.serving.loadgen import (
    Arrival,
    ArrivalSchedule,
    generate_arrivals,
    replay,
    replay_realtime,
    summarize_load,
)
from repro.serving.service import (
    REJECT_BREAKERS,
    REJECT_CLOSED,
    REJECT_OVERLOAD,
    REJECT_TENANT_QUEUE,
    REJECT_TENANT_QUOTA,
    STATUS_APPLIED,
    AcornService,
    ServedResponse,
    ServingConfig,
    WriteResponse,
)
from repro.serving.tenancy import TenantQuota, TenantRegistry, TokenBucket

__all__ = [
    "AcornService",
    "Arrival",
    "ArrivalSchedule",
    "REJECT_BREAKERS",
    "REJECT_CLOSED",
    "REJECT_OVERLOAD",
    "REJECT_TENANT_QUEUE",
    "REJECT_TENANT_QUOTA",
    "STATUS_APPLIED",
    "ServedResponse",
    "ServingConfig",
    "WriteResponse",
    "TenantQuota",
    "TenantRegistry",
    "TokenBucket",
    "generate_arrivals",
    "replay",
    "replay_realtime",
    "summarize_load",
]
