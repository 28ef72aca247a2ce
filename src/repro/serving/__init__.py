"""Asyncio multi-tenant serving layer over the batch engine.

The request-path front end of the reproduction: work-conserving
coalescing (batches form only while the dispatcher is busy, under a
latency budget), per-tenant admission control
(token buckets, bounded queues, partitioned predicate-cache
namespaces) with explicit ok/failed/rejected accounting — all on a
pluggable clock so every behaviour is testable without sleeping.  See
``docs/serving.md``.
"""

from repro.serving.service import (
    REJECT_CLOSED,
    REJECT_OVERLOAD,
    REJECT_TENANT_QUEUE,
    REJECT_TENANT_QUOTA,
    AcornService,
    ServedResponse,
    ServingConfig,
)
from repro.serving.tenancy import TenantQuota, TenantRegistry, TokenBucket

__all__ = [
    "AcornService",
    "REJECT_CLOSED",
    "REJECT_OVERLOAD",
    "REJECT_TENANT_QUEUE",
    "REJECT_TENANT_QUOTA",
    "ServedResponse",
    "ServingConfig",
    "TenantQuota",
    "TenantRegistry",
    "TokenBucket",
]
