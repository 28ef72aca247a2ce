"""Per-tenant admission state: quotas, token buckets, cache namespaces.

Multi-tenant serving needs three isolations that the library layers
below do not provide on their own:

- **rate isolation** — a token bucket per tenant (refilled from the
  service's pluggable :class:`~repro.utils.clock.Clock`, so quota
  behaviour is bit-for-bit deterministic on a
  :class:`~repro.utils.clock.FakeClock`);
- **queue isolation** — a bounded count of a tenant's requests waiting
  in the coalescing buffer, so one tenant's burst cannot consume the
  whole batch window;
- **cache isolation** — a partitioned
  :class:`~repro.engine.cache.PredicateCache` namespace per tenant, so
  one tenant's churn of distinct predicates cannot evict another
  tenant's hot bitmasks.

Everything here is called from the service's event loop only, so no
locking beyond what :class:`PredicateCache` already does internally.
"""

from __future__ import annotations

import dataclasses
import math

from repro.engine.cache import CacheInfo, PredicateCache
from repro.utils.clock import Clock


@dataclasses.dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant.

    Attributes:
        rate_qps: sustained admission rate (token-bucket refill rate).
            ``math.inf`` (the default) disables rate limiting.
        burst: token-bucket capacity — the number of requests a tenant
            may admit instantaneously from a full bucket.
        max_queue: maximum requests from this tenant simultaneously
            waiting in the coalescing buffer.
        cache_size: LRU capacity of the tenant's private
            predicate-bitmask cache namespace.
    """

    rate_qps: float = math.inf
    burst: float = 32.0
    max_queue: int = 64
    cache_size: int = 32

    def __post_init__(self) -> None:
        # Written as ``not value > bound`` so NaN is refused too.
        if not self.rate_qps > 0:
            raise ValueError(f"rate_qps must be positive, got {self.rate_qps}")
        if not self.burst >= 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if not self.max_queue >= 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if not self.cache_size >= 1:
            raise ValueError(
                f"cache_size must be >= 1, got {self.cache_size}"
            )


class TokenBucket:
    """A clock-driven token bucket (deterministic on a FakeClock).

    Tokens refill continuously at ``rate`` per second up to ``burst``.
    The bucket reads time lazily on each :meth:`try_take`, so it never
    schedules timers — virtual-clock tests advance time and observe
    exactly the refill arithmetic implies.

    Args:
        rate: refill rate in tokens per second (``math.inf`` keeps the
            bucket permanently full).
        burst: bucket capacity; also the initial fill.
        clock: time source for refill accounting.
    """

    def __init__(self, rate: float, burst: float, clock: Clock) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last_refill = clock.monotonic()

    def _refill(self, now: float) -> None:
        elapsed = max(now - self._last_refill, 0.0)
        self._last_refill = now
        if math.isinf(self.rate):
            self._tokens = self.burst
        else:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    def try_take(self, amount: float = 1.0) -> bool:
        """Consume ``amount`` tokens if available; False otherwise."""
        self._refill(self._clock.monotonic())
        # Tolerance absorbs float refill drift at exact-rate arrivals.
        if self._tokens + 1e-9 >= amount:
            self._tokens = min(self._tokens - amount, self.burst)
            return True
        return False

    @property
    def tokens(self) -> float:
        """Tokens available right now (refilled to the current clock)."""
        self._refill(self._clock.monotonic())
        return self._tokens


@dataclasses.dataclass
class TenantState:
    """Live serving state for one tenant.

    Attributes:
        tenant_id: the tenant's identifier.
        quota: the quota this state enforces.
        bucket: the tenant's admission token bucket.
        cache: the tenant's private predicate-bitmask cache.
        queue_depth: requests currently waiting in the coalescing
            buffer on this tenant's behalf.
        admitted / rejected / ok / failed: cumulative *read-side*
            outcome counters (``admitted == ok + failed`` once drained,
            ``admitted + rejected`` == queries offered; ``failed``
            counts queries whose batch raised).
    """

    tenant_id: str
    quota: TenantQuota
    bucket: TokenBucket
    cache: PredicateCache
    queue_depth: int = 0
    admitted: int = 0
    rejected: int = 0
    ok: int = 0
    failed: int = 0

    def counters(self) -> dict:
        """JSON-serializable outcome counters for this tenant."""
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "ok": self.ok,
            "failed": self.failed,
        }


class TenantRegistry:
    """Lazily-created :class:`TenantState` per tenant id.

    Args:
        default_quota: quota applied to tenants without an explicit
            entry in ``quotas``.
        quotas: per-tenant overrides keyed by tenant id.
        clock: time source shared with the service (token buckets
            refill from it).
    """

    def __init__(
        self,
        default_quota: TenantQuota,
        quotas: dict[str, TenantQuota] | None,
        clock: Clock,
    ) -> None:
        self.default_quota = default_quota
        self.quotas = dict(quotas or {})
        self._clock = clock
        self._tenants: dict[str, TenantState] = {}

    def get(self, tenant_id: str) -> TenantState:
        """The (lazily created) state for ``tenant_id``."""
        state = self._tenants.get(tenant_id)
        if state is None:
            quota = self.quotas.get(tenant_id, self.default_quota)
            state = TenantState(
                tenant_id=tenant_id,
                quota=quota,
                bucket=TokenBucket(quota.rate_qps, quota.burst, self._clock),
                cache=PredicateCache(quota.cache_size),
            )
            self._tenants[tenant_id] = state
        return state

    def known(self) -> list[TenantState]:
        """All tenants seen so far, sorted by id (deterministic)."""
        return [self._tenants[tid] for tid in sorted(self._tenants)]

    def cache_info(self, tenant_id: str) -> CacheInfo:
        """Predicate-cache counters for one tenant's namespace."""
        return self.get(tenant_id).cache.info()
