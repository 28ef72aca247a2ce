"""Seeded open-loop load generation and replay for the serving layer.

Open-loop means arrivals come from a fixed schedule that does not react
to service latency — the standard methodology for saturation and tail
studies (a closed loop self-throttles and hides queueing collapse).
Three pieces:

- :class:`ArrivalSchedule` + :func:`generate_arrivals` — a fully
  seeded arrival trace: Poisson inter-arrival gaps at ``rate_qps``,
  tenants drawn from a Zipf-skewed distribution, and an optional
  flash-crowd window that multiplies the rate for a sub-interval.
  Same schedule + seed → byte-identical trace.
- :func:`replay` — deterministic virtual-time replay: advances the
  service's :class:`~repro.utils.clock.FakeClock` to each arrival,
  pumps expired deadlines *before* the new query enters the buffer
  (so batch composition is a pure function of the trace), submits,
  and finally drains.  Wall time is microseconds regardless of the
  schedule's virtual duration.
- :func:`replay_realtime` — the same trace paced by real
  ``asyncio.sleep``, for wall-clock latency/goodput measurement (the
  realtime service dispatches to an idle thread at once, so batch size
  there is whatever the offered load makes it).

:func:`summarize_load` condenses the responses into one SLO-style
record: shed/degraded accounting that
sums exactly to offered load, latency percentiles (``None`` when every
request was shed), goodput, and per-tenant outcomes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time

import numpy as np

from repro.eval.stats import percentile_summary
from repro.serving.service import AcornService, ServedResponse
from repro.utils.clock import FakeClock


@dataclasses.dataclass(frozen=True)
class Arrival:
    """One scheduled request: when, which tenant, which query."""

    time_s: float
    tenant_id: str
    query_index: int


@dataclasses.dataclass(frozen=True)
class ArrivalSchedule:
    """Specification of a seeded open-loop arrival process.

    Attributes:
        rate_qps: base Poisson arrival rate.
        duration_s: schedule length; arrivals at or beyond it are cut.
        n_tenants: tenants to draw from (ids ``tenant-0`` …).
        tenant_skew: Zipf exponent for tenant popularity — tenant ``i``
            gets weight ``1/(i+1)**tenant_skew``; 0.0 is uniform.
        query_pool: number of distinct queries the trace indexes into.
        flash_start_s: start of the flash-crowd window (``None``
            disables it).
        flash_duration_s: length of the flash-crowd window.
        flash_multiplier: rate multiplier inside the window.
        seed: RNG seed; the trace is a pure function of this spec.
    """

    rate_qps: float
    duration_s: float
    n_tenants: int = 4
    tenant_skew: float = 1.1
    query_pool: int = 16
    flash_start_s: float | None = None
    flash_duration_s: float = 0.0
    flash_multiplier: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate_qps <= 0:
            raise ValueError(f"rate_qps must be positive, got {self.rate_qps}")
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be positive, got {self.duration_s}"
            )
        if self.n_tenants < 1:
            raise ValueError(f"n_tenants must be >= 1, got {self.n_tenants}")
        if self.query_pool < 1:
            raise ValueError(
                f"query_pool must be >= 1, got {self.query_pool}"
            )
        if self.flash_multiplier < 1.0:
            raise ValueError(
                f"flash_multiplier must be >= 1, got {self.flash_multiplier}"
            )

    @classmethod
    def poisson(cls, rate_qps: float, duration_s: float, **kwargs):
        """A steady Poisson schedule (no flash window)."""
        return cls(rate_qps=rate_qps, duration_s=duration_s, **kwargs)

    @classmethod
    def flash_crowd(
        cls,
        rate_qps: float,
        duration_s: float,
        flash_start_s: float,
        flash_duration_s: float,
        flash_multiplier: float,
        **kwargs,
    ):
        """A Poisson schedule with a rate spike in the middle."""
        return cls(
            rate_qps=rate_qps,
            duration_s=duration_s,
            flash_start_s=flash_start_s,
            flash_duration_s=flash_duration_s,
            flash_multiplier=flash_multiplier,
            **kwargs,
        )

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at schedule time ``t``."""
        if (
            self.flash_start_s is not None
            and self.flash_start_s <= t < self.flash_start_s + self.flash_duration_s
        ):
            return self.rate_qps * self.flash_multiplier
        return self.rate_qps

    def tenant_weights(self) -> np.ndarray:
        """Normalized Zipf popularity over ``n_tenants``."""
        ranks = np.arange(1, self.n_tenants + 1, dtype=np.float64)
        weights = 1.0 / ranks**self.tenant_skew
        return weights / weights.sum()


def generate_arrivals(schedule: ArrivalSchedule) -> list[Arrival]:
    """Materialize the seeded arrival trace for ``schedule``.

    The gap after each arrival is drawn at the rate in effect at the
    *current* time (rate changes take effect at the next draw — a
    standard thinning-free approximation whose error is one gap at
    each window edge, and which keeps the trace a simple pure function
    of the seed).
    """
    rng = np.random.default_rng(schedule.seed)
    weights = schedule.tenant_weights()
    arrivals: list[Arrival] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / schedule.rate_at(t)))
        if t >= schedule.duration_s:
            break
        tenant = int(rng.choice(schedule.n_tenants, p=weights))
        query_index = int(rng.integers(0, schedule.query_pool))
        arrivals.append(
            Arrival(
                time_s=t,
                tenant_id=f"tenant-{tenant}",
                query_index=query_index,
            )
        )
    return arrivals


async def replay(
    service: AcornService,
    arrivals: list[Arrival],
    queries,
    predicates,
) -> list[ServedResponse]:
    """Deterministic virtual-time replay of a trace against a service.

    Requires the service to run on a :class:`FakeClock`.  For each
    arrival: advance the clock to its timestamp, pump deadlines that
    expired strictly before it (batch composition then depends only on
    the trace), submit, and let the submission settle.  Responses come
    back in arrival order, one per arrival — accounting always sums.

    Args:
        service: a virtual-mode :class:`AcornService`.
        queries: query-vector pool indexed by ``Arrival.query_index``.
        predicates: predicate pool parallel to ``queries``.
    """
    clock = service.clock
    if service.realtime or not isinstance(clock, FakeClock):
        raise ValueError(
            "replay() needs a FakeClock-driven service; use "
            "replay_realtime() for wall-clock runs"
        )
    tasks: list[asyncio.Task] = []
    for arrival in arrivals:
        gap = arrival.time_s - clock.monotonic()
        if gap > 0:
            clock.advance(gap)
        await service.pump()
        tasks.append(
            asyncio.ensure_future(
                service.submit(
                    queries[arrival.query_index],
                    predicates[arrival.query_index],
                    tenant_id=arrival.tenant_id,
                )
            )
        )
        # One zero-delay hop lets the submission reach the buffer (or
        # resolve its rejection) before the next arrival is considered.
        await asyncio.sleep(0)
    await service.drain()
    return list(await asyncio.gather(*tasks))


async def replay_realtime(
    service: AcornService,
    arrivals: list[Arrival],
    queries,
    predicates,
) -> list[ServedResponse]:
    """Open-loop wall-clock replay (submissions never wait for
    responses; pacing error does not compound)."""
    start = time.perf_counter()
    tasks: list[asyncio.Task] = []
    for arrival in arrivals:
        delay = arrival.time_s - (time.perf_counter() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            asyncio.ensure_future(
                service.submit(
                    queries[arrival.query_index],
                    predicates[arrival.query_index],
                    tenant_id=arrival.tenant_id,
                )
            )
        )
    responses = list(await asyncio.gather(*tasks))
    await service.drain()
    return responses


def summarize_load(
    arrivals: list[Arrival],
    responses: list[ServedResponse],
    wall_s: float | None = None,
) -> dict:
    """Condense a replay into the SLO record the bench stores.

    ``ok + degraded + rejected == offered`` by construction (one
    response per arrival).  Latency/queue-wait percentiles are ``None``
    when every request was shed (the empty-batch case
    :func:`percentile_summary` now encodes as ``None`` rather than
    fake zeros).

    Args:
        wall_s: wall-clock seconds the replay took; enables
            ``goodput_qps`` (served throughput at the offered rate).
    """
    offered = len(arrivals)
    served = [r for r in responses if not r.rejected]
    ok = sum(1 for r in responses if r.ok)
    degraded = sum(1 for r in responses if r.degraded)
    rejected = sum(1 for r in responses if r.rejected)
    latency = percentile_summary(r.latency_ms for r in served)
    queue_wait = percentile_summary(r.queue_wait_ms for r in served)
    tenants: dict[str, dict] = {}
    for arrival, response in zip(arrivals, responses):
        entry = tenants.setdefault(
            arrival.tenant_id, {"offered": 0, "rejected": 0}
        )
        entry["offered"] += 1
        entry["rejected"] += int(response.rejected)
    return {
        "offered": offered,
        "ok": ok,
        "degraded": degraded,
        "rejected": rejected,
        "shed_fraction": rejected / offered if offered else 0.0,
        "goodput_qps": (
            len(served) / wall_s if wall_s and wall_s > 0 else None
        ),
        "latency_ms": dataclasses.asdict(latency),
        "queue_wait_ms": dataclasses.asdict(queue_wait),
        "mean_batch_size": (
            float(np.mean([r.batch_size_served for r in served]))
            if served else 0.0
        ),
        "min_recall_ceiling": min(
            (r.stats.recall_ceiling for r in served), default=1.0
        ),
        "tenants": {tid: tenants[tid] for tid in sorted(tenants)},
    }
