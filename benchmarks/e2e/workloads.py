"""The four end-to-end workloads.

Every workload makes its inputs from the seed, drives the stack
through public entry points only, and returns a :class:`Phase` of raw
measurements; ``run.py`` turns phases into metrics and ``check.py``
into verdicts.  ``k=10, ef_search=64, dim=32, M=12, gamma=12,
M_beta=24`` everywhere; executors are ``"sync"`` so a run uses one
process and at most two threads (the open loop's event loop plus the
service's dispatch thread).

Why these four (each stresses layers the others bypass):

- ``graph_hot_preds``: <= 30 repeated keyword filters, so the predicate
  cache is always hot and the graph traversal kernel does the work.
- ``selective_unique_preds``: same vectors and index, but every
  predicate is distinct and below s_min = 1/gamma, so mask compilation,
  planning and the pre-filter scan do the work and the graph none.
- ``served_sharded_openloop``: Poisson arrivals into the async service
  over four range-partitioned shards; admission, coalescing wait and
  scatter-gather carry the latency, and queueing amplifies service time.
- ``churn_read_write``: one tape of reads, inserts and deletes on the
  streaming lifecycle with compaction ticked inline; the same search
  kernel beside epoch publication, delta scans and rebuilds.

Inputs: the corpus (vectors and attribute table) is generated from the
fixed ``CORPUS_SEED``, so the index every run builds is the same and
set-up time, index size and graph shape do not vary with the seed.
``--seed`` draws everything the program is asked to do on it: which
queries from the corpus's query pool and in what order, the predicates,
the arrival times and tenants, the write tape and the delete victims.

Noise discipline: the timed phase of every workload is a sequence of
*identical passes* (the same operations in the same order), repeated
until ``--seconds`` elapse.  On a shared box interference only ever
changes whole stretches of passes, so each operation is reported at
the median of its times over the passes; half of the passes must be
disturbed before a number moves.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import time

import numpy as np

from repro import (
    AcornIndex,
    AcornParams,
    AcornService,
    And,
    AttributeRangePartitioner,
    BackgroundCompactor,
    Between,
    ContainsAny,
    LifecycleConfig,
    LifecycleIndex,
    Not,
    Or,
    RegexMatch,
    RoutePlanner,
    SearchEngine,
    ServingConfig,
    ShardedAcornIndex,
    TenantQuota,
    make_laion_like,
    make_tripclick_like,
)
from repro.datasets.ground_truth import filtered_knn
from repro.datasets.laion import CANDIDATE_KEYWORDS
from repro.shard.partition import subset_table
from repro.vectors.distance import GLOBAL_TALLY

import check
from canary import between, machine_speed

K = 10
EF_SEARCH = 64
DIM = 32
PARAMS = AcornParams(m=12, gamma=12, m_beta=24)
CORRELATIONS = ("no-cor", "pos-cor", "neg-cor")
WARMUP_OPS = 200
PRICE_RANGE = 1_000_000
CORPUS_SEED = 7
POOL_FACTOR = 4  # the corpus's query pool holds this many times a run's queries


@dataclasses.dataclass
class Phase:
    """Raw measurements of one timed phase.

    A *pass* is one sweep of the query set (closed-loop search), one
    tape cycle (churn) or one replay of the arrival schedule (open
    loop).  ``op_ms[p][i]`` is the time of operation ``i`` in pass
    ``p``; the counts are sums over all passes.
    """

    open_loop: bool = False
    op_ms: list[np.ndarray] = dataclasses.field(default_factory=list)
    # Machine speed during each pass (see canary.py), from the readings
    # taken before every pass and after the last.
    pass_speed: list[float] = dataclasses.field(default_factory=list)
    last_speed: float | None = None
    pass_wall_s: list[float] = dataclasses.field(default_factory=list)
    pass_counts: list[dict] = dataclasses.field(default_factory=list)
    # Operations the latency percentiles cover (None: all of them).
    latency_ops: np.ndarray | None = None
    recall: float = 0.0
    queries: int = 0
    dist_comps: int = 0
    hops: int = 0
    visited: int = 0
    violations: list[str] = dataclasses.field(default_factory=list)
    layer: dict[str, float] = dataclasses.field(default_factory=dict)
    span_begin: int = 0
    span_end: int = 0

    @property
    def attempted(self) -> int:
        return int(sum(len(ops) for ops in self.op_ms))

    @property
    def failed(self) -> int:
        """Errors, rejections and checker violations, one per entry."""
        return len(self.violations)

    def more_passes(self, deadline: float, min_passes: int) -> bool:
        """Whether to run another pass; takes the speed reading that
        closes the previous pass and opens the next."""
        gc.collect()
        speed = machine_speed()
        if len(self.pass_speed) < len(self.op_ms):
            self.pass_speed.append(between(self.last_speed, speed))
        self.last_speed = speed
        return len(self.op_ms) < min_passes or time.perf_counter() < deadline

    @classmethod
    def pooled(cls, phases: list["Phase"]) -> "Phase":
        """One phase out of several that issued the same operations:
        their passes pool, their counts add up."""
        totals = {
            field: sum(getattr(p, field) for p in phases)
            for field in ("queries", "dist_comps", "hops", "visited")
        }
        return dataclasses.replace(
            phases[0],
            op_ms=[ops for p in phases for ops in p.op_ms],
            pass_speed=[speed for p in phases for speed in p.pass_speed],
            pass_wall_s=[wall for p in phases for wall in p.pass_wall_s],
            violations=[v for p in phases for v in p.violations],
            recall=float(np.mean([p.recall for p in phases])),
            **totals,
        )


def keyword_members(table) -> dict[str, np.ndarray]:
    """Per-keyword truth masks parsed from the raw captions.

    The LAION-like generator writes each row's three keywords into its
    caption at fixed word positions; reading them back here gives the
    checker and the ground truth an oracle that shares no code with
    ``repro.predicates``.
    """
    members = {kw: np.zeros(len(table), dtype=bool) for kw in CANDIDATE_KEYWORDS}
    for row, caption in enumerate(table.column("caption")):
        words = caption.split()
        for position in (3, 5, 7):
            members[words[position]][row] = True
    return members


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


def _sample(rng, pool: list, count: int) -> list:
    """``count`` distinct entries of the corpus's query pool, in seeded order."""
    return [pool[i] for i in rng.choice(len(pool), size=count, replace=False)]


# ----------------------------------------------------------------------
# Closed-loop search workloads (one query per request, one client)
# ----------------------------------------------------------------------


class _ClosedLoopSearch:
    """Shared driver: sweep the query set through a fresh engine per pass."""

    latency_limit_ms: float
    recall_floor: float
    groups: dict[str, slice] = {}  # named row ranges reported separately

    def make_engine(self) -> SearchEngine:
        raise NotImplementedError

    def _sweep(self, engine, tracer, limit: int | None = None):
        queries, predicates = self.queries, self.predicates
        n = len(predicates) if limit is None else min(limit, len(predicates))
        seconds = np.empty(n)
        results, stats = [], []
        clock = time.perf_counter
        begin = clock()
        for i in range(n):
            start = clock()
            with tracer.span("op", i):
                out = engine.search_batch(
                    queries[i:i + 1], [predicates[i]], k=K, ef_search=EF_SEARCH
                )
            seconds[i] = clock() - start
            results.append(out.results[0])
            stats.append(out.stats[0])
        return clock() - begin, seconds * 1e3, results, stats

    def warm_up(self, tracer) -> None:
        with self.make_engine() as engine:
            self._sweep(engine, tracer, limit=WARMUP_OPS)

    def measure(self, seconds: float, tracer, min_passes: int) -> Phase:
        phase = Phase(span_begin=tracer.mark())
        deadline = time.perf_counter() + seconds
        while phase.more_passes(deadline, min_passes):
            # A fresh planner and engine per pass: routing feedback and
            # the predicate cache start equal, so counts repeat exactly.
            with self.make_engine() as engine:
                wall, op_ms, results, stats = self._sweep(engine, tracer)
                cache = engine.cache_info()
            routes: dict[str, int] = {}
            for s in stats:
                if s.route_chosen:
                    routes[s.route_chosen] = routes.get(s.route_chosen, 0) + 1
            phase.pass_wall_s.append(wall)
            phase.op_ms.append(op_ms)
            phase.pass_counts.append({
                "dist_comps": sum(s.distance_computations for s in stats),
                "hops": sum(s.hops for s in stats),
                "visited": sum(s.visited_nodes for s in stats),
                "fallbacks": sum(s.fallback_triggered for s in stats),
                "routes": dict(sorted(routes.items())),
            })
        phase.span_end = tracer.mark()
        counts = phase.pass_counts[-1]
        phase.queries = phase.attempted
        for field in ("dist_comps", "hops", "visited"):
            setattr(phase, field, sum(c[field] for c in phase.pass_counts))
        ids = [r.ids for r in results]
        phase.recall = check.mean_recall(ids, self.truth)
        phase.violations += check.ids_pass_masks(ids, self.masks)
        phase.violations += check.passes_identical(phase.pass_counts)
        phase.violations += check.recall_floor(phase.recall, self.recall_floor)
        phase.layer.update({
            "engine.cache_hits": cache.hits,
            "engine.cache_misses": cache.misses,
            "engine.cache_hit_ratio": cache.hit_rate,
            "predicates.selectivity_p50": float(np.median(
                [mask.mean() for mask in self.masks])),
            "routing.fallbacks": counts["fallbacks"],
            "routing.mean_abs_estimator_error": float(np.mean(
                [abs(s.estimator_error) for s in stats])),
        })
        for route, count in counts["routes"].items():
            phase.layer[f"routing.route_count.{route}"] = count
        for name, rows in self.groups.items():
            phase.layer[f"core.recall_at_10.{name}"] = check.mean_recall(
                ids[rows], self.truth[rows])
        return phase

    def index_bytes(self) -> int:
        return self.index.nbytes()


class GraphHotPreds(_ClosedLoopSearch):
    name = "graph_hot_preds"
    latency_limit_ms = 10.0
    recall_floor = 0.85

    def __init__(self, scale: float) -> None:
        self.n = _scaled(4000, scale, 200)
        self.per_set = _scaled(300, scale, 12)

    def setup(self, seed: int, tracer) -> None:
        rng = np.random.default_rng([seed, 0])
        with tracer.span("datasets.generate"):
            sets = [
                make_laion_like(n=self.n, dim=DIM,
                                n_queries=POOL_FACTOR * self.per_set,
                                workload=workload, seed=CORPUS_SEED)
                for workload in CORRELATIONS
            ]
            picked = [
                hybrid for ds in sets
                for hybrid in _sample(rng, ds.queries, self.per_set)
            ]
        world = sets[0]
        tally = GLOBAL_TALLY.total
        self.index = AcornIndex.build(world.vectors, world.table,
                                      params=PARAMS, seed=CORPUS_SEED)
        self.build_dist_comps = GLOBAL_TALLY.total - tally
        self.index.freeze()
        self.queries = np.stack([q.vector for q in picked])
        self.predicates = [q.predicate for q in picked]
        self.groups = {
            name: slice(i * self.per_set, (i + 1) * self.per_set)
            for i, name in enumerate(CORRELATIONS)
        }
        with tracer.span("datasets.ground_truth"):
            members = keyword_members(world.table)
            self.masks = [members[p.keywords[0]] for p in self.predicates]
            self.truth = filtered_knn(world.vectors, list(self.queries),
                                      self.masks, K)

    def make_engine(self) -> SearchEngine:
        return SearchEngine(self.index, executor="sync")


class SelectiveUniquePreds(_ClosedLoopSearch):
    name = "selective_unique_preds"
    latency_limit_ms = 25.0
    recall_floor = 0.999

    def __init__(self, scale: float) -> None:
        self.n = _scaled(4000, scale, 200)
        self.n_queries = _scaled(600, scale, 30)

    def setup(self, seed: int, tracer) -> None:
        rng = np.random.default_rng([seed, 1])
        with tracer.span("datasets.generate"):
            world = make_laion_like(n=self.n, dim=DIM,
                                    n_queries=POOL_FACTOR * self.n_queries,
                                    workload="no-cor", seed=CORPUS_SEED)
            price = np.random.default_rng(CORPUS_SEED).integers(
                0, PRICE_RANGE, size=self.n)
            world.table.add_int_column("price", price)
            members = keyword_members(world.table)
            self.predicates, self.masks = _unique_predicates(
                rng, self.n_queries, members, price)
        tally = GLOBAL_TALLY.total
        self.index = AcornIndex.build(world.vectors, world.table,
                                      params=PARAMS, seed=CORPUS_SEED)
        self.build_dist_comps = GLOBAL_TALLY.total - tally
        self.index.freeze()
        self.queries = np.stack(
            [q.vector for q in _sample(rng, world.queries, self.n_queries)])
        with tracer.span("datasets.ground_truth"):
            self.truth = filtered_knn(world.vectors, list(self.queries),
                                      self.masks, K)

    def make_engine(self) -> SearchEngine:
        return SearchEngine(RoutePlanner(self.index, policy="adaptive"),
                            executor="sync")


def _unique_predicates(rng, count: int, members: dict, price: np.ndarray):
    """``count`` predicates with distinct fingerprints, each paired with
    a truth mask composed here from the raw columns.

    Three shapes in equal shares; a ``Between`` on the uniform ``price``
    column trims each to its target selectivity.  The targets are a
    fixed log-spaced grid over [0.002, 0.05] (below s_min = 1/gamma =
    0.083) dealt out in seeded order, so every seed offers the same mix
    of filter widths and only which keyword and price window varies.
    """
    targets = rng.permutation(
        np.exp(np.linspace(np.log(0.002), np.log(0.05), count)))
    predicates, masks, seen = [], [], set()
    while len(predicates) < count:
        shape = len(predicates) % 3
        target = float(targets[len(predicates)])
        first, second = (CANDIDATE_KEYWORDS[int(i)]
                         for i in rng.integers(0, len(CANDIDATE_KEYWORDS), size=2))
        if shape == 2:
            keyword_mask = members[first] | members[second]
            keep = 1.0 - min(target / max(keyword_mask.mean(), 1e-9), 1.0)
        else:
            keyword_mask = members[first]
            keep = min(target / max(keyword_mask.mean(), 1e-9), 1.0)
        width = int(keep * PRICE_RANGE)
        low = int(rng.integers(0, PRICE_RANGE - width + 1))
        in_range = (price >= low) & (price <= low + width)
        if shape == 0:
            predicate = And(ContainsAny("keywords", [first]),
                            Between("price", low, low + width))
            mask = keyword_mask & in_range
        elif shape == 1:
            predicate = And(RegexMatch("caption", rf"\b{first}\b"),
                            Between("price", low, low + width))
            mask = keyword_mask & in_range
        else:
            predicate = And(
                Or(ContainsAny("keywords", [first]),
                   ContainsAny("keywords", [second])),
                Not(Between("price", low, low + width)))
            mask = keyword_mask & ~in_range
        fingerprint = predicate.fingerprint()
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        predicates.append(predicate)
        masks.append(mask)
    return predicates, masks


# ----------------------------------------------------------------------
# Open-loop served workload
# ----------------------------------------------------------------------


class ServedShardedOpenLoop:
    name = "served_sharded_openloop"
    latency_limit_ms = 50.0
    recall_floor = 0.9
    rate_qps = 150.0
    epoch_s = 4.0  # one pass: this many seconds of the arrival schedule
    n_tenants = 4
    n_shards = 4

    def __init__(self, scale: float) -> None:
        self.n = _scaled(4000, scale, 400)
        self.epoch_s = max(self.epoch_s * min(scale * 2, 1.0), 0.25)
        # One query per arrival: every epoch offers the whole pool once.
        self.pool = max(int(round(self.rate_qps * self.epoch_s)), 1)

    def setup(self, seed: int, tracer) -> None:
        rng = np.random.default_rng([seed, 2])
        with tracer.span("datasets.generate"):
            world = make_tripclick_like(n=self.n, dim=DIM,
                                        n_queries=POOL_FACTOR * self.pool,
                                        workload="dates", seed=CORPUS_SEED)
        tally = GLOBAL_TALLY.total
        self.index = ShardedAcornIndex.build(
            world.vectors, world.table,
            AttributeRangePartitioner("year", n_shards=self.n_shards),
            params=PARAMS, seed=CORPUS_SEED, executor="sync",
        )
        self.build_dist_comps = GLOBAL_TALLY.total - tally
        self.index.freeze()
        self.queries = np.stack(
            [q.vector for q in _sample(rng, world.queries, self.pool)])
        years = np.asarray(world.table.column("year"))
        self.predicates = _date_windows(rng, self.pool, years)
        with tracer.span("datasets.ground_truth"):
            self.masks = [(years >= p.low) & (years <= p.high)
                          for p in self.predicates]
            self.truth = filtered_knn(world.vectors, list(self.queries),
                                      self.masks, K)
        # Poisson arrivals conditioned on their count: rate * epoch
        # uniform order statistics, so every seed offers the same load
        # and only the spacing varies.  Tenant popularity is Zipf.
        self.due = np.sort(rng.uniform(0.0, self.epoch_s, size=self.pool))
        weights = 1.0 / np.arange(1, self.n_tenants + 1) ** 1.1
        self.tenants = [
            f"tenant-{t}" for t in rng.choice(
                self.n_tenants, size=self.pool, p=weights / weights.sum())
        ]

    def warm_up(self, tracer) -> None:
        with SearchEngine(self.index, executor="sync") as engine:
            engine.search_batch(self.queries[:WARMUP_OPS],
                                self.predicates[:WARMUP_OPS], k=K,
                                ef_search=EF_SEARCH)

    def measure(self, seconds: float, tracer, min_passes: int) -> Phase:
        phase = Phase(open_loop=True, span_begin=tracer.mark())
        responses, lag_ms, summaries, cache = asyncio.run(
            self._serve(phase, time.perf_counter() + seconds, min_passes))
        phase.span_end = tracer.mark()

        truth, masks = self.truth, self.masks
        served = []
        for epoch, summary in zip(responses, summaries):
            phase.violations += [
                f"arrival {i} rejected: {r.reason}"
                for i, r in enumerate(epoch) if r.rejected
            ]
            ok = [i for i, r in enumerate(epoch) if not r.rejected]
            phase.violations += check.ids_pass_masks(
                [epoch[i].result.ids for i in ok], [masks[i] for i in ok])
            phase.violations += check.serving_accounting(summary, len(epoch))
            served += [epoch[i] for i in ok]
        phase.recall = check.mean_recall(
            [[] if r.rejected else r.result.ids for r in responses[-1]], truth)
        phase.violations += check.recall_floor(phase.recall, self.recall_floor)
        stats = [r.stats for r in served]
        phase.queries = len(served)
        phase.dist_comps = sum(s.distance_computations for s in stats)
        phase.hops = sum(s.hops for s in stats)
        phase.visited = sum(s.visited_nodes for s in stats)
        wait = [r.queue_wait_ms for r in served]
        phase.layer.update({
            "serving.queue_wait_ms_p50": float(np.percentile(wait, 50)),
            "serving.queue_wait_ms_p95": float(np.percentile(wait, 95)),
            "serving.service_ms_p50": float(np.percentile(
                [r.latency_ms - r.queue_wait_ms for r in served], 50)),
            "serving.batch_size_mean": float(np.mean(
                [r.batch_size_served for r in served])),
            "serving.loadgen_lag_ms_p95": float(np.percentile(lag_ms, 95)),
            "serving.latency_p99_ms": float(np.percentile(
                np.concatenate(phase.op_ms), 99)),
            "shard.probed_per_query": float(np.mean(
                [s.shards_probed for s in stats])),
            "shard.pruned_per_query": float(np.mean(
                [s.shards_pruned for s in stats])),
            "engine.cache_hits": cache[0],
            "engine.cache_misses": cache[1],
            "engine.cache_hit_ratio": cache[0] / max(sum(cache), 1),
            "predicates.selectivity_p50": float(np.median(
                [mask.mean() for mask in masks])),
        })
        for counter in ("batches_dispatched", "admitted", "rejected"):
            phase.layer[f"serving.{counter}"] = sum(s[counter] for s in summaries)
        return phase

    async def _serve(self, phase: Phase, deadline: float, min_passes: int):
        """Replay the arrival schedule, a fresh service per epoch, until
        the deadline.

        The schedule and the service's coalescing budget are laid out in
        reference-state time: on a box running at speed ``s`` (see
        ``canary.py``) both stretch by ``1/s``, so the offered load stays
        the same share of capacity.  Left in wall-clock time, a slow
        spell would push the service toward saturation and the tail
        would measure the spell, not the code.
        """
        responses, lag_ms, summaries, cache = [], [], [], [0, 0]
        while phase.more_passes(deadline, min_passes):
            speed = phase.last_speed
            service = AcornService(self.index, ServingConfig(
                k=K, ef_search=EF_SEARCH, max_batch=16,
                latency_budget_ms=2.0 / speed, max_pending=1 << 20,
                engine_workers=1, executor="sync",
                # Wide quotas: this workload sheds nothing by design.
                default_quota=TenantQuota(burst=1 << 20, max_queue=1 << 20),
            ))
            epoch, latency_ms, lag, span_s = await self._replay(
                service, self.due / speed)
            await service.aclose()
            responses.append(epoch)
            lag_ms += lag
            summaries.append(service.summary())
            for tenant in service.tenants.known():
                info = tenant.cache.info()
                cache[0] += info.hits
                cache[1] += info.misses
            phase.op_ms.append(np.asarray(latency_ms))
            phase.pass_wall_s.append(span_s * speed)  # reference seconds
        return responses, lag_ms, summaries, cache

    async def _replay(self, service, due):
        """The benchmark's own open-loop driver: submissions never wait
        for responses, and each latency runs from the instant the
        arrival was *due*, so a stall is charged to everything behind it."""
        tenants = self.tenants
        count = len(due)
        responses = [None] * count
        latency_ms = [0.0] * count
        lag_ms = [0.0] * count
        clock = time.perf_counter

        async def one(i: int, due_at: float) -> None:
            responses[i] = await service.submit(
                self.queries[i], self.predicates[i], tenant_id=tenants[i])
            latency_ms[i] = (clock() - due_at) * 1e3

        start = clock()
        tasks = []
        for i in range(count):
            due_at = start + float(due[i])
            delay = due_at - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            lag_ms[i] = (clock() - due_at) * 1e3
            tasks.append(asyncio.ensure_future(one(i, due_at)))
        await asyncio.gather(*tasks)
        span_s = clock() - (start + float(due[0]))
        return responses, latency_ms, lag_ms, span_s

    def index_bytes(self) -> int:
        return self.index.nbytes()


def _date_windows(rng, count: int, years: np.ndarray) -> list[Between]:
    """``count`` publication-year ranges on a fixed grid of widths.

    Window ``j`` covers a share ``0.03 + 0.87 u^2`` of the rows (``u``
    evenly spaced in (0, 1): mostly narrow, a few very wide, median
    0.25 like the TripClick date filters), placed at a seeded offset in
    the sorted column and dealt out in seeded order.  Every seed
    therefore offers the same mix of filter widths; where each window
    sits, and so which shards it touches, varies.
    """
    ordered = np.sort(years)
    n = len(ordered)
    u = (np.arange(count) + 0.5) / count
    windows = []
    for share in rng.permutation(0.03 + 0.87 * u ** 2):
        width = max(int(share * n), 1)
        first = int(rng.integers(0, n - width + 1))
        windows.append(Between("year", int(ordered[first]),
                               int(ordered[first + width - 1])))
    return windows


# ----------------------------------------------------------------------
# Churn workload
# ----------------------------------------------------------------------

READ, INSERT, DELETE = 0, 1, 2


class ChurnReadWrite:
    name = "churn_read_write"
    latency_limit_ms = 10.0
    recall_floor = 0.85
    max_cycles = 30
    write_fraction = 0.10  # inserts == deletes: the live set is stationary

    def __init__(self, scale: float) -> None:
        self.n = _scaled(1200, scale, 100)
        self.cycle_ops = _scaled(600, scale, 60)
        self.pool = _scaled(512, scale, 32)
        self.writes = max(int(self.cycle_ops * self.write_fraction), 2)

    def setup(self, seed: int, tracer) -> None:
        total = self.n + self.max_cycles * self.writes
        rng = self.rng = np.random.default_rng([seed, 3])
        with tracer.span("datasets.generate"):
            world = make_laion_like(n=total, dim=DIM,
                                    n_queries=POOL_FACTOR * self.pool,
                                    workload="no-cor", seed=CORPUS_SEED)
            reads = _sample(rng, world.queries, self.pool)
            self.insert_rows = [world.table.row(i) for i in range(self.n, total)]
            base_table = subset_table(world.table, np.arange(self.n))
        # The policy fires when the delta holds a cycle's inserts, and
        # the tape ends every cycle on an insert: exactly one rebuild-
        # compaction per cycle, as its last operation.
        config = LifecycleConfig(
            auto_publish=True, build_seed=CORPUS_SEED, n_workers=1,
            compact_delta_fraction=0.0, compact_min_delta=self.writes,
            compact_tombstone_fraction=2.0,
        )
        tally = GLOBAL_TALLY.total
        self.lifecycle = LifecycleIndex.build(
            world.vectors[:self.n], base_table, params=PARAMS,
            seed=CORPUS_SEED, config=config)
        self.build_dist_comps = GLOBAL_TALLY.total - tally
        self.lifecycle.freeze()
        self.compactor = BackgroundCompactor(self.lifecycle)
        self.vectors = world.vectors
        self.queries = np.stack([q.vector for q in reads])
        self.predicates = [q.predicate for q in reads]
        with tracer.span("datasets.ground_truth"):
            members = keyword_members(world.table)
            self.masks = [members[p.keywords[0]] for p in self.predicates]
        # One cycle of tape, replayed every cycle: the same kinds and
        # the same queries at the same positions (inserted rows and
        # delete victims are fresh each time), so position i of every
        # cycle is the same operation on an equally shaped index.
        kinds = np.zeros(self.cycle_ops - 1, dtype=np.int8)
        kinds[:self.writes - 1] = INSERT
        kinds[self.writes - 1:2 * self.writes - 1] = DELETE
        rng.shuffle(kinds)
        self.kinds = np.append(kinds, INSERT).tolist()
        self.tape_queries = rng.integers(0, self.pool, size=self.cycle_ops).tolist()
        # The harness's own ledger of what is live and which world row
        # each external id carries: the checker's oracle.
        self.live = list(range(self.n))
        self.live_set = set(self.live)
        self.row_of = {i: i for i in range(self.n)}
        self.next_row = self.n
        self.cycles_run = 0

    def warm_up(self, tracer) -> None:
        for q in range(min(WARMUP_OPS, self.pool)):
            self._read(q)

    def _read(self, q: int):
        start = time.perf_counter()
        snapshot = self.lifecycle.acquire_read_snapshot()
        try:
            result = snapshot.search(self.queries[q], self.predicates[q], K,
                                     ef_search=EF_SEARCH)
        finally:
            self.lifecycle.release_read_snapshot(snapshot)
        return time.perf_counter() - start, snapshot, result

    def _write(self, kind: int):
        """One insert or delete plus the inline compactor tick; returns
        (write seconds, tick seconds, compaction report or None)."""
        clock = time.perf_counter
        if kind == INSERT:
            row = self.next_row
            self.next_row += 1
            start = clock()
            external = self.lifecycle.insert(self.vectors[row],
                                             self.insert_rows[row - self.n])
            written = clock() - start
            self.row_of[external] = row
            self.live.append(external)
            self.live_set.add(external)
        else:
            j = int(self.rng.integers(0, len(self.live)))
            self.live[j], self.live[-1] = self.live[-1], self.live[j]
            victim = self.live.pop()
            self.live_set.discard(victim)
            start = clock()
            applied = self.lifecycle.delete(victim)
            written = clock() - start
            if not applied:
                raise RuntimeError(f"delete of live id {victim} was refused")
        start = clock()
        report = self.compactor.tick()
        return written, clock() - start, report

    def measure(self, seconds: float, tracer, min_passes: int) -> Phase:
        phase = Phase(span_begin=tracer.mark(),
                      latency_ops=np.asarray(self.kinds) == READ)
        deadline = time.perf_counter() + seconds
        self.samples = {name: [] for name in (
            "insert_ms", "delete_ms", "compact_s", "first_read_ms",
            "delta_size", "recall", "compactions")}
        while (phase.more_passes(deadline, min_passes)
               and self.cycles_run < self.max_cycles):
            self._cycle(phase, tracer)
        phase.span_end = tracer.mark()
        samples = self.samples
        phase.recall = float(np.mean(samples["recall"]))
        phase.violations += check.recall_floor(phase.recall, self.recall_floor)
        phase.violations += check.one_compaction_per_cycle(samples["compactions"])
        phase.layer.update({
            "lifecycle.insert_ms_p50": float(np.median(samples["insert_ms"])),
            "lifecycle.delete_ms_p50": float(np.median(samples["delete_ms"])),
            "lifecycle.write_ms_p50": float(np.median(
                samples["insert_ms"] + samples["delete_ms"])),
            "lifecycle.compactions": len(samples["compact_s"]),
            "lifecycle.compact_s_total": float(np.sum(samples["compact_s"])),
            "lifecycle.compact_s_mean": float(np.mean(samples["compact_s"] or [0])),
            "lifecycle.post_compaction_first_read_ms": float(
                np.mean(samples["first_read_ms"] or [0])),
            "lifecycle.epochs_published": self.lifecycle.current_epoch,
            "lifecycle.delta_size_mean": float(np.mean(samples["delta_size"])),
            "lifecycle.tombstones_final": self.lifecycle.tombstone_count(),
            "predicates.selectivity_p50": float(np.median(
                [mask.mean() for mask in self.masks])),
        })
        return phase

    def _cycle(self, phase: Phase, tracer) -> None:
        """One replay of the tape.  An operation's time is the read, or
        the write plus its compactor tick; the untimed oracle work
        between operations is left out of the cycle's wall time."""
        samples = self.samples
        op_ms = np.empty(self.cycle_ops)
        compactions = 0
        after_swap = self.cycles_run > 0
        first_op = self.cycles_run * self.cycle_ops
        for i, kind in enumerate(self.kinds):
            if kind != READ:
                with tracer.span("op.write", first_op + i):
                    written, ticked, report = self._write(kind)
                op_ms[i] = (written + ticked) * 1e3
                samples["insert_ms" if kind == INSERT else "delete_ms"].append(
                    written * 1e3)
                if report is not None:
                    compactions += 1
                    samples["compact_s"].append(ticked)
                continue
            q = self.tape_queries[i]
            with tracer.span("op.read", first_op + i):
                elapsed, snapshot, result = self._read(q)
            op_ms[i] = elapsed * 1e3
            if after_swap:
                samples["first_read_ms"].append(elapsed * 1e3)
                after_swap = False
            # Untimed: the oracle runs on the very snapshot the read used.
            exact = snapshot.exact_search(self.queries[q], self.predicates[q], K)
            samples["recall"].append(check.recall(result.ids, exact.ids))
            phase.violations += check.read_violations(
                result.ids, self.live_set, self.row_of, self.masks[q])
            phase.queries += 1
            phase.dist_comps += int(result.distance_computations)
            phase.hops += int(result.hops)
            phase.visited += int(result.visited_nodes)
            samples["delta_size"].append(self.lifecycle.delta_size())
        self.cycles_run += 1
        samples["compactions"].append(compactions)
        phase.op_ms.append(op_ms)
        phase.pass_wall_s.append(float(op_ms.sum()) / 1e3)

    def index_bytes(self) -> int:
        snapshot = self.lifecycle.acquire_read_snapshot()
        try:
            return snapshot.base.nbytes()
        finally:
            self.lifecycle.release_read_snapshot(snapshot)


WORKLOADS = {
    cls.name: cls
    for cls in (GraphHotPreds, SelectiveUniquePreds,
                ServedShardedOpenLoop, ChurnReadWrite)
}
