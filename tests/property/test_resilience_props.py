"""Property tests: degraded scatter-gather equals the survivors-only
ground truth, for any seeded fault plan with at least one survivor.

Worlds use small-integer vector grids so duplicate distances (exact
ties) occur constantly — the merge's deterministic (distance, id)
tie-break is part of what these properties pin.  Everything runs on a
:class:`~repro.utils.clock.FakeClock`; no real sleeping anywhere.
"""

import functools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attributes.table import AttributeTable
from repro.predicates import Between, TruePredicate
from repro.shard import (
    Fault,
    FaultInjector,
    FaultPlan,
    HashPartitioner,
    ResiliencePolicy,
    ShardedAcornIndex,
    merge_topk,
)
from repro.utils.clock import FakeClock

N, DIM = 60, 4
MAX_SHARDS = 4
CLOCK = FakeClock()
POLICY = ResiliencePolicy(
    shard_deadline_s=1.0, max_retries=1, backoff_base_s=0.01,
    breaker_threshold=10_000, breaker_reset_s=1e9, clock=CLOCK,
)
FAULT_KINDS = ("error", "latency", "corrupt", "truncate")


@functools.lru_cache(maxsize=MAX_SHARDS)
def _world(n_shards):
    """One cached flat-variant sharded world per shard count.

    The index is only ever *read* by the tests (fault wrappers and
    breakers are created fresh per example), so sharing it across
    examples and test orderings is safe.
    """
    rng = np.random.default_rng(100 + n_shards)
    # Integer grid vectors: duplicate coordinates => exact distance ties.
    vectors = rng.integers(0, 3, size=(N, DIM)).astype(np.float32)
    table = AttributeTable(N)
    table.add_int_column("year", rng.integers(2000, 2006, size=N))
    index = ShardedAcornIndex.build(
        vectors, table, partitioner=HashPartitioner(n_shards),
        variant="flat", seed=5, resilience=POLICY,
    )
    return vectors, table, index


def _survivor_reference(index, query, compiled, k, ef, dead):
    """Scatter-gather over surviving probed shards, merged exactly as
    the production path merges."""
    plan = index.plan(compiled, k=k, ef_search=ef)
    parts = []
    for decision in plan.decisions:
        if decision.pruned or decision.shard_id in dead:
            continue
        gids = index.assignment.global_ids[decision.shard_id]
        local_mask = compiled.mask[gids]
        if not local_mask.any():
            continue
        found = index.shards[decision.shard_id].search(
            query, type(compiled)(compiled.predicate, local_mask),
            k, ef_search=decision.ef_search,
        )
        parts.append((found.distances, gids[found.ids]))
    return merge_topk(parts, k)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n_shards=st.integers(2, MAX_SHARDS),
    k=st.integers(1, 12),
    query_seed=st.integers(0, 2**16),
    plan_seed=st.integers(0, 2**16),
    predicate_kind=st.sampled_from(["true", "between"]),
    data=st.data(),
)
def test_degraded_equals_survivor_scatter(n_shards, k, query_seed,
                                          plan_seed, predicate_kind, data):
    vectors, table, index = _world(n_shards)
    dead = data.draw(
        st.sets(st.integers(0, n_shards - 1), min_size=1,
                max_size=n_shards - 1),
        label="dead shards",
    )
    kinds = data.draw(
        st.lists(st.sampled_from(FAULT_KINDS), min_size=len(dead),
                 max_size=len(dead)),
        label="fault kinds",
    )
    plan = FaultPlan({
        shard: (Fault(kind=kind,
                      latency_s=5.0 if kind == "latency" else 0.0),)
        for shard, kind in zip(sorted(dead), kinds)
    })
    chaos = index.with_faults(
        FaultInjector(plan, clock=CLOCK, seed=plan_seed)
    )

    rng = np.random.default_rng(query_seed)
    query = rng.integers(0, 3, size=DIM).astype(np.float32)
    predicate = (TruePredicate() if predicate_kind == "true"
                 else Between("year", 2001, 2004))
    compiled = predicate.compile(table)

    result = chaos.search(query, compiled, k, ef_search=N)
    distances, ids = _survivor_reference(index, query, compiled, k, N, dead)

    assert result.ids.tolist() == ids.tolist()
    assert result.distances.tobytes() == distances.tobytes()
    probed_dead = sum(
        1 for rec in result.per_shard
        if not rec["pruned"] and rec["shard"] in dead
    )
    assert result.shards_failed + result.shards_timed_out == probed_dead
    assert result.degraded == (probed_dead > 0)
    assert 0.0 <= result.recall_ceiling <= 1.0
    assert result.shards_probed + result.shards_pruned == n_shards


def _parts(streams):
    """``(distances, ids)`` arrays from ``(distance, id)`` pair lists."""
    return [(np.asarray([d for d, _ in s], dtype=np.float32),
             np.asarray([i for _, i in s], dtype=np.int64)) for s in streams]


def _pairs(merged):
    distances, ids = merged
    return list(zip(distances.tolist(), ids.tolist()))


@settings(max_examples=60, deadline=None)
@given(
    streams=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 2.0]),
                st.integers(0, 99),
            ),
            max_size=8,
        ),
        max_size=5,
    ),
    k=st.integers(0, 12),
)
def test_merge_topk_matches_global_sort_under_ties(streams, k):
    """The merge equals sorting the concatenation by (distance, id) —
    including duplicate distances across and within parts, in any
    order inside a part — then truncating to k."""
    merged = _pairs(merge_topk(_parts(streams), k))
    flat = sorted(pair for s in streams for pair in s)
    assert merged == flat[:k]


def test_merge_topk_tie_break_is_deterministic_across_stream_order():
    streams_a = [[(0.5, 7), (1.0, 1)], [(0.5, 3), (0.5, 9)]]
    streams_b = [[(0.5, 3), (0.5, 9)], [(0.5, 7), (1.0, 1)]]
    merged = _pairs(merge_topk(_parts(streams_a), 3))
    assert merged == _pairs(merge_topk(_parts(streams_b), 3))
    assert merged == [(0.5, 3), (0.5, 7), (0.5, 9)]
