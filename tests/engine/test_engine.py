"""Engine plumbing: batch validation, instrumentation, predicate cache.

Covers the per-query ``QueryStats`` contract (in particular that its
distance-computation counts reconcile exactly with the process-global
tally), the LRU cache's hit/miss semantics, and ``QueryBatch``'s input
normalization.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine import (
    PredicateCache,
    QueryBatch,
    QueryStats,
    SearchEngine,
    resolve_table,
)
from repro.predicates import Equals, TruePredicate
from repro.vectors.distance import GLOBAL_TALLY

K = 5
EF = 48


# ----------------------------------------------------------------------
# QueryBatch validation
# ----------------------------------------------------------------------

def test_batch_build_mismatched_lengths_raises(engine_queries):
    with pytest.raises(ValueError, match="predicates"):
        QueryBatch.build(engine_queries, [TruePredicate()] * 3, k=K)


def test_batch_build_rejects_nonpositive_k(engine_queries,
                                           engine_predicates):
    with pytest.raises(ValueError, match="k must be positive"):
        QueryBatch.build(engine_queries, engine_predicates, k=0)


def test_batch_build_broadcasts_single_predicate(engine_queries):
    batch = QueryBatch.build(engine_queries, Equals("label", 0), k=K)
    assert len(batch.predicates) == len(engine_queries)
    assert all(p is batch.predicates[0] for p in batch.predicates)


def test_batch_build_promotes_single_vector(engine_queries):
    batch = QueryBatch.build(engine_queries[0], TruePredicate(), k=K)
    assert batch.queries.shape == (1, engine_queries.shape[1])
    assert len(batch) == 1


def test_batch_build_empty(engine_queries):
    batch = QueryBatch.build(
        np.empty((0, engine_queries.shape[1]), dtype=np.float32), [], k=K
    )
    assert len(batch) == 0


def test_search_batch_raw_pieces_require_k(acorn_index, engine_queries,
                                           engine_predicates):
    with SearchEngine(acorn_index) as engine:
        with pytest.raises(ValueError, match="k is required"):
            engine.search_batch(engine_queries, engine_predicates)


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------

def test_query_stats_reconcile_with_global_tally(
    acorn_index, engine_queries, engine_predicates
):
    """Acceptance criterion: per-query ``distance_computations`` sums to
    exactly the process-global counter delta across the batch."""
    with SearchEngine(acorn_index, num_workers=4) as engine:
        # Pre-compile so the delta below measures search work only.
        compiled, _ = engine._compile_predicates(engine_predicates)
        before = GLOBAL_TALLY.total
        outcome = engine.search_batch(
            engine_queries, compiled, k=K, ef_search=EF
        )
        delta = GLOBAL_TALLY.total - before
    assert delta == outcome.summary()["total_distance_computations"]
    assert delta == sum(s.distance_computations for s in outcome.stats)


def test_query_stats_match_results_and_order(
    acorn_index, engine_queries, engine_predicates
):
    with SearchEngine(acorn_index, num_workers=4) as engine:
        outcome = engine.search_batch(
            engine_queries, engine_predicates, k=K, ef_search=EF
        )
    for i, (result, stats) in enumerate(zip(outcome.results, outcome.stats)):
        assert stats.query_index == i
        assert stats.distance_computations == result.distance_computations
        assert stats.hops == result.hops
        assert stats.visited_nodes == result.visited_nodes
        assert stats.wall_time_s >= 0.0


def test_query_stats_frozen_and_serializable():
    stats = QueryStats(
        query_index=0, distance_computations=10, hops=3, visited_nodes=7,
        predicate_cache_hit=True, wall_time_s=0.5,
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.hops = 99
    record = stats.to_dict()
    assert record["distance_computations"] == 10
    assert record["predicate_cache_hit"] is True


def test_batch_summary_fields(acorn_index, engine_queries,
                              engine_predicates):
    with SearchEngine(acorn_index, num_workers=2) as engine:
        outcome = engine.search_batch(
            engine_queries, engine_predicates, k=K, ef_search=EF
        )
    summary = outcome.summary()
    assert summary["queries"] == len(engine_queries)
    assert summary["num_workers"] == 2
    assert summary["qps"] > 0
    assert summary["latency_s"]["count"] == len(engine_queries)
    assert (summary["cache_hits"] + summary["cache_misses"]
            == len(engine_queries))
    assert (summary["total_distance_computations"]
            == sum(s.distance_computations for s in outcome.stats))


# ----------------------------------------------------------------------
# Predicate cache
# ----------------------------------------------------------------------

def test_cache_hits_on_repeated_predicates(acorn_index, engine_queries):
    """6 distinct predicates over 12 queries: first sighting of each is
    a miss, every repeat is a hit."""
    predicates = [Equals("label", i % 6) for i in range(12)]
    with SearchEngine(acorn_index, num_workers=1) as engine:
        outcome = engine.search_batch(
            engine_queries, predicates, k=K, ef_search=EF
        )
        info = engine.cache_info()
    assert outcome.summary()["cache_misses"] == 6
    assert outcome.summary()["cache_hits"] == 6
    assert info.hits == 6 and info.misses == 6 and info.size == 6
    assert info.hit_rate == pytest.approx(0.5)
    # Hits and misses land on the right queries: second cycle all hits.
    flags = [s.predicate_cache_hit for s in outcome.stats]
    assert flags == [False] * 6 + [True] * 6


def test_precompiled_predicates_count_as_hits(
    acorn_index, labeled_table, engine_queries
):
    compiled = [Equals("label", i % 6).compile(labeled_table)
                for i in range(12)]
    with SearchEngine(acorn_index) as engine:
        outcome = engine.search_batch(
            engine_queries, compiled, k=K, ef_search=EF
        )
    assert outcome.summary()["cache_misses"] == 0


def test_engine_without_table_rejects_raw_predicates(engine_queries):
    class Bare:
        """Searcher with no attribute table anywhere."""

        def search(self, query, predicate, k, ef_search=64):
            raise AssertionError("should not be reached")

    engine = SearchEngine(Bare())
    assert engine.table is None
    with pytest.raises(ValueError, match="attribute table"):
        engine.search_batch(engine_queries, Equals("label", 0), k=K)


def test_resolve_table_checks_searcher_then_index(labeled_table):
    class WithTable:
        table = labeled_table

    class Router:
        index = WithTable()

    assert resolve_table(WithTable()) is labeled_table
    assert resolve_table(Router()) is labeled_table
    assert resolve_table(object()) is None


def test_predicate_cache_lru_eviction(labeled_table):
    cache = PredicateCache(capacity=2)
    p0, p1, p2 = (Equals("label", v) for v in range(3))
    cache.get_or_compile(p0, labeled_table)
    cache.get_or_compile(p1, labeled_table)
    cache.get_or_compile(p0, labeled_table)      # p0 now most recent
    cache.get_or_compile(p2, labeled_table)      # evicts p1
    _, was_hit = cache.get_or_compile(p1, labeled_table)
    assert not was_hit
    assert len(cache) == 2


def test_predicate_cache_recompiles_on_table_growth(labeled_table):
    """Entries cached against a smaller table are stale, not wrong."""
    from repro.attributes import AttributeTable

    small = AttributeTable(4)
    small.add_int_column("label", np.array([0, 1, 0, 1]))
    cache = PredicateCache(capacity=4)
    pred = Equals("label", 0)
    first, _ = cache.get_or_compile(pred, small)
    bigger, was_hit = cache.get_or_compile(pred, labeled_table)
    assert not was_hit
    assert len(bigger) == len(labeled_table) != len(first)


def test_predicate_cache_recompiles_on_same_length_table_swap():
    """A table swap of *equal* length (a lifecycle compaction after
    delete+reinsert churn) must miss: length alone cannot tell the new
    base from the old, and a stale mask filters the wrong rows."""
    from repro.attributes import AttributeTable

    old = AttributeTable(4)
    old.add_int_column("label", np.array([0, 0, 1, 1]))
    new = AttributeTable(4)
    new.add_int_column("label", np.array([1, 1, 0, 0]))
    cache = PredicateCache(capacity=4)
    pred = Equals("label", 0)
    stale, _ = cache.get_or_compile(pred, old)
    fresh, was_hit = cache.get_or_compile(pred, new)
    assert not was_hit
    assert fresh.table is new and stale.table is old
    assert fresh.mask.tolist() == [False, False, True, True]
    # and the new entry replaced the old one under the same fingerprint
    again, was_hit = cache.get_or_compile(pred, new)
    assert was_hit and again is fresh


def test_predicate_cache_clear_and_capacity_validation(labeled_table):
    with pytest.raises(ValueError, match="capacity"):
        PredicateCache(capacity=0)
    cache = PredicateCache(capacity=4)
    cache.get_or_compile(Equals("label", 0), labeled_table)
    cache.clear()
    assert len(cache) == 0
    assert cache.info().misses == 1  # counters survive clear()


def test_fingerprint_shares_masks_across_equal_predicates(labeled_table):
    cache = PredicateCache(capacity=4)
    first, _ = cache.get_or_compile(Equals("label", 3), labeled_table)
    second, was_hit = cache.get_or_compile(Equals("label", 3), labeled_table)
    assert was_hit
    assert second is first
