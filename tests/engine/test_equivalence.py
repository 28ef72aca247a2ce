"""Batch execution must be byte-identical to a sequential loop.

The engine's core contract: for a fixed searcher and batch, the result
of ``search_batch`` is exactly what a one-query-at-a-time loop produces,
for every index type — also when several threads share one engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import BatchResult, QueryBatch, SearchEngine

from tests.conftest import on_threads

K = 5
EF = 48

ALL_SEARCHERS = [
    "acorn_index",
    "acorn_one_index",
    "prefilter_searcher",
    "postfilter_searcher",
    "ivf_searcher",
]


def _sequential(searcher, queries, predicates, k=K, ef=EF):
    return [
        searcher.search(q, p, k, ef_search=ef)
        for q, p in zip(queries, predicates)
    ]


def _assert_identical(seq_results, batch_results):
    assert len(seq_results) == len(batch_results)
    for seq, bat in zip(seq_results, batch_results):
        assert np.array_equal(seq.ids, bat.ids)
        assert np.array_equal(
            np.asarray(seq.distances), np.asarray(bat.distances)
        )
        assert seq.distance_computations == bat.distance_computations


@pytest.mark.parametrize("searcher_name", ALL_SEARCHERS)
def test_batch_matches_sequential(
    searcher_name, request, engine_queries, engine_predicates
):
    searcher = request.getfixturevalue(searcher_name)
    seq = _sequential(searcher, engine_queries, engine_predicates)
    with SearchEngine(searcher) as engine:
        outcomes = on_threads(
            lambda _: engine.search_batch(
                engine_queries, engine_predicates, k=K, ef_search=EF
            ),
            range(4), 4,
        )
    for outcome in outcomes:
        _assert_identical(seq, outcome.results)


@pytest.mark.parametrize("workers", [1, 4, 8])
def test_deterministic_across_worker_counts(
    workers, acorn_index, engine_queries, engine_predicates
):
    """``workers`` threads each run the batch twice on one engine."""
    batch = QueryBatch.build(engine_queries, engine_predicates, k=K,
                             ef_search=EF)
    reference = _sequential(acorn_index, engine_queries, engine_predicates)
    with SearchEngine(acorn_index) as engine:
        runs = on_threads(
            lambda _: (engine.search_batch(batch),
                       engine.search_batch(batch)),
            range(workers), workers,
        )
    for first, second in runs:
        _assert_identical(reference, first.results)
        _assert_identical(first.results, second.results)


def test_mixin_search_batch_list(acorn_index, engine_queries,
                                 engine_predicates):
    """The back-compat mixin entry point returns a plain result list."""
    seq = _sequential(acorn_index, engine_queries, engine_predicates)
    out = acorn_index.search_batch(
        engine_queries, engine_predicates, K, ef_search=EF
    )
    assert isinstance(out, list)
    _assert_identical(seq, out)


def test_mixin_with_stats_returns_batch_result(
    acorn_index, engine_queries, engine_predicates
):
    out = acorn_index.search_batch(
        engine_queries, engine_predicates, K, ef_search=EF, with_stats=True
    )
    assert isinstance(out, BatchResult)
    assert len(out.stats) == len(engine_queries)


def test_cache_eviction_preserves_correctness(
    acorn_index, engine_queries, engine_predicates
):
    """A 2-entry cache thrashing over 6 distinct predicates must still
    return exactly the sequential answers — eviction affects cost only."""
    seq = _sequential(acorn_index, engine_queries, engine_predicates)
    with SearchEngine(acorn_index, cache_size=2) as engine:
        outcome = engine.search_batch(
            engine_queries, engine_predicates, k=K, ef_search=EF
        )
        info = engine.cache_info()
    _assert_identical(seq, outcome.results)
    assert info.size <= 2
    # 6 distinct predicates through a 2-slot LRU in cyclic order: every
    # lookup evicts-then-recompiles, so every query is a miss.
    assert info.misses == len(engine_queries)


def test_empty_batch(acorn_index):
    with SearchEngine(acorn_index) as engine:
        outcome = engine.search_batch(
            np.empty((0, 16), dtype=np.float32), [], k=K
        )
    assert len(outcome) == 0
    assert outcome.results == [] and outcome.stats == []
    assert outcome.summary()["queries"] == 0


def test_single_query_batch(acorn_index, engine_queries, engine_predicates):
    seq = _sequential(
        acorn_index, engine_queries[:1], engine_predicates[:1]
    )
    with SearchEngine(acorn_index) as engine:
        outcome = engine.search_batch(
            engine_queries[0], engine_predicates[0], k=K, ef_search=EF
        )
    assert len(outcome) == 1
    _assert_identical(seq, outcome.results)
