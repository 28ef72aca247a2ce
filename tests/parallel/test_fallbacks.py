"""Counted (never silent) fallbacks from the process to the inline path.

Searchers outside the snapshot registry and platforms without shared
memory downgrade to inline execution with ``process_fallbacks`` /
``last_fallback_reason`` recording why — and the answers stay
identical either way.
"""

import pytest

import repro.parallel as parallel_pkg
from repro.baselines import PreFilterSearcher
from repro.core.params import AcornParams
from repro.engine.engine import QueryBatch, SearchEngine
from repro.predicates import Equals
from repro.shard.partition import HashPartitioner
from repro.shard.sharded import ShardedAcornIndex

from tests.parallel.conftest import make_labeled_world


class TestEngineFallbacks:
    def test_unregistered_searcher_runs_inline(
        self, small_vectors, labeled_table, result_key
    ):
        searcher = PreFilterSearcher(small_vectors[0], labeled_table)
        batch = QueryBatch.build(
            small_vectors[0][:6],
            [Equals("label", i % 6) for i in range(6)],
            k=4,
        )
        with SearchEngine(searcher, executor="sync") as engine:
            baseline = result_key(engine.search_batch(batch))
        with SearchEngine(searcher, num_workers=2,
                          executor="process") as engine:
            outcome = engine.search_batch(batch)
            assert result_key(outcome) == baseline
            assert outcome.num_workers == 1  # a counted fallback ran inline
            assert engine.process_fallbacks == 1
            assert "not process-executable" in engine.last_fallback_reason
            # every batch re-counts: the downgrade is never sticky-silent
            engine.search_batch(batch)
            assert engine.process_fallbacks == 2

    def test_missing_shared_memory_falls_back(
        self, acorn_index, small_vectors, result_key, monkeypatch
    ):
        batch = QueryBatch.build(small_vectors[0][:6],
                                 Equals("label", 1), k=4, ef_search=32)
        with SearchEngine(acorn_index, executor="sync") as engine:
            baseline = result_key(engine.search_batch(batch))
        monkeypatch.setattr(parallel_pkg, "parallel_available",
                            lambda: False)
        with SearchEngine(acorn_index, num_workers=2,
                          executor="process") as engine:
            outcome = engine.search_batch(batch)
            assert result_key(outcome) == baseline
            assert engine.process_fallbacks == 1
            assert engine.last_fallback_reason == "shared memory unavailable"

    def test_invalid_executor_rejected(self, acorn_index):
        for executor in ("fork", "thread"):  # threads are not an executor
            with pytest.raises(ValueError, match="executor"):
                SearchEngine(acorn_index, executor=executor)


class TestShardedFallbacks:
    def test_invalid_executor_rejected(self):
        """The sharded front probes inline; its ``executor=`` keyword
        survives for compatibility and accepts ``"sync"`` only."""
        vectors, table = make_labeled_world(n=120, seed=131)
        for executor in ("greenlet", "thread", "process"):
            with pytest.raises(ValueError, match="executor"):
                ShardedAcornIndex.build(
                    vectors, table, HashPartitioner(2),
                    params=AcornParams(m=8, gamma=3, m_beta=8,
                                       ef_construction=32),
                    seed=12, executor=executor,
                )
