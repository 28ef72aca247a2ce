"""Executor equivalence matrix.

``sync`` × ``process`` over {ACORN-γ, ACORN-1, flat} ×
predicate families must produce *byte-identical* batches — ids,
distances, and per-query counters — because both executors run the
same search methods over the same frozen arrays.  The process column
additionally asserts zero fallbacks and, via the worker-side
``introspect`` op, that the hot arrays are shared-memory views.
"""

import numpy as np
import pytest

from repro.core.flat import FlatAcornIndex
from repro.core.params import AcornParams
from repro.engine.engine import QueryBatch, SearchEngine
from repro.predicates import Between, Equals, Not, Or, TruePredicate

INDEXES = ("acorn", "acorn1", "flat")
PREDICATE_FAMILIES = ("true", "equals", "range", "boolean")


@pytest.fixture(scope="module")
def matrix_indexes(acorn_index, acorn_one_index, small_vectors,
                   labeled_table):
    flat = FlatAcornIndex.build(
        small_vectors[0], labeled_table, seed=2,
        params=AcornParams(m=8, gamma=6, m_beta=16, ef_construction=32),
    )
    return {"acorn": acorn_index, "acorn1": acorn_one_index, "flat": flat}


@pytest.fixture(scope="module")
def matrix_queries(small_vectors):
    vectors, _ = small_vectors
    gen = np.random.default_rng(123)
    return vectors[gen.choice(vectors.shape[0], size=10, replace=False)]


def family_predicates(family):
    if family == "true":
        return TruePredicate()
    if family == "equals":
        return [Equals("label", i % 6) for i in range(10)]
    if family == "range":
        return [Between("label", 0, 2), Between("label", 3, 5)] * 5
    return [
        Or(Equals("label", i % 6), Equals("label", (i + 1) % 6))
        if i % 2 else Not(Equals("label", i % 6))
        for i in range(10)
    ]


@pytest.mark.parametrize("index_name", INDEXES)
@pytest.mark.parametrize("family", PREDICATE_FAMILIES)
class TestExecutorEquivalence:
    def _batch(self, matrix_queries, family):
        # ef 32 · Mβ 16 < 600 rows: ACORN-γ and flat walk every family
        # but "equals", whose ≈ 100 rows are under the count cutoff.
        return QueryBatch.build(
            matrix_queries, family_predicates(family), k=5, ef_search=32
        )

    def test_process_matches_sync_bytes(
        self, matrix_indexes, matrix_queries, shared_pool, result_key,
        index_name, family,
    ):
        index = matrix_indexes[index_name]
        batch = self._batch(matrix_queries, family)
        with SearchEngine(index, executor="sync") as engine:
            sync = engine.search_batch(batch)
            baseline = result_key(sync)
        assert any(s.hops for s in sync.stats) or family == "equals"
        with SearchEngine(index, num_workers=2, executor="process",
                          process_pool=shared_pool) as engine:
            outcome = engine.search_batch(batch)
            assert result_key(outcome) == baseline
            assert outcome.num_workers == 2  # two chunks dispatched
            assert engine.process_fallbacks == 0
            assert engine.last_fallback_reason == ""
            # a second batch reuses the warm pins — still identical
            assert result_key(engine.search_batch(batch)) == baseline


class TestOneQueryBatch:
    def test_runs_inline_without_spawning(self, acorn_index,
                                          matrix_queries, result_key):
        """A pipe round trip costs more than one search, so a one-query
        batch never reaches the pool: nothing spawns, no arena is
        published, and the bytes equal the sync path's."""
        batch = QueryBatch.build(matrix_queries[:1], Equals("label", 2),
                                 k=5, ef_search=40)
        with SearchEngine(acorn_index, executor="sync") as engine:
            baseline = result_key(engine.search_batch(batch))
        with SearchEngine(acorn_index, num_workers=2,
                          executor="process") as engine:
            outcome = engine.search_batch(batch)
            assert result_key(outcome) == baseline
            assert outcome.num_workers == 1
            assert engine._arena_manager is None
            assert engine._proc_pool is None  # never asked for
            assert engine._process_pool().stats()["spawns"] == 0
            assert engine.process_fallbacks == 0


class TestWorkerZeroCopy:
    def test_workers_read_the_arena_not_copies(
        self, acorn_index, matrix_queries, shared_pool
    ):
        """The in-worker half of the zero-copy contract: the
        decoded searcher's vectors and CSR arrays share memory with the
        mapped arena block, read-only."""
        batch = QueryBatch.build(matrix_queries, TruePredicate(), k=5,
                                 ef_search=40)
        with SearchEngine(acorn_index, num_workers=2, executor="process",
                          process_pool=shared_pool) as engine:
            engine.search_batch(batch)
            record = engine._arena_manager.current
            pin = (record.token, {"arena": record.arena.handle()})
            report = shared_pool.call(
                0, "introspect", {"token": record.token}, pin=pin
            )
        assert report["vectors_shared"] is True
        assert report["csr_shared"] is True
        assert report["vectors_writeable"] is False
        assert report["arena_nbytes"] == record.arena.nbytes
        assert report["pid"] > 0

