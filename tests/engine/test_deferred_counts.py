"""Deferred distance-count accumulation under concurrent readers.

The CSR kernel batches counter updates per query (two lock
acquisitions per query instead of two per hop).  These tests pin the
accounting contract: the process-global tally advances by exactly the
sum of per-query counts — no increment lost, none double-flushed — for
any number of threads sharing one engine, and per-query results stay
byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import QueryBatch, SearchEngine
from repro.predicates import Equals
from repro.vectors.distance import GLOBAL_TALLY, DistanceComputer

from tests.conftest import on_threads

K = 8
EF = 48


class TestDeferredComputer:
    """Unit-level defer/flush semantics on one computer."""

    @pytest.fixture
    def computer(self):
        base = np.arange(20, dtype=np.float32).reshape(-1, 2)
        return DistanceComputer(base)

    def test_pending_counts_visible_before_flush(self, computer):
        computer.defer_counts()
        before = GLOBAL_TALLY.total
        computer.distances_to(
            np.zeros(2, dtype=np.float32), np.arange(5, dtype=np.intp)
        )
        # Locally visible immediately, globally invisible until flush.
        assert computer.count == 5
        assert GLOBAL_TALLY.total == before

    def test_flush_settles_global_tally_once(self, computer):
        computer.defer_counts()
        before = GLOBAL_TALLY.total
        computer.distances_to(
            np.zeros(2, dtype=np.float32), np.arange(7, dtype=np.intp)
        )
        flushed = computer.flush_counts()
        assert flushed == 7
        assert GLOBAL_TALLY.total == before + 7
        assert computer.count == 7
        # A second flush with nothing pending is a no-op.
        assert computer.flush_counts() == 0
        assert GLOBAL_TALLY.total == before + 7

    def test_undeterred_path_unchanged(self, computer):
        before = GLOBAL_TALLY.total
        computer.distances_to(
            np.zeros(2, dtype=np.float32), np.arange(4, dtype=np.intp)
        )
        assert computer.count == 4
        assert GLOBAL_TALLY.total == before + 4


class TestEnginePoolAccounting:
    """Whole-batch accounting across reader-thread counts."""

    @pytest.fixture(scope="class")
    def workload(self, small_vectors):
        vectors, _ = small_vectors
        gen = np.random.default_rng(321)
        picks = gen.choice(vectors.shape[0], size=16, replace=False)
        queries = vectors[picks].copy()
        predicates = [Equals("label", i % 6) for i in range(16)]
        return QueryBatch.build(queries, predicates, k=K, ef_search=EF)

    @staticmethod
    def _threaded(acorn_index, workload, n_threads):
        """The workload, one query per call, on ``n_threads`` threads."""
        with SearchEngine(acorn_index) as engine:
            return on_threads(
                lambda i: engine.search_batch(
                    workload.queries[i], workload.predicates[i],
                    k=K, ef_search=EF,
                ).results[0],
                range(len(workload)), n_threads,
            )

    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_tally_delta_equals_sum_of_query_counts(
        self, acorn_index, workload, n_threads
    ):
        before = GLOBAL_TALLY.total
        results = self._threaded(acorn_index, workload, n_threads)
        delta = GLOBAL_TALLY.total - before
        assert delta == sum(r.distance_computations for r in results)

    def test_results_identical_across_worker_counts(
        self, acorn_index, workload
    ):
        baselines = None
        for n_threads in (1, 2, 4):
            results = self._threaded(acorn_index, workload, n_threads)
            if baselines is None:
                baselines = results
                continue
            for got, want in zip(results, baselines):
                assert got.ids.tobytes() == want.ids.tobytes()
                assert got.distances.tobytes() == want.distances.tobytes()
                assert got.distance_computations == want.distance_computations
                assert got.hops == want.hops
                assert got.visited_nodes == want.visited_nodes
