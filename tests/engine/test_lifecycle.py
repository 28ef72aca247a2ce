"""Engine lifecycle hardening and batch-validation diagnostics."""

import gc

import numpy as np
import pytest

from repro.engine.engine import QueryBatch, SearchEngine
from repro.predicates import Equals, TruePredicate


class TestQueryBatchValidation:
    def test_mismatched_lengths_message_names_both_counts(self):
        queries = np.zeros((3, 4), dtype=np.float32)
        predicates = [TruePredicate()] * 2
        with pytest.raises(ValueError) as excinfo:
            QueryBatch.build(queries, predicates, k=5)
        message = str(excinfo.value)
        assert "3 queries" in message
        assert "2 predicates" in message
        assert "broadcast" in message

    def test_too_many_predicates_also_rejected(self):
        queries = np.zeros((2, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="2 queries.*5 predicates"):
            QueryBatch.build(queries, [TruePredicate()] * 5, k=5)

    def test_single_predicate_broadcasts(self):
        queries = np.zeros((3, 4), dtype=np.float32)
        batch = QueryBatch.build(queries, Equals("x", 1), k=5)
        assert len(batch.predicates) == 3

    def test_matched_lengths_accepted(self):
        queries = np.zeros((2, 4), dtype=np.float32)
        batch = QueryBatch.build(queries, [TruePredicate()] * 2, k=5)
        assert len(batch) == 2


class TestEngineClose:
    """Pools are created lazily and spawn nothing until a batch needs
    them, so these cases close real (empty) process pools."""

    def _engine(self, acorn_index, workers=2):
        return SearchEngine(acorn_index, num_workers=workers,
                            executor="process")

    def test_close_idempotent(self, acorn_index):
        engine = self._engine(acorn_index)
        pool = engine._process_pool()  # force pool creation
        engine.close()
        engine.close()
        assert engine._proc_pool is None
        assert pool.closed

    def test_del_after_explicit_close(self, acorn_index):
        engine = self._engine(acorn_index)
        engine._process_pool()
        engine.close()
        engine.__del__()  # must not raise
        assert engine._proc_pool is None

    def test_close_without_pool(self, acorn_index):
        engine = self._engine(acorn_index)
        engine.close()  # never created a pool
        assert engine._proc_pool is None

    def test_del_safe_after_failed_init(self):
        """__del__ on a partially-constructed engine must not raise."""
        engine = SearchEngine.__new__(SearchEngine)  # __init__ never ran
        engine.__del__()

    def test_context_manager_closes(self, acorn_index):
        with self._engine(acorn_index) as engine:
            pool = engine._process_pool()
            assert engine._proc_pool is not None
        assert engine._proc_pool is None
        assert pool.closed

    def test_search_after_close_raises(self, acorn_index, small_vectors):
        """close() is terminal: it may have unlinked shared-memory
        arenas, so a later batch raises instead of silently re-creating
        pools (the contract the process executor relies on)."""
        engine = SearchEngine(acorn_index)
        batch = QueryBatch.build(
            small_vectors[0][:4], TruePredicate(), k=3, ef_search=16
        )
        engine.search_batch(batch)
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.search_batch(batch)
        engine.close()  # still idempotent after the failed call

    def test_gc_collects_closed_engine(self, acorn_index):
        engine = self._engine(acorn_index)
        engine._process_pool()
        engine.close()
        del engine
        gc.collect()  # triggers __del__; must be silent
