"""Close contract: terminal, idempotent, no shm leaks.

``SearchEngine`` is a context manager whose ``close()`` shuts its
worker pool and unlinks its arenas exactly once; a closed engine raises
on use instead of silently resurrecting pools over unlinked shared
memory.
"""

import os

import pytest

from repro.core.params import AcornParams
from repro.engine.engine import QueryBatch, SearchEngine
from repro.predicates import TruePredicate

from tests.parallel.conftest import make_labeled_world


def shm_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


class TestEngineClose:
    def _batch(self, small_vectors):
        return QueryBatch.build(
            small_vectors[0][:6], TruePredicate(), k=4, ef_search=32
        )

    def test_owned_pool_and_arena_shut_down(self, acorn_index,
                                            small_vectors):
        engine = SearchEngine(acorn_index, num_workers=1,
                              executor="process")
        engine.search_batch(self._batch(small_vectors))
        pool = engine._proc_pool
        shm_name = engine._arena_manager.current.arena.shm.name
        assert shm_exists(shm_name)
        engine.close()
        assert pool.closed
        assert engine._proc_pool is None
        assert engine._arena_manager is None
        assert not shm_exists(shm_name)
        engine.close()  # idempotent
        assert engine.closed

    def test_external_pool_survives_engine_close(self, acorn_index,
                                                 small_vectors,
                                                 shared_pool):
        with SearchEngine(acorn_index, num_workers=2, executor="process",
                          process_pool=shared_pool) as engine:
            engine.search_batch(self._batch(small_vectors))
        assert engine.closed
        assert not shared_pool.closed
        assert shared_pool.call(0, "ping")["pid"] > 0

    def test_double_close_and_use_after_close(self, acorn_index,
                                              small_vectors):
        engine = SearchEngine(acorn_index)
        batch = self._batch(small_vectors)
        engine.search_batch(batch)
        engine.close()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.search_batch(batch)


class TestEpochSwapRetiresArena:
    def test_new_epoch_retires_and_unlinks_the_old(self):
        """A search-visible mutation between batches publishes a fresh
        arena; the drained old epoch unlinks (no shm accumulation)."""
        vectors, table = make_labeled_world(n=240, seed=111)
        from repro.core.acorn import AcornIndex

        index = AcornIndex.build(
            vectors, table,
            params=AcornParams(m=8, gamma=3, m_beta=8, ef_construction=40),
            seed=10,
        )
        batch = QueryBatch.build(vectors[:4], TruePredicate(), k=4,
                                 ef_search=32)
        with SearchEngine(index, num_workers=1,
                          executor="process") as engine:
            engine.search_batch(batch)
            manager = engine._arena_manager
            first = manager.current.arena.shm.name
            index.mark_deleted(3)
            outcome = engine.search_batch(batch)
            assert manager.published == 2
            assert manager.live_arenas() == 1
            assert not shm_exists(first)
            assert all(3 not in r.ids for r in outcome.results)
