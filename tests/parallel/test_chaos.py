"""Worker-death chaos: crashes degrade throughput, never the batch.

A chunk whose worker dies is retried once on the respawned slot, then
runs inline in the parent — either way the batch result stays
byte-identical to the sequential loop, with the downgrade counted.
"""

import numpy as np
import pytest

from repro.core.acorn import AcornIndex
from repro.core.params import AcornParams
from repro.engine.engine import QueryBatch, SearchEngine
from repro.parallel import WorkerCrash
from repro.predicates import Equals

from tests.parallel.conftest import make_labeled_world


@pytest.fixture(scope="module")
def chaos_world():
    vectors, table = make_labeled_world(n=300, seed=71)
    index = AcornIndex.build(
        vectors, table,
        params=AcornParams(m=8, gamma=3, m_beta=8, ef_construction=40),
        seed=6,
    )
    return vectors, table, index


class TestEngineChunkRecovery:
    def _batch(self, vectors):
        return QueryBatch.build(
            vectors[:8], [Equals("label", i % 3) for i in range(8)],
            k=4, ef_search=40,
        )

    def test_mid_call_death_retries_on_respawned_slot(self, chaos_world):
        vectors, _table, index = chaos_world
        batch = self._batch(vectors)
        with SearchEngine(index, num_workers=1, executor="sync") as engine:
            baseline = [r.ids.tobytes()
                        for r in engine.search_batch(batch).results]
        with SearchEngine(index, num_workers=1,
                          executor="process") as engine:
            engine.search_batch(batch)  # warm spawn + pin
            pool = engine._proc_pool
            pool.call(0, "die_next")
            outcome = engine.search_batch(batch)
            assert [r.ids.tobytes() for r in outcome.results] == baseline
            assert engine.chunk_retries == 1
            assert engine.chunk_inline_fallbacks == 0
            assert pool.stats()["deaths"] == 1
            assert pool.stats()["spawns"] == 2

    def test_double_crash_falls_back_inline(self, chaos_world,
                                            monkeypatch):
        """When the retry slot dies too, the chunk runs in the parent:
        throughput degrades, the batch never does."""
        vectors, _table, index = chaos_world
        batch = self._batch(vectors)
        with SearchEngine(index, num_workers=1, executor="sync") as engine:
            baseline = [r.ids.tobytes()
                        for r in engine.search_batch(batch).results]
        with SearchEngine(index, num_workers=1,
                          executor="process") as engine:
            engine.search_batch(batch)
            pool = engine._proc_pool

            def always_crash(calls):
                return [WorkerCrash(slot, "forced") for slot, *_ in calls]

            monkeypatch.setattr(pool, "map_calls", always_crash)
            outcome = engine.search_batch(batch)
            assert [r.ids.tobytes() for r in outcome.results] == baseline
            assert engine.chunk_retries == 1
            assert engine.chunk_inline_fallbacks == 1
            assert engine.process_fallbacks == 0
