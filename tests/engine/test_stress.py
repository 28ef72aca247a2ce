"""Concurrency stress: many readers on one frozen snapshot.

Hammers the engine with more threads than the fast suite uses, while an
independent writer builds another index on the same interpreter, and
verifies (a) answers stay byte-identical to the sequential baseline and
(b) no distance-count increment is ever lost to a race.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import AcornIndex, AcornParams
from repro.core.search import assert_frozen
from repro.engine import SearchEngine
from repro.predicates import Equals
from repro.vectors.distance import GLOBAL_TALLY, DistanceComputer

pytestmark = pytest.mark.slow

N_THREADS = 8
N_QUERIES = 50 * N_THREADS


@pytest.fixture(scope="module")
def stress_workload(small_vectors):
    gen = np.random.default_rng(314)
    picks = gen.integers(0, small_vectors[0].shape[0], size=N_QUERIES)
    queries = small_vectors[0][picks].copy()
    predicates = [Equals("label", int(i) % 6) for i in range(N_QUERIES)]
    return queries, predicates


def test_shared_snapshot_with_concurrent_writer(
    acorn_index, stress_workload
):
    """8 worker threads x 50 queries each against one frozen snapshot,
    while a writer thread builds a separate index concurrently; results
    must match the sequential baseline exactly."""
    queries, predicates = stress_workload
    baseline = [
        acorn_index.search(q, p, 5, ef_search=40)
        for q, p in zip(queries, predicates)
    ]

    built = []

    def writer():
        gen = np.random.default_rng(1)
        vecs = gen.standard_normal((300, 16)).astype(np.float32)
        from repro.attributes import AttributeTable

        table = AttributeTable(300)
        table.add_int_column("label", gen.integers(0, 4, size=300))
        params = AcornParams(m=6, gamma=4, m_beta=12, ef_construction=24)
        built.append(AcornIndex.build(vecs, table, params=params, seed=9))

    frozen = acorn_index.freeze()
    assert_frozen(frozen)
    thread = threading.Thread(target=writer)
    thread.start()
    try:
        with SearchEngine(acorn_index, num_workers=N_THREADS) as engine:
            outcome = engine.search_batch(
                queries, predicates, k=5, ef_search=40
            )
    finally:
        thread.join()

    assert len(built) == 1 and len(built[0]) == 300
    for seq, bat in zip(baseline, outcome.results):
        assert np.array_equal(seq.ids, bat.ids)
        assert seq.distance_computations == bat.distance_computations
    # The writer never touched the served snapshot.
    assert_frozen(acorn_index.freeze())


def test_global_tally_reconciles_under_contention(
    acorn_index, stress_workload
):
    """Readers-only phase: the process-global tally's delta equals the
    sum of per-query counts — no increment lost across 8 threads."""
    queries, predicates = stress_workload
    with SearchEngine(acorn_index, num_workers=N_THREADS) as engine:
        compiled, _ = engine._compile_predicates(predicates)
        before = GLOBAL_TALLY.total
        outcome = engine.search_batch(queries, compiled, k=5, ef_search=40)
        delta = GLOBAL_TALLY.total - before
    assert delta == outcome.summary()["total_distance_computations"]


def test_distance_computer_counter_is_thread_safe(small_vectors):
    """Direct hammer: 8 threads x 10k increments on one shared computer
    must never lose an update."""
    computer = DistanceComputer(small_vectors[0])
    per_thread, increments = 10_000, 3

    def hammer():
        for _ in range(per_thread):
            computer.add_count(increments)

    threads = [threading.Thread(target=hammer) for _ in range(N_THREADS)]
    before = GLOBAL_TALLY.total
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = N_THREADS * per_thread * increments
    assert computer.count == expected
    assert GLOBAL_TALLY.total - before == expected
