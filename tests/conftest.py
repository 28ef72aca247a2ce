"""Shared fixtures: small deterministic datasets and prebuilt indexes.

Index construction dominates test runtime, so indexes over the shared
datasets are session-scoped; tests must not mutate them (tests that
exercise insertion build their own small indexes).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.attributes import AttributeTable
from repro.core import AcornIndex, AcornOneIndex, AcornParams
from repro.datasets import make_laion_like, make_sift1m_like, make_tripclick_like
from repro.hnsw import HnswIndex
from repro.hnsw.hnsw import SearchResult
from repro.hnsw.scratch import TraversalScratch
from repro.hnsw.traversal import TraversalStats, search_layer


def assert_results_identical(got, want, counters=True):
    """Two ``SearchResult``s equal byte for byte, counters included."""
    assert got.ids.dtype == want.ids.dtype
    assert got.ids.tobytes() == want.ids.tobytes()
    assert got.distances.dtype == want.distances.dtype
    assert got.distances.tobytes() == want.distances.tobytes()
    assert got.distance_computations == want.distance_computations
    if counters:
        assert (got.hops, got.visited_nodes) == (want.hops,
                                                 want.visited_nodes)


def on_threads(fn, items, n_threads):
    """``[fn(item) for item in items]``, computed on ``n_threads`` threads.

    The library starts no search threads of its own, so the suites that
    pin concurrent-search safety drive it through this harness: thread
    ``t`` takes items ``t, t + n_threads, ...``, results come back in
    item order, and the first exception any thread raised is re-raised.
    A thread still running after five minutes fails the test.
    """
    items = list(items)
    out = [None] * len(items)
    errors = []

    def work(start):
        try:
            for i in range(start, len(items), n_threads):
                out[i] = fn(items[i])
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(t,), daemon=True)
               for t in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads), "thread hung"
    if errors:
        raise errors[0]
    return out


def _reference_level(computer, query, seeds, ef, neighbor_fn, scratch, n,
                     stats=None):
    """One level through ``search_layer`` in a fresh epoch scope."""
    scratch.begin(n)
    for _, node in seeds:
        scratch.mark(node)
    return search_layer(computer, query, seeds, ef, neighbor_fn, scratch,
                        stats=stats)


def _reference_result(computer, found, k, stats):
    """The top ``k`` of ``found`` with the walk's counters."""
    return SearchResult.from_pairs(
        found[:k], distance_computations=computer.count,
        hops=stats.hops, visited_nodes=stats.visited,
    )


def reference_search(index, query, predicate, k, ef_search=64,
                     entry_point=None):
    """``AcornIndex.search``'s float32 descent through the reference kernel.

    Same entry, same per-level lookups (``_neighbor_fn``), same seeds and
    final mask application — but every level runs ``search_layer`` with
    epoch-stamped visited marks, never ``search_frozen_level``.  The
    production path must equal this byte for byte —
    including its scan: with no ``entry_point`` and at most
    ``max(ef_search, k) · M / 2`` passing rows, or (γ > 1) at most
    ``n_live / γ`` passing rows or at most ``max(ef_search, k) · Mβ``
    live rows in the index, every passing row is scored and the answer
    is the exact top ``k`` by (distance, id).
    """
    computer = index.store.computer()
    query = computer.set_query(query)
    mask = index._effective_mask(index._compile(predicate).mask)
    n, stats, scratch = len(index), TraversalStats(), TraversalScratch()
    passing = np.flatnonzero(mask[:n])
    gamma, n_live = index.params.gamma, n - index.num_deleted
    width = max(ef_search, k)
    if entry_point is None and (
            passing.size <= width * index.params.m // 2
            or (gamma > 1 and (passing.size * gamma <= n_live
                               or n_live <= width * index.params.m_beta))):
        if passing.size == 0:
            return SearchResult.empty()
        dists = computer.distances_to(query, passing).astype(np.float32)
        pairs = sorted(zip(dists.tolist(), passing.tolist()))[:k]
        return SearchResult.from_pairs(
            pairs, distance_computations=computer.count,
            visited_nodes=passing.size)
    entry = index.graph.entry_point if entry_point is None else entry_point
    seeds = [(computer.distance_one(query, entry), entry)]
    stats.visited += 1
    for lev in range(index.graph.node_level(entry), 0, -1):
        seeds = _reference_level(computer, query, seeds, 1,
                                 index._neighbor_fn(lev, mask), scratch, n,
                                 stats)
    seeds = index._bottom_seeds(computer, query, seeds)
    stats.visited += len(seeds)
    found = _reference_level(computer, query, seeds, max(ef_search, k),
                             index._neighbor_fn(0, mask), scratch, n, stats)
    passing = [(dist, nid) for dist, nid in found if mask[nid]]
    return _reference_result(computer, passing, k, stats)


def reference_hnsw_search(index, query, k, ef_search=64):
    """``HnswIndex.search`` over the *live* lists through ``search_layer``."""
    computer = index.store.computer()
    query = computer.set_query(query)
    graph, n, scratch = index.graph, len(index), TraversalScratch()
    stats = TraversalStats()
    entry = graph.entry_point
    found = [(computer.distance_one(query, entry), entry)]
    stats.visited += 1
    for lev in range(graph.node_level(entry), 0, -1):
        found = _reference_level(
            computer, query, found, 1,
            lambda c, lev=lev: graph.neighbors(c, lev), scratch, n, stats)
    stats.visited += 1
    found = _reference_level(computer, query, found, max(ef_search, k),
                             lambda c: graph.neighbors(c, 0), scratch, n,
                             stats)
    return _reference_result(computer, found, k, stats)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_vectors():
    """600 clustered 16-d vectors used across index tests."""
    gen = np.random.default_rng(7)
    centers = gen.standard_normal((8, 16)).astype(np.float32)
    assign = gen.integers(0, 8, size=600)
    return (centers[assign] + 0.3 * gen.standard_normal((600, 16)).astype(np.float32),
            assign)


@pytest.fixture(scope="session")
def labeled_table(small_vectors):
    """Attribute table with a 6-value label column over small_vectors."""
    gen = np.random.default_rng(8)
    n = small_vectors[0].shape[0]
    table = AttributeTable(n)
    table.add_int_column("label", gen.integers(0, 6, size=n))
    return table


@pytest.fixture(scope="session")
def hnsw_index(small_vectors):
    return HnswIndex.build(small_vectors[0], m=8, ef_construction=40, seed=1)


@pytest.fixture(scope="session")
def acorn_index(small_vectors, labeled_table):
    params = AcornParams(m=8, gamma=6, m_beta=16, ef_construction=32)
    return AcornIndex.build(
        small_vectors[0], labeled_table, params=params, seed=2
    )


@pytest.fixture(scope="session")
def acorn_one_index(small_vectors, labeled_table):
    # ACORN-1's 2-hop expansion pool scales with M^2; at M=8 it is too
    # small to keep sparse predicate subgraphs connected (the paper
    # defaults to M=32), so the shared fixture uses M=16.
    return AcornOneIndex.build(
        small_vectors[0], labeled_table, m=16, ef_construction=48, seed=2
    )


@pytest.fixture(scope="session")
def sift_tiny():
    return make_sift1m_like(n=500, dim=24, n_queries=30, seed=0)


@pytest.fixture(scope="session")
def tripclick_tiny():
    return make_tripclick_like(n=500, dim=24, n_queries=30, workload="areas", seed=2)


@pytest.fixture(scope="session")
def laion_tiny():
    return make_laion_like(n=500, dim=24, n_queries=30, workload="no-cor", seed=3)
