"""Shared fixtures: small deterministic datasets and prebuilt indexes.

Index construction dominates test runtime, so indexes over the shared
datasets are session-scoped; tests must not mutate them (tests that
exercise insertion build their own small indexes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attributes import AttributeTable
from repro.core import AcornIndex, AcornOneIndex, AcornParams
from repro.core.quantsearch import exact_rerank
from repro.datasets import make_laion_like, make_sift1m_like, make_tripclick_like
from repro.hnsw import HnswIndex
from repro.hnsw.hnsw import SearchResult
from repro.hnsw.scratch import TraversalScratch
from repro.hnsw.traversal import TraversalStats, search_layer
from repro.vectors.quantized_store import rerank_budget


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


def _reference_level(computer, query, seeds, ef, neighbor_fn, scratch, n,
                     stats=None, monitor=None):
    """One level through ``search_layer`` in a fresh epoch scope."""
    scratch.begin(n)
    for _, node in seeds:
        scratch.mark(node)
    return search_layer(computer, query, seeds, ef, neighbor_fn, scratch,
                        stats=stats, monitor=monitor)


def _level0_ranker(index, computer, query, seeds):
    """Level 0's distance provider and seeds: the exact computer, or — on
    a quantized index — its ``QuantizedComputer``, seeds re-scored."""
    qstore = index._quant_store()
    if qstore is None:
        return computer, seeds
    qcomp = qstore.computer()
    ids = np.asarray([nid for _, nid in seeds], dtype=np.intp)
    return qcomp, list(zip(qcomp.distances_to(query, ids).tolist(),
                           ids.tolist()))


def _reference_result(index, computer, ranker, query, found, k, stats):
    """The top ``k`` of ``found`` — exactly reranked when codes ranked it."""
    if ranker is computer:
        return SearchResult.from_pairs(
            found[:k], distance_computations=computer.count,
            hops=stats.hops, visited_nodes=stats.visited,
        )
    rf = index.quantization.rerank_factor
    ids, dists, n_rerank = exact_rerank(
        computer, query, [nid for _, nid in found], k, rerank_budget(k, rf))
    return SearchResult(
        ids=ids, distances=dists, distance_computations=computer.count,
        hops=stats.hops, visited_nodes=stats.visited,
        quantized_distances=ranker.count, rerank_distances=n_rerank,
        rerank_factor=rf,
    )


def reference_search(index, query, predicate, k, ef_search=64,
                     entry_point=None, monitor=None):
    """``AcornIndex.search``'s float32 descent through the reference kernel.

    Same entry, same per-level lookups (``_neighbor_fn``), same seeds and
    final mask application — but every level runs ``search_layer`` with
    epoch-stamped visited marks, never ``search_frozen_level``.  On a
    quantized index level 0 ranks by the codes and the exact tail
    reranks.  The production path must equal this byte for byte —
    including its scan: with no ``entry_point`` and at most
    ``max(ef_search, k) · M / 2`` passing rows, every passing row is
    scored and the answer is the exact top ``k`` by (distance, id).
    """
    computer = index.store.computer()
    query = computer.set_query(query)
    mask = index._effective_mask(index._compile(predicate).mask)
    n, stats, scratch = len(index), TraversalStats(), TraversalScratch()
    passing = np.flatnonzero(mask[:n])
    if (entry_point is None
            and passing.size <= max(ef_search, k) * index.params.m // 2):
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
    ranker, seeds = _level0_ranker(index, computer, query, seeds)
    found = _reference_level(ranker, query, seeds, max(ef_search, k),
                             index._neighbor_fn(0, mask), scratch, n, stats,
                             monitor)
    passing = [(dist, nid) for dist, nid in found if mask[nid]]
    return _reference_result(index, computer, ranker, query, passing, k,
                             stats)


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
    ranker, seeds = _level0_ranker(index, computer, query, found)
    found = _reference_level(ranker, query, seeds, max(ef_search, k),
                             lambda c: graph.neighbors(c, 0), scratch, n,
                             stats)
    return _reference_result(index, computer, ranker, query, found, k, stats)


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
