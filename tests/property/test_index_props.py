"""Property-based tests for index invariants under random builds."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes import AttributeTable
from repro.core import AcornIndex, AcornParams
from repro.hnsw import HnswIndex
from repro.predicates import Equals


def _build_inputs(n, dim, n_labels, seed):
    gen = np.random.default_rng(seed)
    vectors = gen.standard_normal((n, dim)).astype(np.float32)
    table = AttributeTable(n)
    table.add_int_column("label", gen.integers(0, n_labels, size=n))
    return vectors, table


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(5, 60),
    dim=st.integers(2, 8),
    m=st.integers(2, 6),
    seed=st.integers(0, 1000),
)
def test_hnsw_structural_invariants(n, dim, m, seed):
    vectors, _ = _build_inputs(n, dim, 3, seed)
    index = HnswIndex.build(vectors, m=m, ef_construction=12, seed=seed)
    index.graph.validate()
    graph = index.graph
    assert graph.entry_point >= 0
    assert graph.node_level(graph.entry_point) == graph.max_level
    for node in graph.nodes_at_level(0):
        assert len(graph.neighbors(node, 0)) <= 2 * m
    for level in range(1, graph.max_level + 1):
        for node in graph.nodes_at_level(level):
            assert len(graph.neighbors(node, level)) <= m


@settings(max_examples=6, deadline=None)
@given(
    n=st.integers(10, 50),
    m=st.integers(2, 5),
    gamma=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_acorn_structural_invariants(n, m, gamma, seed):
    vectors, table = _build_inputs(n, 4, 3, seed)
    params = AcornParams(m=m, gamma=gamma, m_beta=m, ef_construction=12)
    index = AcornIndex.build(vectors, table, params=params, seed=seed)
    index.graph.validate()
    graph = index.graph
    for node in graph.nodes_at_level(0):
        assert len(graph.neighbors(node, 0)) <= index._cap0
    for level in range(1, graph.max_level + 1):
        for node in graph.nodes_at_level(level):
            assert len(graph.neighbors(node, level)) <= params.max_degree


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 1000),
    k=st.integers(1, 8),
    label=st.integers(0, 2),
    ef=st.integers(4, 9),
)
def test_acorn_search_contract(seed, k, label, ef):
    """For any query: results pass the predicate, are unique, sorted by
    distance, and at most k.  ``max(ef, k) · Mβ`` stays below n = 60, so
    a label passing more than n/γ rows is walked, not scanned."""
    vectors, table = _build_inputs(60, 4, 3, seed=99)
    params = AcornParams(m=4, gamma=3, m_beta=6, ef_construction=16)
    index = AcornIndex.build(vectors, table, params=params, seed=7)
    gen = np.random.default_rng(seed)
    query = gen.standard_normal(4).astype(np.float32)
    predicate = Equals("label", label)
    compiled = predicate.compile(table)
    result = index.search(query, predicate, k, ef_search=ef)
    assert len(result) <= k
    assert len(set(result.ids.tolist())) == len(result)
    assert compiled.passes_many(result.ids).all()
    assert (np.diff(result.distances) >= -1e-6).all()


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 1000))
def test_hnsw_search_finds_inserted_point(seed):
    gen = np.random.default_rng(seed)
    vectors = gen.standard_normal((40, 4)).astype(np.float32)
    index = HnswIndex.build(vectors, m=4, ef_construction=16, seed=seed)
    target = int(gen.integers(0, 40))
    result = index.search(vectors[target], 1, ef_search=40)
    assert result.ids[0] == target
