"""Property: quantized search with a saturating rerank tail is exact.

With ``ef_search`` large enough to hold every reachable node and a
rerank budget covering every candidate, the quantized path degenerates
to "walk the same predicate subgraph, then re-score everything in
float32" — so its result set must equal the float32 path's exactly
(ids, order, and distances).  Any divergence means the quantized walk
lost a reachable candidate or the rerank tail reordered unequal
distances, both real bugs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes import AttributeTable
from repro.core import AcornIndex, AcornParams
from repro.hnsw import HnswIndex
from repro.predicates import Equals


def _world(n, dim, seed):
    gen = np.random.default_rng(seed)
    vectors = gen.standard_normal((n, dim)).astype(np.float32)
    table = AttributeTable(n)
    table.add_int_column("label", gen.integers(0, 2, size=n))
    return vectors, table


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(20, 60),
    dim=st.sampled_from([4, 6, 8]),  # pq_subspaces=2 must divide dim
    k=st.integers(1, 5),
    kind=st.sampled_from(["sq8", "pq"]),
    seed=st.integers(0, 500),
)
def test_acorn_full_rerank_matches_float32(n, dim, k, kind, seed):
    vectors, table = _world(n, dim, seed)
    params = AcornParams(m=4, gamma=2, m_beta=8, ef_construction=16)
    index = AcornIndex.build(vectors, table, params=params, seed=seed)
    query = vectors[seed % n] + 0.01
    predicate = Equals("label", seed % 2)
    exact = index.search(query, predicate, k, ef_search=n)
    index.enable_quantization({
        "kind": kind,
        # Budget >= n re-scores every candidate the walk surfaces.
        "rerank_factor": float(n),
        "pq_subspaces": 2,
        "pq_centroids": 16,
    })
    quant = index.search(query, predicate, k, ef_search=n)
    np.testing.assert_array_equal(quant.ids, exact.ids)
    np.testing.assert_allclose(quant.distances, exact.distances, rtol=1e-6)


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(20, 60),
    dim=st.sampled_from([4, 6, 8]),  # pq_subspaces=2 must divide dim
    k=st.integers(1, 5),
    kind=st.sampled_from(["sq8", "pq"]),
    seed=st.integers(0, 500),
)
def test_hnsw_full_rerank_matches_float32(n, dim, k, kind, seed):
    vectors, _ = _world(n, dim, seed)
    index = HnswIndex.build(vectors, m=4, ef_construction=16, seed=seed)
    query = vectors[seed % n] + 0.01
    exact = index.search(query, k, ef_search=n)
    index.enable_quantization({
        "kind": kind,
        "rerank_factor": float(n),
        "pq_subspaces": 2,
        "pq_centroids": 16,
    })
    quant = index.search(query, k, ef_search=n)
    np.testing.assert_array_equal(quant.ids, exact.ids)
    np.testing.assert_allclose(quant.distances, exact.distances, rtol=1e-6)
