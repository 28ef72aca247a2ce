"""Search invariants: predicate satisfaction and a recall tripwire.

Two properties the whole system rests on: (1) hybrid search never
returns an entity that fails its predicate, for any index type and any
predicate; (2) ACORN-gamma stays close to exact filtered search — a
regression tripwire at the paper's operating point (gamma = 12,
ef = 64) on a 2k-vector workload.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes import AttributeTable
from repro.baselines import PreFilterSearcher
from repro.core import AcornIndex, AcornParams
from repro.engine import SearchEngine
from repro.eval import mean_recall_at_k
from repro.predicates import Equals, OneOf

from tests.conftest import on_threads

ALL_SEARCHERS = [
    "acorn_index",
    "acorn_one_index",
    "prefilter_searcher",
    "postfilter_searcher",
    "ivf_searcher",
]


@pytest.mark.parametrize("searcher_name", ALL_SEARCHERS)
def test_batch_results_satisfy_predicates(
    searcher_name, request, engine_queries, engine_predicates, labeled_table
):
    searcher = request.getfixturevalue(searcher_name)
    with SearchEngine(searcher) as engine:
        results = on_threads(
            lambda i: engine.search_batch(
                engine_queries[i:i + 1], engine_predicates[i:i + 1], k=8,
                ef_search=48,
            ).results[0],
            range(len(engine_queries)), 4,
        )
    for result, predicate in zip(results, engine_predicates):
        mask = predicate.mask(labeled_table)
        assert all(mask[int(i)] for i in result.ids), (
            f"{searcher_name} returned ids failing {predicate!r}"
        )


@settings(max_examples=25, deadline=None)
@given(
    label=st.integers(min_value=0, max_value=5),
    extra=st.integers(min_value=0, max_value=5),
    query_row=st.integers(min_value=0, max_value=599),
    k=st.integers(min_value=1, max_value=12),
)
def test_acorn_satisfies_arbitrary_label_predicates(
    acorn_index, small_vectors, labeled_table, label, extra, query_row, k
):
    """Property: for random (predicate, query, k) triples, every id the
    engine returns passes the predicate, and results stay sorted.

    At ef 32 (32 · Mβ = 512 < 600 rows) two labels (≈ 200 rows) are
    walked; one label (≈ 100 rows) is under the count cutoff and scans."""
    predicate = OneOf("label", sorted({label, extra}))
    with SearchEngine(acorn_index) as engine:
        outcome = engine.search_batch(
            small_vectors[0][query_row], predicate, k=k, ef_search=32
        )
    (result,) = outcome.results
    assert result.hops > 0 or label == extra
    mask = predicate.mask(labeled_table)
    assert all(mask[int(i)] for i in result.ids)
    assert len(result.ids) <= k
    distances = np.asarray(result.distances)
    assert np.all(np.diff(distances) >= 0)


@pytest.fixture(scope="module")
def recall_world():
    """2k clustered vectors, an 8-label column, and 24 hybrid queries —
    the workload for the recall tripwire."""
    gen = np.random.default_rng(42)
    n, dim = 2000, 24
    centers = gen.standard_normal((10, dim)).astype(np.float32)
    assign = gen.integers(0, 10, size=n)
    vectors = (centers[assign]
               + 0.3 * gen.standard_normal((n, dim))).astype(np.float32)
    table = AttributeTable(n)
    table.add_int_column("label", gen.integers(0, 8, size=n))
    queries = vectors[gen.choice(n, size=24, replace=False)].copy()
    predicates = [Equals("label", i % 8) for i in range(24)]
    return vectors, table, queries, predicates


def test_acorn_gamma_recall_tripwire(recall_world):
    """ACORN-gamma recall >= 0.85 vs brute force at gamma=12, ef=64.

    Selectivity is ~1/8 > 1/gamma, inside the regime where the paper
    predicts the predicate subgraph retains HNSW-like navigability
    (Section 5.1), so recall well below 1.0 signals a construction or
    traversal regression, not workload noise.
    """
    vectors, table, queries, predicates = recall_world
    params = AcornParams(m=12, gamma=12, m_beta=24, ef_construction=40)
    index = AcornIndex.build(vectors, table, params=params, seed=0)
    exact = PreFilterSearcher(vectors, table)

    k = 10
    with SearchEngine(index) as engine:
        found = on_threads(
            lambda i: engine.search_batch(
                queries[i:i + 1], predicates[i:i + 1], k=k, ef_search=64
            ).results[0].ids,
            range(len(queries)), 4,
        )
    truth = [
        exact.search(q, p, k).ids for q, p in zip(queries, predicates)
    ]
    recall = mean_recall_at_k(found, truth, k)
    assert recall >= 0.85, f"ACORN-gamma recall regressed: {recall:.3f}"
