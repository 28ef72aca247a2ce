"""A malformed query is refused at every public search entry.

The entries are those of ``tests/test_ef_search_validation.py``.  Three
kinds of input used to be answered as if they were well formed:

- a NaN or inf query, answered with arbitrary ids at NaN distances;
- a query of the wrong shape, flattened into one vector (a ``(2, 3)``
  array against a 6-dim index) or, through the engine, into one query
  per flattened row;
- a non-integral ``k`` / ``ef_search``, truncated by the engine,
  accepted as an effort everywhere, or failing inside a slice.

``DistanceComputer.set_query`` refuses the first two wherever a search
binds its query; ``QueryBatch.build`` refuses a batch of more than two
dimensions; ``check_search_args`` refuses the third.
"""

import numpy as np
import pytest

from repro import (
    AcornIndex,
    AcornParams,
    AttributeTable,
    Equals,
    HashPartitioner,
    HnswIndex,
    LifecycleIndex,
    RoutePlanner,
    SearchEngine,
    ServingConfig,
    ShardedAcornIndex,
)
from repro.baselines import (
    FilteredVamanaIndex,
    IvfFlatIndex,
    IvfPqIndex,
    IvfSq8Index,
    NhqIndex,
    OraclePartitionIndex,
    PostFilterSearcher,
    PreFilterSearcher,
    StitchedVamanaIndex,
)

DIM = 6
PARAMS = AcornParams(m=4, gamma=2, m_beta=8, ef_construction=16)
PRED = Equals("label", 1)


def _world():
    gen = np.random.default_rng(17)
    vectors = gen.standard_normal((60, DIM)).astype(np.float32)
    table = AttributeTable(60)
    table.add_int_column("label", gen.integers(0, 3, size=60))
    return vectors, table


VECTORS, TABLE = _world()


def _nonfinite(value):
    query = VECTORS[0].copy()
    query[1] = value
    return query


#: name -> (query, args, expected exception, message regex)
CASES = {
    "nan": (np.full(DIM, np.nan, dtype=np.float32), (5, 64),
            ValueError, "query contains non-finite values"),
    "one_inf": (_nonfinite(np.inf), (5, 64),
                ValueError, "query contains non-finite values"),
    "two_rows": (VECTORS[:2, :DIM // 2], (5, 64),
                 ValueError, r"query has shape \(2, 3\)"),
    "float_k": (VECTORS[0], (2.5, 64), TypeError, "k must be an integer"),
    "float_ef": (VECTORS[0], (5, 40.7),
                 TypeError, "ef_search must be an integer"),
}
case_names = pytest.mark.parametrize("case", sorted(CASES))


def _refused(case):
    _, _, error, message = CASES[case]
    return pytest.raises(error, match=message)


def _search(searcher, case):
    query, (k, ef), _, _ = CASES[case]
    return searcher.search(query, PRED, k, ef_search=ef)


@pytest.fixture(scope="module")
def index():
    return AcornIndex.build(VECTORS, TABLE, params=PARAMS, seed=1)


@case_names
def test_acorn_index_search(index, case):
    with _refused(case):
        _search(index, case)


@case_names
def test_route_planner_search(index, case):
    with _refused(case):
        _search(RoutePlanner(index), case)


@case_names
def test_sharded_search(case):
    sharded = ShardedAcornIndex.build(VECTORS, TABLE, HashPartitioner(2),
                                      params=PARAMS, seed=1)
    with _refused(case):
        _search(sharded, case)


@case_names
def test_epoch_snapshot_search(case):
    lc = LifecycleIndex.build(VECTORS, TABLE, params=PARAMS, seed=1)
    with _refused(case):
        _search(lc, case)
    with _refused(case):
        _search(lc._published, case)


@case_names
def test_hnsw_search(case):
    hnsw = HnswIndex.build(VECTORS, m=4, ef_construction=16, seed=1)
    query, (k, ef), _, _ = CASES[case]
    with _refused(case):
        hnsw.search(query, k, ef_search=ef)


#: The engine's batch of two: each row one case query, except the
#: shape case, whose (2, 2, 3) batch the parent answered as two 6-dim
#: queries.
ENGINE_CASES = {
    "nan": (np.stack([VECTORS[0], CASES["nan"][0]]), (5, 64),
            ValueError, "query contains non-finite values"),
    "one_inf": (np.stack([VECTORS[0], CASES["one_inf"][0]]), (5, 64),
                ValueError, "query contains non-finite values"),
    "three_dims": (VECTORS[:2].reshape(2, 2, DIM // 2), (5, 64),
                   ValueError, r"shape \(2, 2, 3\)"),
    "float_k": (VECTORS[:2], (2.5, 64), TypeError, "k must be an integer"),
    "float_ef": (VECTORS[:2], (5, 40.7),
                 TypeError, "ef_search must be an integer"),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_engine_search_batch(index, case):
    queries, (k, ef), error, message = ENGINE_CASES[case]
    with SearchEngine(index) as engine, pytest.raises(error, match=message):
        engine.search_batch(queries, [PRED, PRED], k=k, ef_search=ef)


@pytest.mark.parametrize("case", ["float_k", "float_ef"])
def test_serving_config(case):
    _, (k, ef), _, _ = CASES[case]
    with _refused(case):
        ServingConfig(k=k, ef_search=ef)


BASELINES = {
    "prefilter": PreFilterSearcher,
    "postfilter": lambda v, t: PostFilterSearcher(
        HnswIndex.build(v, m=4, ef_construction=16, seed=1), t),
    "ivf_flat": lambda v, t: IvfFlatIndex(v, t, seed=1),
    "ivf_sq8": lambda v, t: IvfSq8Index(v, t, seed=1),
    "ivf_pq": lambda v, t: IvfPqIndex(v, t, n_subspaces=3, n_centroids=8,
                                      seed=1),
    "nhq": lambda v, t: NhqIndex(v, t, "label"),
    "filtered_vamana": lambda v, t: FilteredVamanaIndex(
        v, t, "label", r=8, l=16, seed=1),
    "stitched_vamana": lambda v, t: StitchedVamanaIndex(
        v, t, "label", r_small=8, l_small=16, r_stitched=12, seed=1),
    "oracle": lambda v, t: OraclePartitionIndex(
        v, t, [PRED], m=4, ef_construction=16, seed=1),
}


@pytest.fixture(scope="module")
def baselines():
    return {name: make(VECTORS, TABLE) for name, make in BASELINES.items()}


@case_names
@pytest.mark.parametrize("name", sorted(BASELINES))
def test_baseline_search(baselines, name, case):
    with _refused(case):
        _search(baselines[name], case)
