"""``ef_search ≤ 0`` is refused at every public search entry, like
``k ≤ 0``.

Every entry widens the walk to ``max(ef_search, k)``, which would
otherwise hide the kernel's own ``ef must be positive`` check and
answer a nonsensical effort as if it were ``k``.
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

BAD = pytest.mark.parametrize("ef", [0, -5])
PARAMS = AcornParams(m=4, gamma=2, m_beta=8, ef_construction=16)
PRED = Equals("label", 1)


@pytest.fixture(scope="module")
def world():
    gen = np.random.default_rng(17)
    vectors = gen.standard_normal((60, 6)).astype(np.float32)
    table = AttributeTable(60)
    table.add_int_column("label", gen.integers(0, 3, size=60))
    return vectors, table


@pytest.fixture(scope="module")
def index(world):
    return AcornIndex.build(*world, params=PARAMS, seed=1)


def _refused(ef):
    return pytest.raises(ValueError,
                         match=f"ef_search must be positive, got {ef}")


@BAD
def test_acorn_index_search(world, index, ef):
    with _refused(ef):
        index.search(world[0][0], PRED, 5, ef_search=ef)


@BAD
def test_route_planner_search(world, index, ef):
    with _refused(ef):
        RoutePlanner(index).search(world[0][0], PRED, 5, ef_search=ef)


@BAD
def test_engine_search_batch(world, index, ef):
    with SearchEngine(index) as engine, _refused(ef):
        engine.search_batch(world[0][:2], [PRED, PRED], k=5, ef_search=ef)


@BAD
def test_sharded_search(world, ef):
    sharded = ShardedAcornIndex.build(*world, HashPartitioner(2),
                                      params=PARAMS, seed=1)
    with _refused(ef):
        sharded.search(world[0][0], PRED, 5, ef_search=ef)


@BAD
def test_epoch_snapshot_search(world, ef):
    lc = LifecycleIndex.build(*world, params=PARAMS, seed=1)
    with _refused(ef):
        lc.search(world[0][0], PRED, 5, ef_search=ef)
    with _refused(ef):
        lc._published.search(world[0][0], PRED, 5, ef_search=ef)


@BAD
def test_hnsw_search(world, ef):
    hnsw = HnswIndex.build(world[0], m=4, ef_construction=16, seed=1)
    with _refused(ef):
        hnsw.search(world[0][0], 5, ef_search=ef)


@BAD
def test_serving_config(ef):
    with _refused(ef):
        ServingConfig(ef_search=ef)


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


@BAD
@pytest.mark.parametrize("name", sorted(BASELINES))
def test_baseline_search(world, name, ef):
    with _refused(ef):
        BASELINES[name](*world).search(world[0][0], PRED, 5, ef_search=ef)
