"""Every searcher resolves a pre-compiled predicate by one rule.

A mask remembers the table it was compiled against.  Applied to any
other table — even one of equal length — its bits name the wrong rows,
so a searcher recompiles it from its source predicate; an ad-hoc mask
(no table) must cover exactly the searcher's rows or the call raises.
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
    ShardedAcornIndex,
)
from repro.baselines import IvfFlatIndex, PostFilterSearcher, PreFilterSearcher
from repro.predicates import CompiledPredicate

N = 300
K = 10
PRED = Equals("label", 1)
PARAMS = AcornParams(m=8, gamma=6, m_beta=16)


def _table(n, seed):
    table = AttributeTable(n)
    table.add_int_column(
        "label", np.random.default_rng(seed).integers(0, 4, size=n))
    return table


@pytest.fixture(scope="module")
def world():
    vectors = np.random.default_rng(0).standard_normal(
        (N, 16)).astype(np.float32)
    return vectors, _table(N, 1)


def _acorn(vectors, table):
    return AcornIndex.build(vectors, table, params=PARAMS, seed=1)


FACTORIES = {
    "acorn": _acorn,
    "route_planner": lambda v, t: RoutePlanner(_acorn(v, t)),
    "sharded": lambda v, t: ShardedAcornIndex.build(
        v, t, HashPartitioner(2), params=PARAMS, seed=1),
    "prefilter": PreFilterSearcher,
    "postfilter": lambda v, t: PostFilterSearcher(
        HnswIndex.build(v, m=8, ef_construction=32, seed=1), t),
    "ivf": lambda v, t: IvfFlatIndex(v, t, seed=1),
    "lifecycle": lambda v, t: LifecycleIndex.build(
        v, t, params=PARAMS, seed=1),
}


@pytest.fixture(scope="module", params=sorted(FACTORIES))
def searcher(request, world):
    return FACTORIES[request.param](*world)


@pytest.mark.parametrize("foreign_rows", [N, N + 100])
def test_foreign_table_mask_is_recompiled(world, searcher, foreign_rows):
    vectors, table = world
    foreign = PRED.compile(_table(foreign_rows, 2))
    assert len(foreign) != N or (foreign.mask != PRED.mask(table)).any()
    want = searcher.search(vectors[0], PRED, K, ef_search=64)
    got = searcher.search(vectors[0], foreign, K, ef_search=64)
    assert len(want) > 0
    assert got.ids.tolist() == want.ids.tolist()
    assert got.distances.tobytes() == want.distances.tobytes()


def test_wrong_length_ad_hoc_mask_raises(world, searcher):
    vectors, _ = world
    ad_hoc = CompiledPredicate(PRED, np.ones(N + 100, dtype=bool))
    with pytest.raises(ValueError, match=(
            f"compiled predicate covers {N + 100} entities, table has {N}")):
        searcher.search(vectors[0], ad_hoc, K, ef_search=64)

