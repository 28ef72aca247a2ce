"""Sharded search must equal the single-index reference.

The matrix covers every ACORN variant, both partitioners, every
predicate type, and a configurable set of shard counts
(``REPRO_SHARD_COUNTS`` env var, default ``1,2,3`` — CI's shard-matrix
job sweeps it).  Comparisons run in the exhaustive regime (per-shard
``ef_search >= n``): there the scatter-gather merge provably returns
the global top-k over passing rows, byte-identical to the unsharded
index's own exhaustive answer (ties are measure-zero for continuous
random vectors; the merge tie-breaks on global id).

The ``n_shards=1`` hash case is stronger: a single shard preserves
global insertion order and reuses the seed, so the shard's graph is
*identical* to the unsharded build and results match at any effort.
"""

import os

import numpy as np
import pytest

from repro.attributes.table import subset_table
from repro.core.acorn import AcornIndex, AcornOneIndex
from repro.core.flat import FlatAcornIndex
from repro.core.params import AcornParams
from repro.engine import QueryBatch, SearchEngine
from repro.predicates import (
    And,
    Between,
    ContainsAll,
    ContainsAny,
    Equals,
    Not,
    OneOf,
    Or,
    RegexMatch,
    TruePredicate,
)
from repro.shard import (
    AttributeRangePartitioner,
    HashPartitioner,
    ShardedAcornIndex,
)

from tests.shard.conftest import make_world

SHARD_COUNTS = [
    int(s) for s in os.environ.get("REPRO_SHARD_COUNTS", "1,2,3").split(",")
]
N, DIM, SEED = 160, 10, 7
PARAMS = AcornParams(m=8, gamma=8, m_beta=16, ef_construction=48)
ACORN1_M, ACORN1_EF = 16, 48
K = 10

PREDICATES = {
    "true": TruePredicate(),
    "equals-int": Equals("year", 2004),
    "equals-str": Equals("cat", "c2"),
    # Wide enough that ACORN-1's 1-hop predicate subgraph stays
    # connected on this world; narrower sets make the *unsharded*
    # reference itself miss the exact answer (the exhaustive-regime
    # contract needs connected subgraphs on both sides).
    "oneof": OneOf("year", (2001, 2002, 2007, 2015)),
    "between": Between("year", 2003, 2008),
    "contains-any": ContainsAny("tags", ("t1", "t4")),
    "contains-all": ContainsAll("tags", ("common", "t2")),
    "regex": RegexMatch("cat", r"c[13]"),
    "and": And(Between("year", 2002, 2012), ContainsAny("tags", ("common",))),
    "or": Or(Equals("year", 2001), Between("score", 0.0, 0.3)),
    "not": Not(Between("year", 2010, 2019)),
}

PARTITIONERS = {
    "hash": lambda n_shards: HashPartitioner(n_shards, seed=1),
    "range": lambda n_shards: AttributeRangePartitioner(
        "year", n_shards=n_shards
    ),
}

_world = make_world(n=N, dim=DIM, seed=SEED)
_queries = np.random.default_rng(99).standard_normal(
    (5, DIM)
).astype(np.float32)

_reference_cache: dict = {}
_sharded_cache: dict = {}


def build_reference(variant):
    """The unsharded index for one variant (module-level cache)."""
    if variant not in _reference_cache:
        vectors, table = _world
        if variant == "acorn":
            index = AcornIndex.build(vectors, table, params=PARAMS, seed=SEED)
        elif variant == "acorn1":
            index = AcornOneIndex.build(
                vectors, table, m=ACORN1_M, ef_construction=ACORN1_EF,
                seed=SEED,
            )
        else:
            index = FlatAcornIndex.build(
                vectors, table, params=PARAMS, seed=SEED
            )
        _reference_cache[variant] = index
    return _reference_cache[variant]


def build_sharded(variant, part_kind, n_shards):
    """The sharded index for one matrix cell (module-level cache)."""
    key = (variant, part_kind, n_shards)
    if key not in _sharded_cache:
        vectors, table = _world
        _sharded_cache[key] = ShardedAcornIndex.build(
            vectors, table,
            partitioner=PARTITIONERS[part_kind](n_shards),
            params=PARAMS, seed=SEED, variant=variant,
            acorn1_m=ACORN1_M, acorn1_ef_construction=ACORN1_EF,
        )
    return _sharded_cache[key]


@pytest.mark.parametrize("variant", ["acorn", "acorn1", "flat"])
@pytest.mark.parametrize("part_kind", sorted(PARTITIONERS))
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("pred_name", sorted(PREDICATES))
def test_exhaustive_equivalence(variant, part_kind, n_shards, pred_name):
    reference = build_reference(variant)
    sharded = build_sharded(variant, part_kind, n_shards)
    predicate = PREDICATES[pred_name]
    for query in _queries:
        expected = reference.search(query, predicate, K, ef_search=N)
        got = sharded.search(query, predicate, K, ef_search=N)
        assert got.shards_probed + got.shards_pruned == n_shards
        assert np.array_equal(got.ids, expected.ids), (
            f"{variant}/{part_kind}/{n_shards}/{pred_name}: "
            f"{got.ids} != {expected.ids}"
        )
        assert np.allclose(got.distances, expected.distances)


@pytest.mark.parametrize("variant", ["acorn", "acorn1", "flat"])
def test_single_shard_matches_at_any_effort(variant):
    """n_shards=1 + same seed ⇒ graph-identical, equal even at low ef."""
    reference = build_reference(variant)
    sharded = build_sharded(variant, "hash", 1)
    for ef in (16, 32):
        for pred_name in ("true", "between", "regex"):
            predicate = PREDICATES[pred_name]
            for query in _queries:
                expected = reference.search(query, predicate, K, ef_search=ef)
                got = sharded.search(query, predicate, K, ef_search=ef)
                assert np.array_equal(got.ids, expected.ids)
                assert np.allclose(got.distances, expected.distances)


def test_four_shards_equal_each_shard_built_alone():
    """One construction path: the sharded build is nothing but
    ``AcornIndex.build`` over each shard's rows, in shard order."""
    vectors, table = _world
    sharded = ShardedAcornIndex.build(
        vectors, table, partitioner=HashPartitioner(4, seed=1),
        params=PARAMS, seed=SEED,
    )
    assert sharded.n_shards == 4
    for shard, gids in zip(sharded.shards, sharded.assignment.global_ids):
        alone = AcornIndex.build(vectors[gids], subset_table(table, gids),
                                 params=PARAMS, seed=SEED)
        assert shard.graph.checksum() == alone.graph.checksum()
        assert len(shard) == len(alone) == gids.shape[0]


def test_range_partitioner_prunes_selective_predicates():
    """Acceptance: ≥1 shard pruned on range-partitioned data, visible
    in the engine's QueryStats."""
    sharded = build_sharded("acorn", "range", 3)
    predicate = Between("year", 2000, 2003)
    plan = sharded.plan(predicate, k=K, ef_search=64)
    assert plan.n_pruned >= 1
    with SearchEngine(sharded, num_workers=2) as engine:
        batch = QueryBatch.build(_queries, predicate, k=K, ef_search=64)
        outcome = engine.search_batch(batch)
    for stats in outcome.stats:
        assert stats.shards_pruned >= 1
        assert stats.shards_probed + stats.shards_pruned == 3
    assert outcome.summary()["shards_pruned"] >= len(_queries)


def test_scaled_ef_keeps_recall_reasonable():
    """scale_ef trades effort for recall but never empties results."""
    vectors, table = _world
    scaled = ShardedAcornIndex.build(
        vectors, table,
        partitioner=AttributeRangePartitioner("year", n_shards=3),
        params=PARAMS, seed=SEED, scale_ef=True,
    )
    predicate = Between("year", 2002, 2012)
    exact = build_reference("acorn")
    for query in _queries:
        expected = set(exact.search(query, predicate, K, ef_search=N).ids.tolist())
        got = scaled.search(query, predicate, K, ef_search=64)
        assert len(got) > 0
        overlap = len(set(got.ids.tolist()) & expected)
        assert overlap >= K // 2


def test_sharded_results_are_sorted_and_pass_predicate():
    sharded = build_sharded("acorn", "range", 3)
    predicate = And(Between("year", 2002, 2012), ContainsAny("tags", ("t1",)))
    mask = predicate.compile(_world[1]).mask
    for query in _queries:
        result = sharded.search(query, predicate, K, ef_search=N)
        distances = result.distances
        assert np.all(distances[:-1] <= distances[1:])
        assert mask[result.ids].all()


def test_tombstones_respected_across_shards():
    vectors, table = _world
    sharded = ShardedAcornIndex.build(
        vectors, table, partitioner=HashPartitioner(3, seed=2),
        params=PARAMS, seed=SEED,
    )
    query = _queries[0]
    first = sharded.search(query, TruePredicate(), K, ef_search=N)
    victim = int(first.ids[0])
    sharded.mark_deleted(victim)
    assert sharded.is_deleted(victim)
    assert sharded.num_deleted == 1
    second = sharded.search(query, TruePredicate(), K, ef_search=N)
    assert victim not in second.ids.tolist()
    sharded.unmark_deleted(victim)
    third = sharded.search(query, TruePredicate(), K, ef_search=N)
    assert np.array_equal(third.ids, first.ids)
