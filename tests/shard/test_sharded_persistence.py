"""Sharded save/load: one archive keeps shards, router and table."""

import numpy as np
import pytest

from repro.core.params import AcornParams
from repro.persistence import load_index, read_image, save_index
from repro.predicates import Between, TruePredicate
from repro.shard import (
    AttributeRangePartitioner,
    HashPartitioner,
    ShardedAcornIndex,
)

from tests.shard.conftest import make_world

PARAMS = AcornParams(m=8, gamma=6, m_beta=12, ef_construction=40)
N, DIM, SEED = 150, 10, 3


@pytest.fixture(scope="module")
def sharded_index():
    """A 3-shard range-partitioned index with two tombstones."""
    vectors, table = make_world(n=N, dim=DIM, seed=SEED)
    index = ShardedAcornIndex.build(
        vectors, table,
        partitioner=AttributeRangePartitioner("year", n_shards=3),
        params=PARAMS, seed=SEED,
    )
    index.mark_deleted(17)
    index.mark_deleted(42)
    return index


@pytest.fixture()
def query():
    return np.random.default_rng(5).standard_normal(DIM).astype(np.float32)


class TestRoundTrip:
    def test_layout(self, sharded_index, tmp_path):
        """Each shard's arrays sit under ``shard{s}.`` beside the
        assignment and the global table; the meta nests the shards'."""
        save_index(sharded_index, tmp_path / "idx.npz")
        meta, arrays = read_image(
            np.fromfile(tmp_path / "idx.npz", dtype=np.uint8), "idx")
        prefixes = {n.split(".")[0] for n in arrays if "." in n}
        assert prefixes == {"shard0", "shard1", "shard2", "table"}
        assert "shard_of" in arrays
        assert {"shard0.vectors", "shard2.L0.indices",
                "table.col0"} <= set(arrays)
        assert meta["kind"] == "sharded"
        assert len(meta["shards"]) == 3
        assert meta["partitioner"]["type"] == "attribute-range"

    def test_results_preserved(self, sharded_index, tmp_path, query):
        save_index(sharded_index, tmp_path / "idx.npz")
        loaded = load_index(tmp_path / "idx.npz")
        for predicate in (TruePredicate(), Between("year", 2002, 2008)):
            before = sharded_index.search(query, predicate, 8, ef_search=N)
            after = loaded.search(query, predicate, 8, ef_search=N)
            assert np.array_equal(before.ids, after.ids)
            assert np.allclose(before.distances, after.distances)
            assert after.shards_probed == before.shards_probed
            assert after.shards_pruned == before.shards_pruned

    def test_tombstones_preserved(self, sharded_index, tmp_path):
        save_index(sharded_index, tmp_path / "idx.npz")
        loaded = load_index(tmp_path / "idx.npz")
        assert loaded.is_deleted(17)
        assert loaded.is_deleted(42)
        assert loaded.num_deleted == 2

    def test_partitioner_and_router_preserved(self, sharded_index, tmp_path):
        save_index(sharded_index, tmp_path / "idx.npz")
        loaded = load_index(tmp_path / "idx.npz")
        assert loaded.partitioner.spec() == sharded_index.partitioner.spec()
        plan_before = sharded_index.plan(Between("year", 2002, 2004), k=5)
        plan_after = loaded.plan(Between("year", 2002, 2004), k=5)
        assert [d.pruned for d in plan_after.decisions] == [
            d.pruned for d in plan_before.decisions
        ]

    def test_save_index_load_index_dispatch(self, sharded_index, tmp_path,
                                            query):
        """The generic persistence entry points route sharded indexes."""
        save_index(sharded_index, tmp_path / "idx.npz")
        loaded = load_index(tmp_path / "idx.npz")
        assert isinstance(loaded, ShardedAcornIndex)
        before = sharded_index.search(query, TruePredicate(), 5, ef_search=N)
        after = loaded.search(query, TruePredicate(), 5, ef_search=N)
        assert np.array_equal(before.ids, after.ids)

    def test_hash_partitioned_roundtrip(self, tmp_path, query):
        vectors, table = make_world(n=80, dim=DIM, seed=11)
        index = ShardedAcornIndex.build(
            vectors, table, partitioner=HashPartitioner(4, seed=2),
            params=PARAMS, seed=11,
        )
        save_index(index, tmp_path / "idx.npz")
        loaded = load_index(tmp_path / "idx.npz")
        before = index.search(query, TruePredicate(), 6, ef_search=80)
        after = loaded.search(query, TruePredicate(), 6, ef_search=80)
        assert np.array_equal(before.ids, after.ids)
