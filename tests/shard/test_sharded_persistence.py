"""Sharded save/load: one archive keeps shards, partitioner and table."""

import numpy as np
import pytest

from repro.core.params import AcornParams
from repro.persistence import (
    encode_index,
    image_layout,
    load_index,
    read_image,
    save_index,
)
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

    def test_partitioner_and_plan_preserved(self, sharded_index, tmp_path):
        save_index(sharded_index, tmp_path / "idx.npz")
        loaded = load_index(tmp_path / "idx.npz")
        assert loaded.partitioner.spec() == sharded_index.partitioner.spec()
        plan_before = sharded_index.plan(Between("year", 2002, 2004))
        plan_after = loaded.plan(Between("year", 2002, 2004))
        assert plan_after.decisions == plan_before.decisions
        assert plan_after.n_pruned >= 1

    def test_meta_holds_no_summaries(self, sharded_index, tmp_path):
        """Pruning reads the query's mask, so the archive keeps no
        per-shard summaries and no effort-scaling settings."""
        save_index(sharded_index, tmp_path / "idx.npz")
        meta, _ = read_image(
            np.fromfile(tmp_path / "idx.npz", dtype=np.uint8), "idx")
        assert not {"scale_ef", "min_ef", "summaries"} & set(meta)

    def test_older_archive_with_summaries_loads(self, sharded_index,
                                                tmp_path, query):
        """An archive written while the index still kept summaries
        carries three more meta keys; the decoder ignores them and the
        index answers byte-identically."""
        meta, arrays = encode_index(sharded_index)
        older = {**meta, "scale_ef": False, "min_ef": 16, "summaries": [
            {"n_rows": len(shard), "numeric": {}, "keywords": {}}
            for shard in sharded_index.shards]}
        size, pieces = image_layout(older, arrays)
        with open(tmp_path / "older.npz", "wb") as handle:
            for offset, piece in pieces:
                handle.seek(offset)
                handle.write(piece)
            handle.truncate(size)
        loaded = load_index(tmp_path / "older.npz")
        for predicate in (TruePredicate(), Between("year", 2002, 2008)):
            before = sharded_index.search(query, predicate, 8, ef_search=N)
            after = loaded.search(query, predicate, 8, ef_search=N)
            assert after.ids.tobytes() == before.ids.tobytes()
            assert after.distances.tobytes() == before.distances.tobytes()
            assert after.per_shard == before.per_shard

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
