"""Tests for tombstone compaction (rebuild)."""

import numpy as np
import pytest

from repro.attributes import AttributeTable
from repro.core import AcornIndex, AcornOneIndex, AcornParams
from repro.core.maintenance import rebuild
from repro.predicates import Equals, TruePredicate


@pytest.fixture
def deleted_world():
    gen = np.random.default_rng(71)
    n = 250
    vectors = gen.standard_normal((n, 8)).astype(np.float32)
    table = AttributeTable(n)
    table.add_int_column("label", gen.integers(0, 3, size=n))
    table.add_string_column("name", [f"item-{i}" for i in range(n)])
    table.add_keywords_column(
        "tags", [["even" if i % 2 == 0 else "odd"] for i in range(n)]
    )
    index = AcornIndex.build(
        vectors, table,
        params=AcornParams(m=6, gamma=4, m_beta=8, ef_construction=24),
        seed=0,
    )
    victims = [5, 17, 100, 249]
    for victim in victims:
        index.mark_deleted(victim)
    return index, vectors, victims


class TestRebuild:
    def test_size_and_tombstones(self, deleted_world):
        index, vectors, victims = deleted_world
        new_index, id_map = rebuild(index, seed=1)
        assert len(new_index) == len(vectors) - len(victims)
        assert new_index.num_deleted == 0

    def test_id_map_semantics(self, deleted_world):
        index, vectors, victims = deleted_world
        new_index, id_map = rebuild(index, seed=1)
        for victim in victims:
            assert id_map[victim] == -1
        survivors = [i for i in range(len(vectors)) if i not in victims]
        mapped = id_map[survivors]
        assert (mapped >= 0).all()
        assert sorted(mapped.tolist()) == list(range(len(survivors)))

    def test_vectors_and_attributes_follow(self, deleted_world):
        index, vectors, victims = deleted_world
        new_index, id_map = rebuild(index, seed=1)
        old_id = 42
        new_id = int(id_map[old_id])
        np.testing.assert_array_equal(
            new_index.store.vectors[new_id], vectors[old_id]
        )
        assert new_index.table.row(new_id)["name"] == f"item-{old_id}"
        assert new_index.table.row(new_id)["tags"] == ["even"]

    def test_search_equivalent_after_rebuild(self, deleted_world):
        index, vectors, victims = deleted_world
        new_index, id_map = rebuild(index, seed=1)
        query = vectors[42]
        old = index.search(query, TruePredicate(), 5, ef_search=48)
        new = new_index.search(query, TruePredicate(), 5, ef_search=48)
        old_translated = [int(id_map[i]) for i in old.ids]
        # The top result (the exact point) must agree; deeper ranks may
        # shuffle between independently built graphs.
        assert new.ids[0] == old_translated[0]

    def test_predicates_work_on_new_index(self, deleted_world):
        index, vectors, _ = deleted_world
        new_index, _ = rebuild(index, seed=1)
        predicate = Equals("label", 1)
        compiled = predicate.compile(new_index.table)
        result = new_index.search(vectors[0], predicate, 5, ef_search=32)
        assert compiled.passes_many(result.ids).all()

    def test_rebuild_acorn_one(self):
        gen = np.random.default_rng(3)
        n = 120
        vectors = gen.standard_normal((n, 6)).astype(np.float32)
        table = AttributeTable(n)
        table.add_int_column("label", gen.integers(0, 2, size=n))
        index = AcornOneIndex.build(vectors, table, m=8, ef_construction=24,
                                    seed=0)
        index.mark_deleted(0)
        new_index, id_map = rebuild(index, seed=1)
        assert isinstance(new_index, AcornOneIndex)
        assert len(new_index) == n - 1
        assert id_map[0] == -1

    def test_rebuild_acorn_one_equals_direct_build(self):
        """An ACORN-1 rebuild is the graph a direct build of the live
        subset produces, edge for edge."""
        gen = np.random.default_rng(3)
        n = 160
        vectors = gen.standard_normal((n, 6)).astype(np.float32)
        table = AttributeTable(n)
        table.add_int_column("label", gen.integers(0, 2, size=n))
        index = AcornOneIndex.build(vectors, table, m=8, ef_construction=24,
                                    seed=0)
        for victim in (0, 9, 77):
            index.mark_deleted(victim)
        new_index, id_map = rebuild(index, seed=1)
        keep = np.flatnonzero(id_map >= 0)
        direct = AcornOneIndex.build(
            vectors[keep], new_index.table, m=8, ef_construction=24, seed=1,
        )
        assert new_index.graph.checksum() == direct.graph.checksum()
        new_index.graph.validate()

    def test_rebuild_without_deletions_is_copy(self, deleted_world):
        index, vectors, victims = deleted_world
        for victim in victims:
            index.unmark_deleted(victim)
        new_index, id_map = rebuild(index, seed=1)
        assert len(new_index) == len(vectors)
        np.testing.assert_array_equal(id_map, np.arange(len(vectors)))


class TestRebuildQuantization:
    """Rebuilding a quantized index must preserve the quantized path."""

    def _quantized_world(self):
        gen = np.random.default_rng(97)
        n = 200
        vectors = gen.standard_normal((n, 10)).astype(np.float32)
        table = AttributeTable(n)
        table.add_int_column("label", gen.integers(0, 3, size=n))
        params = AcornParams(m=6, gamma=4, m_beta=8, ef_construction=24)
        index = AcornIndex.build(vectors, table, params=params, seed=0,
                                 quantization="sq8")
        for victim in (3, 50, 50 + 1, 199):
            index.mark_deleted(victim)
        return index, vectors, table, params, gen

    def test_config_survives_rebuild(self):
        index, *_ = self._quantized_world()
        new_index, _ = rebuild(index, seed=1)
        assert new_index.quantization is not None
        assert new_index.quantization.to_json() == index.quantization.to_json()

    def test_quantized_search_equals_fresh_build(self):
        """rebuild() of a quantized index answers a quantized batch
        identically to an index freshly built (same seed) over the live
        subset with quantization enabled up front — the codec retrain is
        not allowed to drift from the build-time path."""
        from repro.core.maintenance import live_subset

        index, vectors, table, params, gen = self._quantized_world()
        new_index, id_map = rebuild(index, seed=1)

        _, live_vectors, live_table = live_subset(index)
        fresh = AcornIndex.build(live_vectors, live_table, params=params,
                                 seed=1, quantization="sq8")

        queries = vectors[gen.choice(len(vectors), size=8, replace=False)]
        predicates = [Equals("label", int(i % 3)) for i in range(8)]
        # ef 16 keeps the scan cutoff (16·M/2 = 48) below each label's
        # ≈ 65 passing rows, so the searches walk the codes.
        got = new_index.search_batch(queries, predicates, 5, ef_search=16)
        want = fresh.search_batch(queries, predicates, 5, ef_search=16)
        for a, b in zip(got, want):
            assert a.quantized_distances == b.quantized_distances > 0
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_allclose(a.distances, b.distances)

    def test_unquantized_rebuild_stays_unquantized(self, deleted_world):
        index, _, _ = deleted_world
        new_index, _ = rebuild(index, seed=1)
        assert new_index.quantization is None


class TestRebuildPersistenceRoundtrip:
    """The (new_index, id_map) contract must survive save/load."""

    def test_id_map_roundtrips_through_persistence(self, deleted_world,
                                                   tmp_path):
        from repro.persistence import load_index, save_index

        index, vectors, victims = deleted_world
        new_index, id_map = rebuild(index, seed=1)

        save_index(new_index, tmp_path / "rebuilt.npz")
        np.save(tmp_path / "id_map.npy", id_map)

        restored = load_index(tmp_path / "rebuilt.npz")
        restored_map = np.load(tmp_path / "id_map.npy")
        np.testing.assert_array_equal(restored_map, id_map)

        # Translating an old id through the persisted map lands on the
        # same entity in the restored index.
        for old_id in (0, 42, 128):
            new_id = int(restored_map[old_id])
            assert new_id >= 0
            np.testing.assert_array_equal(
                restored.store.vectors[new_id], vectors[old_id]
            )
            assert (restored.table.row(new_id)["name"]
                    == f"item-{old_id}")
        for victim in victims:
            assert restored_map[victim] == -1

        # And the restored index searches exactly like the one we saved.
        for q in vectors[:5]:
            a = new_index.search(q, TruePredicate(), 5, ef_search=48)
            b = restored.search(q, TruePredicate(), 5, ef_search=48)
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_allclose(a.distances, b.distances)

    def test_quantized_rebuild_roundtrips(self, tmp_path):
        from repro.persistence import load_index, save_index

        gen = np.random.default_rng(101)
        n = 150
        vectors = gen.standard_normal((n, 8)).astype(np.float32)
        table = AttributeTable(n)
        table.add_int_column("label", gen.integers(0, 3, size=n))
        index = AcornIndex.build(
            vectors, table,
            params=AcornParams(m=6, gamma=4, m_beta=8, ef_construction=24),
            seed=0, quantization="sq8",
        )
        index.mark_deleted(7)
        new_index, _ = rebuild(index, seed=1)
        save_index(new_index, tmp_path / "q.npz")
        restored = load_index(tmp_path / "q.npz")
        assert restored.quantization is not None
        queries = vectors[:4]
        predicates = [Equals("label", 0)] * 4
        a = new_index.search_batch(queries, predicates, 5)
        b = restored.search_batch(queries, predicates, 5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.ids, y.ids)
