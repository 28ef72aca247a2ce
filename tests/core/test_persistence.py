"""Round-trip tests for index persistence."""

import numpy as np
import pytest

from repro.attributes import AttributeTable
from repro.core import AcornIndex, AcornOneIndex, AcornParams
from repro.hnsw import HnswIndex
from repro.persistence import load_index, save_index
from repro.predicates import ContainsAny, Equals


@pytest.fixture
def world():
    gen = np.random.default_rng(31)
    n, dim = 200, 8
    vectors = gen.standard_normal((n, dim)).astype(np.float32)
    table = AttributeTable(n)
    table.add_int_column("label", gen.integers(0, 3, size=n))
    table.add_float_column("price", gen.uniform(1, 10, size=n))
    table.add_string_column("caption", [f"item {i} of kind" for i in range(n)])
    table.add_keywords_column(
        "tags", [["a", "b"] if i % 2 else ["c"] for i in range(n)]
    )
    return vectors, table


class TestHnswRoundtrip:
    def test_search_identical(self, world, tmp_path):
        vectors, _ = world
        index = HnswIndex.build(vectors, m=6, ef_construction=24, seed=0)
        path = tmp_path / "hnsw.npz"
        save_index(index, path)
        restored = load_index(path)
        for q in vectors[:10]:
            a = index.search(q, 5, ef_search=32)
            b = restored.search(q, 5, ef_search=32)
            np.testing.assert_array_equal(a.ids, b.ids)

    def test_structure_preserved(self, world, tmp_path):
        vectors, _ = world
        index = HnswIndex.build(vectors, m=6, ef_construction=24, seed=0)
        path = tmp_path / "hnsw.npz"
        save_index(index, path)
        restored = load_index(path)
        assert restored.graph.entry_point == index.graph.entry_point
        assert restored.graph.max_level == index.graph.max_level
        assert restored.m == index.m
        restored.graph.validate()


class TestAcornRoundtrip:
    @pytest.fixture
    def index(self, world):
        vectors, table = world
        params = AcornParams(m=6, gamma=4, m_beta=8, ef_construction=24)
        return AcornIndex.build(vectors, table, params=params, seed=0)

    def test_search_identical(self, world, index, tmp_path):
        vectors, table = world
        path = tmp_path / "acorn.npz"
        save_index(index, path)
        restored = load_index(path)
        for q in vectors[:10]:
            for predicate in (Equals("label", 1), ContainsAny("tags", ["c"])):
                a = index.search(q, predicate, 5, ef_search=32)
                b = restored.search(q, predicate, 5, ef_search=32)
                np.testing.assert_array_equal(a.ids, b.ids)

    def test_params_preserved(self, index, tmp_path):
        path = tmp_path / "acorn.npz"
        save_index(index, path)
        restored = load_index(path)
        assert restored.params == index.params

    def test_table_preserved(self, world, index, tmp_path):
        _, table = world
        path = tmp_path / "acorn.npz"
        save_index(index, path)
        restored = load_index(path)
        assert restored.table.column_names == table.column_names
        for i in (0, 7, 199):
            assert restored.table.row(i) == table.row(i)

    def test_incremental_insert_after_load(self, world, index, tmp_path):
        """Edge distances survive, so adds can resume post-load."""
        vectors, table = world
        path = tmp_path / "acorn.npz"
        save_index(index, path)
        restored = load_index(path)
        # Grow the table and insert a new vector.
        bigger = AttributeTable(len(table) + 1)
        bigger.add_int_column(
            "label", np.append(np.asarray(table.column("label")), 1)
        )
        restored.table = bigger
        new_id = restored.add(np.zeros(8, dtype=np.float32))
        assert new_id == len(vectors)
        restored.graph.validate()

    @pytest.mark.parametrize("kind", ["acorn", "acorn1", "hnsw"])
    def test_adds_after_load_replay_the_unsaved_index(self, world, tmp_path,
                                                      kind):
        """The level stream survives the round trip: 20 adds after a load
        build the graph 20 adds on the never-saved index build."""
        vectors, table = world
        head, tail = vectors[:-20], vectors[-20:]
        if kind == "acorn":
            index = AcornIndex.build(
                head, table, seed=5,
                params=AcornParams(m=6, gamma=4, m_beta=8, ef_construction=24),
            )
        elif kind == "acorn1":
            index = AcornOneIndex.build(head, table, m=8, ef_construction=24,
                                        seed=5)
        else:
            index = HnswIndex.build(head, m=6, ef_construction=24, seed=5)
        save_index(index, tmp_path / "index.npz")
        restored = load_index(tmp_path / "index.npz")
        for vector in tail:
            index.add(vector)
            restored.add(vector)
        assert restored.graph.checksum() == index.graph.checksum()

    def test_archive_without_level_stream_still_loads(self, world, index,
                                                      tmp_path):
        """Archives written before the stream was saved load as before."""
        path = tmp_path / "acorn.npz"
        save_index(index, path)
        with np.load(path, allow_pickle=True) as archive:
            payload = {k: archive[k] for k in archive.files
                       if k != "level_rng"}
        np.savez_compressed(path, **payload)
        restored = load_index(path)
        q = world[0][3]
        np.testing.assert_array_equal(
            restored.search(q, Equals("label", 2), 5, ef_search=32).ids,
            index.search(q, Equals("label", 2), 5, ef_search=32).ids,
        )

    def test_acorn_one_kind_restored(self, world, tmp_path):
        vectors, table = world
        index = AcornOneIndex.build(vectors, table, m=8, ef_construction=24,
                                    seed=0)
        path = tmp_path / "acorn1.npz"
        save_index(index, path)
        restored = load_index(path)
        assert isinstance(restored, AcornOneIndex)
        q = vectors[3]
        a = index.search(q, Equals("label", 2), 5, ef_search=32)
        b = restored.search(q, Equals("label", 2), 5, ef_search=32)
        np.testing.assert_array_equal(a.ids, b.ids)


class TestErrors:
    def test_unsupported_type(self, tmp_path):
        with pytest.raises(TypeError, match="serialize"):
            save_index(object(), tmp_path / "x.npz")


class TestFlatAndTombstoneRoundtrip:
    def test_flat_kind_restored(self, world, tmp_path):
        from repro.core.flat import FlatAcornIndex

        vectors, table = world
        params = AcornParams(m=6, gamma=4, m_beta=8, ef_construction=24)
        index = FlatAcornIndex.build(vectors, table, params=params, seed=0)
        path = tmp_path / "flat.npz"
        save_index(index, path)
        restored = load_index(path)
        assert isinstance(restored, FlatAcornIndex)
        assert restored.graph.max_level == 0
        assert restored.graph.entry_point == index.graph.entry_point
        q = vectors[5]
        a = index.search(q, Equals("label", 1), 5, ef_search=32)
        b = restored.search(q, Equals("label", 1), 5, ef_search=32)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_tombstones_survive_roundtrip(self, world, tmp_path):
        vectors, table = world
        params = AcornParams(m=6, gamma=4, m_beta=8, ef_construction=24)
        index = AcornIndex.build(vectors, table, params=params, seed=0)
        index.mark_deleted(3)
        index.mark_deleted(17)
        path = tmp_path / "with-deletes.npz"
        save_index(index, path)
        restored = load_index(path)
        assert restored.num_deleted == 2
        assert restored.is_deleted(3) and restored.is_deleted(17)
        from repro.predicates import TruePredicate

        result = restored.search(vectors[3], TruePredicate(), 5, ef_search=32)
        assert 3 not in result.ids


class TestQuantizedRoundtrip:
    """Quantized codes persist alongside the floats and are verified."""

    @pytest.fixture
    def index(self, world):
        vectors, table = world
        params = AcornParams(m=6, gamma=4, m_beta=8, ef_construction=24)
        return AcornIndex.build(vectors, table, params=params, seed=0,
                                quantization="sq8")

    def test_sq8_roundtrip_search_identical(self, world, index, tmp_path):
        vectors, _ = world
        path = tmp_path / "quant-sq8.npz"
        save_index(index, path)
        restored = load_index(path)
        assert restored.quantization == index.quantization
        np.testing.assert_array_equal(
            restored._quant_store().codes, index._quant_store().codes
        )
        for q in vectors[:10]:
            a = index.search(q, Equals("label", 1), 5, ef_search=32)
            b = restored.search(q, Equals("label", 1), 5, ef_search=32)
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.distances, b.distances)
            assert a.quantized_distances == b.quantized_distances

    def test_pq_roundtrip_search_identical(self, world, tmp_path):
        vectors, table = world
        params = AcornParams(m=6, gamma=4, m_beta=8, ef_construction=24)
        index = AcornIndex.build(
            vectors, table, params=params, seed=0,
            quantization={"kind": "pq", "pq_subspaces": 4,
                          "pq_centroids": 32},
        )
        path = tmp_path / "quant-pq.npz"
        save_index(index, path)
        restored = load_index(path)
        assert restored.quantization.kind == "pq"
        for q in vectors[:10]:
            a = index.search(q, Equals("label", 1), 5, ef_search=32)
            b = restored.search(q, Equals("label", 1), 5, ef_search=32)
            np.testing.assert_array_equal(a.ids, b.ids)

    def test_hnsw_quantized_roundtrip(self, world, tmp_path):
        vectors, _ = world
        index = HnswIndex.build(vectors, m=6, ef_construction=24, seed=0,
                                quantization="sq8")
        path = tmp_path / "hnsw-quant.npz"
        save_index(index, path)
        restored = load_index(path)
        for q in vectors[:10]:
            np.testing.assert_array_equal(
                index.search(q, 5, ef_search=32).ids,
                restored.search(q, 5, ef_search=32).ids,
            )

    def test_unquantized_archive_loads_unquantized(self, world, tmp_path):
        vectors, table = world
        params = AcornParams(m=6, gamma=4, m_beta=8, ef_construction=24)
        index = AcornIndex.build(vectors, table, params=params, seed=0)
        path = tmp_path / "plain.npz"
        save_index(index, path)
        restored = load_index(path)
        assert restored.quantization is None
        assert restored._quant_store() is None

    def _resave(self, path, mutate):
        """Round-trip the npz payload through ``mutate``."""
        with np.load(path, allow_pickle=True) as archive:
            payload = {name: archive[name] for name in archive.files}
        mutate(payload)
        np.savez_compressed(path, **payload)

    def test_corrupt_codes_named_in_error(self, index, tmp_path):
        from repro.persistence import QuantLoadError

        path = tmp_path / "corrupt.npz"
        save_index(index, path)

        def flip(payload):
            codes = payload["quant_codes"].copy()
            codes[0, 0] ^= 0xFF
            payload["quant_codes"] = codes

        self._resave(path, flip)
        with pytest.raises(QuantLoadError, match="quant_codes"):
            load_index(path)

    def test_missing_artifact_named_in_error(self, index, tmp_path):
        from repro.persistence import QuantLoadError

        path = tmp_path / "missing.npz"
        save_index(index, path)
        self._resave(path, lambda p: p.pop("quant_sq_scale"))
        with pytest.raises(QuantLoadError, match="quant_sq_scale"):
            load_index(path)
