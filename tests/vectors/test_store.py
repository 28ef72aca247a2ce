"""Unit tests for the vector store."""

import numpy as np
import pytest

from repro.vectors.store import VectorStore


class TestConstruction:
    def test_rejects_non_positive_dim(self):
        with pytest.raises(ValueError, match="dim"):
            VectorStore(0)

    def test_from_array(self):
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        store = VectorStore.from_array(data)
        assert len(store) == 3
        np.testing.assert_array_equal(store.vectors, data)

    def test_from_array_copies(self):
        data = np.ones((2, 3), dtype=np.float32)
        store = VectorStore.from_array(data)
        data[0, 0] = 99.0
        assert store.get(0)[0] == 1.0


class TestAdd:
    def test_returns_sequential_ids(self):
        store = VectorStore(4)
        assert store.add(np.zeros(4)) == 0
        assert store.add(np.ones(4)) == 1

    def test_growth_beyond_capacity(self):
        store = VectorStore(2, capacity=1)
        for i in range(20):
            store.add(np.full(2, i, dtype=np.float32))
        assert len(store) == 20
        assert store.get(19)[0] == 19.0

    def test_rejects_wrong_dim(self):
        store = VectorStore(4)
        with pytest.raises(ValueError, match="dim"):
            store.add(np.zeros(5))

    def test_get_out_of_range(self):
        store = VectorStore(4)
        store.add(np.zeros(4))
        with pytest.raises(IndexError):
            store.get(1)

    def test_vectors_view_read_only(self):
        store = VectorStore.from_array(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            store.vectors[0, 0] = 5.0


class TestComputer:
    def test_snapshot_excludes_later_adds(self):
        store = VectorStore(2)
        store.add(np.zeros(2))
        computer = store.computer()
        store.add(np.ones(2))
        assert len(computer) == 1

    def test_metric_propagates(self):
        store = VectorStore(2, metric="cosine")
        store.add(np.ones(2))
        assert store.computer().metric.value == "cosine"


class TestNbytes:
    def test_matches_payload(self):
        store = VectorStore.from_array(np.zeros((10, 8), dtype=np.float32))
        assert store.nbytes() == 10 * 8 * 4


class TestNormCache:
    def test_none_for_non_cosine(self):
        store = VectorStore.from_array(np.ones((4, 2), dtype=np.float32))
        assert store.base_norms() is None

    def test_incremental_norms_match_full_recompute(self):
        gen = np.random.default_rng(13)
        store = VectorStore(4, metric="cosine")
        for chunk in np.split(gen.standard_normal((30, 4)).astype(np.float32), 3):
            for vec in chunk:
                store.add(vec)
            norms = store.base_norms()
            want = np.linalg.norm(store.vectors, axis=1)
            np.testing.assert_array_equal(norms, want)

    def test_computer_snapshot_keeps_old_norms(self):
        gen = np.random.default_rng(14)
        store = VectorStore(4, metric="cosine")
        store.add(gen.standard_normal(4).astype(np.float32))
        computer = store.computer()
        store.add(gen.standard_normal(4).astype(np.float32))
        store.base_norms()
        # The earlier computer still sees exactly one row and one norm.
        assert len(computer) == 1
        assert computer._base_norms.shape[0] == 1


class TestAddMany:
    """Block loads through ``from_array`` (then ``add``).

    ``VectorStore.add_many`` went with the bulk builder (PR 24); the
    class keeps its name so these test ids stay stable.
    """

    def test_block_append_matches_scalar_adds(self):
        gen = np.random.default_rng(21)
        vectors = gen.standard_normal((17, 4)).astype(np.float32)
        block = VectorStore.from_array(vectors)
        scalar = VectorStore(4)
        ids = [scalar.add(vector) for vector in vectors]
        assert ids == list(range(17))
        assert len(block) == 17
        np.testing.assert_array_equal(block.vectors, scalar.vectors)

    def test_empty_input(self):
        store = VectorStore.from_array(np.empty((0, 4)))
        assert len(store) == 0
        assert store.dim == 4
        assert store.add(np.zeros(4)) == 0

    def test_single_1d_vector(self):
        store = VectorStore.from_array(np.array([1.0, 2.0, 3.0]))
        assert len(store) == 1
        np.testing.assert_array_equal(store.get(0), [1.0, 2.0, 3.0])

    def test_growth_beyond_capacity(self):
        # from_array sizes the buffer exactly, so the very next add grows.
        gen = np.random.default_rng(22)
        vectors = gen.standard_normal((100, 2)).astype(np.float32)
        store = VectorStore.from_array(vectors[:1])
        ids = [store.add(vector) for vector in vectors[1:]]
        assert ids == list(range(1, 100))
        np.testing.assert_array_equal(store.vectors, vectors)

    def test_rejects_wrong_dim(self):
        store = VectorStore.from_array(np.zeros((3, 5), dtype=np.float32))
        with pytest.raises(ValueError, match="dim"):
            store.add(np.zeros(4, dtype=np.float32))
        assert len(store) == 3

    def test_cosine_norms_cover_block(self):
        gen = np.random.default_rng(23)
        vectors = gen.standard_normal((9, 4)).astype(np.float32)
        store = VectorStore.from_array(vectors, metric="cosine")
        np.testing.assert_array_equal(
            store.base_norms(), np.linalg.norm(vectors, axis=1)
        )


class TestNonFinite:
    """NaN / inf never enter a store: NaN breaks the distance order the
    graph's edge lists are kept in (ISSUE 24)."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_add_rejects_and_leaves_store_unchanged(self, bad):
        store = VectorStore(4)
        store.add(np.ones(4, dtype=np.float32))
        before = store.vectors.copy()
        vector = np.ones(4, dtype=np.float32)
        vector[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            store.add(vector)
        assert len(store) == 1
        np.testing.assert_array_equal(store.vectors, before)
        assert store.add(np.zeros(4, dtype=np.float32)) == 1

    def test_from_array_rejects(self):
        data = np.ones((3, 4), dtype=np.float32)
        data[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            VectorStore.from_array(data)
