"""Unit tests for the vector store."""

import numpy as np
import pytest

from repro.vectors.distance import DistanceComputer
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

    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    def test_same_distances_and_counts_as_the_checked_constructor(
        self, metric
    ):
        """The store hands its computer a base it already holds checked;
        the result must be the public constructor's, byte for byte."""
        gen = np.random.default_rng(11)
        store = VectorStore(6, metric=metric, capacity=4)
        for row in gen.standard_normal((37, 6)).astype(np.float32):
            store.add(row)
        got = store.computer()
        want = DistanceComputer(store.vectors, metric)
        query = got.set_query(gen.standard_normal(6))
        ids = gen.integers(0, 37, size=20)
        assert (got.distances_to(query, ids).tobytes()
                == want.distances_to(query, ids).tobytes())
        assert (got.distances_to_all(query).tobytes()
                == want.distances_to_all(query).tobytes())
        assert got.distance_one(query, 5) == want.distance_one(query, 5)
        assert got.count == want.count == 20 + 37 + 1
        for computer in (got, want):
            computer.defer_counts()
            computer.distances_to(query, ids)
        assert got.flush_counts() == want.flush_counts() == 20
        assert got.count == want.count == 2 * 20 + 37 + 1
        assert (got.dim, len(got), got.metric) == (
            want.dim, len(want), want.metric)

    @pytest.mark.parametrize("query", [
        np.array([0.0, np.nan, 1.0, 0.0]),
        np.array([np.inf, 0.0, 0.0, 0.0]),
        np.array([-np.inf, np.inf, 0.0, 0.0]),
        np.zeros(3),
        np.zeros((2, 4)),
        np.zeros((1, 1, 4)),
    ], ids=["nan", "inf", "both-infs", "short", "two-rows", "3-d"])
    def test_store_computer_still_refuses_bad_queries(self, query):
        store = VectorStore.from_array(np.ones((5, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="non-finite|shape"):
            store.computer().set_query(query)

    def test_huge_finite_query_is_accepted(self):
        """A query whose squared norm overflows float32 is finite, so
        it binds."""
        store = VectorStore.from_array(np.ones((5, 4), dtype=np.float32))
        query = np.full(4, 3e38, dtype=np.float32)
        with np.errstate(over="ignore"):
            bound = store.computer().set_query(query)
        assert bound.tobytes() == query.tobytes()


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
