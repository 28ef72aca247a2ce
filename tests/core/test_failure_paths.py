"""Failure-injection tests: malformed inputs and degenerate workloads."""

import numpy as np
import pytest

from repro.attributes import AttributeTable
from repro.core import (
    AcornIndex,
    AcornOneIndex,
    AcornParams,
    FlatAcornIndex,
)
from repro.hnsw import HnswIndex
from repro.persistence import load_index, save_index
from repro.predicates import Equals, RegexMatch
from repro.routing import RoutePlanner


class TestMalformedQueries:
    def test_missing_column_raises_cleanly(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        with pytest.raises(KeyError, match="no column"):
            acorn_index.search(vectors[0], Equals("nope", 1), 5)

    def test_wrong_column_kind_raises_cleanly(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        with pytest.raises(ValueError, match="string column"):
            acorn_index.search(vectors[0], RegexMatch("label", "x"), 5)

    def test_wrong_query_dim(self, acorn_index):
        with pytest.raises(ValueError, match="dim"):
            acorn_index.search(np.zeros(3), Equals("label", 1), 5)

    def test_router_empty_predicate_returns_empty(
        self, acorn_index, small_vectors
    ):
        vectors, _ = small_vectors
        searcher = RoutePlanner(acorn_index, policy="static")
        result = searcher.search(vectors[0], Equals("label", 777), 5)
        assert len(result) == 0
        # Empty predicate estimates s=0 < s_min, so routing prefilters.
        assert searcher.last_plan.route == "pre-filter"


class TestEntryPointValidation:
    """``entry_point`` is checked before any distance is computed.

    It used to reach ``DistanceComputer.distance_one``, whose
    ``base[id:id+1]`` slice was silently empty for an out-of-range id
    ("index 0 is out of bounds for axis 0 with size 0").
    """

    @pytest.fixture(scope="class")
    def indexes(self):
        gen = np.random.default_rng(4)
        vectors = gen.standard_normal((40, 6)).astype(np.float32)
        table = AttributeTable(45)  # spare rows: len(table) > len(index)
        table.add_int_column("label", gen.integers(0, 2, size=45))
        params = AcornParams(m=4, gamma=2, m_beta=6, ef_construction=12)
        return vectors, {
            AcornIndex: AcornIndex.build(vectors, table, params=params,
                                         seed=1),
            AcornOneIndex: AcornOneIndex.build(vectors, table, m=4,
                                               ef_construction=12, seed=1),
            FlatAcornIndex: FlatAcornIndex.build(vectors, table,
                                                 params=params, seed=1),
        }

    @pytest.mark.parametrize("cls",
                             [AcornIndex, AcornOneIndex, FlatAcornIndex])
    def test_out_of_range_entry_point(self, indexes, cls):
        vectors, by_class = indexes
        index = by_class[cls]
        from repro.vectors.distance import GLOBAL_TALLY

        before = GLOBAL_TALLY.total
        for bad in (-1, len(index), len(index) + 5):
            with pytest.raises(ValueError,
                               match=r"entry_point must be a node id in "
                                     rf"\[0, {len(index)}\), got {bad}"):
                index.search(vectors[0], Equals("label", 1), 3,
                             entry_point=bad)
        assert GLOBAL_TALLY.total == before
        assert len(index.search(vectors[0], Equals("label", 1), 3,
                                entry_point=len(index) - 1)) == 3


class TestDegenerateDatasets:
    def test_single_point_index(self):
        table = AttributeTable(1)
        table.add_int_column("label", [3])
        index = AcornIndex(4, table, params=AcornParams(m=4, gamma=2), seed=0)
        index.add(np.ones(4))
        result = index.search(np.ones(4), Equals("label", 3), 5)
        assert result.ids.tolist() == [0]

    def test_two_points_one_passing(self):
        table = AttributeTable(2)
        table.add_int_column("label", [1, 2])
        index = AcornIndex(4, table, params=AcornParams(m=4, gamma=2), seed=0)
        index.add(np.zeros(4))
        index.add(np.ones(4))
        result = index.search(np.zeros(4), Equals("label", 2), 5)
        assert result.ids.tolist() == [1]

    def test_all_identical_vectors(self):
        table = AttributeTable(20)
        table.add_int_column("label", [i % 2 for i in range(20)])
        index = AcornIndex(4, table, params=AcornParams(m=4, gamma=2), seed=0)
        for _ in range(20):
            index.add(np.ones(4))
        result = index.search(np.ones(4), Equals("label", 0), 5)
        # Duplicates prune aggressively (every candidate is 2-hop
        # reachable at distance 0), so fewer than k results is valid;
        # whatever returns must pass the predicate at distance 0.
        assert len(result) >= 1
        assert (result.distances == 0).all()
        assert all(int(i) % 2 == 0 for i in result.ids)


class TestRefusedInsert:
    """``add()`` past the table's last row changes nothing.

    It used to append the vector to the store before checking the
    table, so every refused (and retried) insert leaked a row:
    ``len(index)`` and ``nbytes()`` drifted away from the graph.
    """

    @pytest.mark.parametrize("cls", [AcornIndex, AcornOneIndex,
                                     FlatAcornIndex])
    def test_refused_add_leaves_the_index_untouched(self, cls):
        gen = np.random.default_rng(8)
        vectors = gen.standard_normal((30, 6)).astype(np.float32)
        table = AttributeTable(30)
        table.add_int_column("label", gen.integers(0, 2, size=30))
        if cls is AcornOneIndex:
            index = cls.build(vectors, table, m=4, ef_construction=12, seed=0)
        else:
            index = cls.build(
                vectors, table, seed=0,
                params=AcornParams(m=4, gamma=2, m_beta=6, ef_construction=12))

        def state():
            found = index.search(vectors[3], Equals("label", 1), 5)
            return (len(index), len(index.store), len(index.graph),
                    index.nbytes(), found.ids.tolist(),
                    found.distances.tobytes())

        before = state()
        assert before[:3] == (30, 30, 30)
        for _ in range(3):
            with pytest.raises(ValueError, match="node 30 has no attribute"):
                index.add(np.ones(6, dtype=np.float32))
        assert state() == before


class TestNonFiniteInsert:
    """A NaN / inf vector is refused before anything changes.

    It used to be accepted: one ``add(np.full(dim, nan))`` on a 300-node
    ACORN-γ index left ten ``_edge_dists`` lists unsorted (NaN breaks
    the ``bisect`` order ``_add_reverse_edge`` relies on) and nine
    inbound edges to a node no query can rank.
    """

    N, DIM = 300, 8

    def _build(self, family, n, vectors, table):
        if family == "hnsw":
            return HnswIndex.build(vectors[:n], m=6, ef_construction=24,
                                   seed=3)
        return AcornIndex.build(
            vectors[:n], table, seed=3,
            params=AcornParams(m=6, gamma=4, m_beta=8, ef_construction=24))

    @pytest.mark.parametrize("family", ["acorn", "hnsw"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_add_refused_and_index_unchanged(self, family, bad):
        gen = np.random.default_rng(24)
        vectors = gen.standard_normal((self.N + 1, self.DIM)).astype(
            np.float32)
        table = AttributeTable(self.N + 1)
        table.add_int_column("label", gen.integers(0, 3, size=self.N + 1))
        index = self._build(family, self.N, vectors, table)
        before = (index.graph.checksum(), len(index), len(index.store))
        poison = np.ones(self.DIM, dtype=np.float32)
        poison[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            index.add(poison)
        assert (index.graph.checksum(), len(index),
                len(index.store)) == before
        # The level stream did not advance either: the next real insert
        # lands where it would have on an index that never saw the row.
        index.add(vectors[self.N])
        whole = self._build(family, self.N + 1, vectors, table)
        assert index.graph.checksum() == whole.graph.checksum()

    @pytest.mark.parametrize("family", ["acorn", "hnsw"])
    def test_build_refuses(self, family):
        vectors = np.ones((12, self.DIM), dtype=np.float32)
        vectors[7, 3] = np.nan
        table = AttributeTable(12)
        table.add_int_column("label", [0] * 12)
        with pytest.raises(ValueError, match="non-finite"):
            self._build(family, 12, vectors, table)


class TestPersistenceErrors:
    def test_version_mismatch_rejected(self, tmp_path):
        table = AttributeTable(3)
        table.add_int_column("label", [1, 2, 3])
        index = AcornIndex(2, table, params=AcornParams(m=4, gamma=2), seed=0)
        for _ in range(3):
            index.add(np.zeros(2))
        path = tmp_path / "x.npz"
        save_index(index, path)
        # Corrupt the version marker.
        data = dict(np.load(path, allow_pickle=True))
        data["format_version"] = np.asarray([999])
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_index(path)
