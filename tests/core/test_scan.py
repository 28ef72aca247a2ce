"""``AcornIndex.search``'s scan of a small passing set.

When at most ``max(ef_search, k) · M / 2`` entities pass, the walk would
visit all of them anyway, so the search scores the whole passing set
with one exact distance call instead.  The answer must be brute force's,
ties broken on id; above the cutoff the walk must run untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attributes import AttributeTable
from repro.baselines.prefilter import PreFilterSearcher
from repro.core import AcornIndex, AcornParams
from repro.predicates import TruePredicate
from repro.predicates.base import CompiledPredicate
from tests.conftest import assert_results_identical, reference_search

N, ROWS, DIM, K, EF = 240, 260, 6, 5, 16
PARAMS = AcornParams(m=8, gamma=4, m_beta=12, ef_construction=24)
CUTOFF = EF * PARAMS.m // 2


@pytest.fixture(scope="module")
def world():
    """Vectors on a coarse 1/2 grid (many exact distance ties) and a
    table with spare rows past the store."""
    gen = np.random.default_rng(31)
    vectors = (np.round(gen.standard_normal((N, DIM)) * 2) / 2).astype(
        np.float32)
    table = AttributeTable(ROWS)
    table.add_int_column("label", gen.integers(0, 4, size=ROWS))
    queries = (np.round(gen.standard_normal((6, DIM)) * 2) / 2).astype(
        np.float32)
    return vectors, table, queries


@pytest.fixture(scope="module")
def index(world):
    vectors, table, _ = world
    return AcornIndex.build(vectors, table, params=PARAMS, seed=3)


def _mask(ids, rows=ROWS):
    mask = np.zeros(rows, dtype=bool)
    mask[np.asarray(ids, dtype=np.intp)] = True
    return mask


def _pred(index, ids):
    return CompiledPredicate(TruePredicate(), _mask(ids), table=index.table)


def _brute_force(vectors, query, ids, k):
    """Exact top ``k`` of ``ids`` by (distance, id), in float64 Python."""
    d = ((vectors[ids].astype(np.float64) - query) ** 2).sum(axis=1)
    return [nid for _, nid in sorted(zip(d.tolist(), ids))[:k]]


def _ids(gen, count, high=N):
    return sorted(gen.choice(high, size=count, replace=False).tolist())


class TestScanAnswer:
    def test_equals_brute_force_ties_included(self, world, index):
        vectors, _, queries = world
        gen = np.random.default_rng(1)
        ties = 0
        for query in queries:
            for count in (1, K, 30, CUTOFF):
                ids = _ids(gen, count)
                got = index.search(query, _pred(index, ids), K, ef_search=EF)
                assert got.ids.tolist() == _brute_force(vectors, query, ids, K)
                assert got.hops == 0
                ties += len(set(got.distances.tolist())) < len(got)
        assert ties, "the grid data should produce distance ties"

    def test_matches_prefilter(self, world, index):
        """The scan and the pre-filter baseline share one exact ranking."""
        vectors, _, queries = world
        pre = PreFilterSearcher(vectors, AttributeTable(N))
        gen = np.random.default_rng(2)
        for query in queries:
            ids = _ids(gen, 40)
            mask = _mask(ids, rows=N)
            got = index.search(query, _pred(index, ids), K, ef_search=EF)
            want = pre.search(query, CompiledPredicate(
                TruePredicate(), mask, table=pre.table), K)
            assert_results_identical(got, want, counters=False)

    def test_tombstones_are_honoured(self, world, index):
        vectors, _, queries = world
        gen = np.random.default_rng(3)
        ids = _ids(gen, 50)
        dead = ids[::4]
        try:
            for node in dead:
                index.mark_deleted(node)
            live = [i for i in ids if i not in dead]
            for query in queries:
                got = index.search(query, _pred(index, ids), K, ef_search=EF)
                assert got.ids.tolist() == _brute_force(vectors, query,
                                                        live, K)
                assert not set(got.ids.tolist()) & set(dead)
                assert got.distance_computations == len(live)
        finally:
            for node in dead:
                index.unmark_deleted(node)

    def test_spare_table_rows_are_ignored(self, world, index):
        """Rows past the store may pass; they have no vector to score."""
        vectors, _, queries = world
        ids = list(range(N - 10, ROWS))
        got = index.search(queries[0], _pred(index, ids), K, ef_search=EF)
        stored = [i for i in ids if i < N]
        assert got.ids.tolist() == _brute_force(vectors, queries[0], stored,
                                                K)
        assert got.distance_computations == got.visited_nodes == len(stored)

    def test_empty_passing_set(self, world, index):
        _, _, queries = world
        got = index.search(queries[0], _pred(index, []), K, ef_search=EF)
        assert len(got) == 0
        assert (got.distance_computations, got.hops, got.visited_nodes) == (
            0, 0, 0)
        only_spare = _pred(index, range(N, ROWS))
        assert len(index.search(queries[0], only_spare, K, ef_search=EF)) == 0


class TestScanCounters:
    def test_counters_read_the_passing_count(self, world, index):
        _, _, queries = world
        gen = np.random.default_rng(4)
        for count in (1, 3, 17, CUTOFF):
            got = index.search(queries[1], _pred(index, _ids(gen, count)), K,
                               ef_search=EF)
            assert got.distance_computations == got.visited_nodes == count
            assert got.hops == 0
            assert len(got) == min(K, count)

    def test_cutoff_scans_and_one_more_walks(self, world, index):
        """``c = cutoff`` scans; ``c = cutoff + 1`` is the untouched walk,
        byte-identical to the reference driver's walk."""
        _, _, queries = world
        gen = np.random.default_rng(5)
        for query in queries:
            at = index.search(query, _pred(index, _ids(gen, CUTOFF)), K,
                              ef_search=EF)
            assert at.hops == 0 and at.distance_computations == CUTOFF
            above = _pred(index, _ids(gen, CUTOFF + 1))
            got = index.search(query, above, K, ef_search=EF)
            assert got.hops > 0
            assert_results_identical(
                got, reference_search(index, query, above, K, ef_search=EF))

    def test_cutoff_follows_ef_and_k(self, world, index):
        """The cutoff is ``max(ef_search, k) · M / 2``: raising k past
        ef_search raises it too."""
        _, _, queries = world
        ids = _ids(np.random.default_rng(6), CUTOFF + 8)
        pred = _pred(index, ids)
        assert index.search(queries[0], pred, K, ef_search=EF).hops > 0
        got = index.search(queries[0], pred, EF + 2, ef_search=EF)
        assert got.hops == 0 and got.visited_nodes == len(ids)

    def test_entry_point_always_walks(self, world, index):
        _, _, queries = world
        pred = _pred(index, _ids(np.random.default_rng(7), 20))
        for entry in (0, 17, 111):
            got = index.search(queries[2], pred, K, ef_search=EF,
                               entry_point=entry)
            assert got.hops > 0
            assert_results_identical(
                got, reference_search(index, queries[2], pred, K,
                                      ef_search=EF, entry_point=entry))


class TestQuantizedScan:
    @pytest.mark.parametrize("kind", ["sq8", "pq"])
    def test_scans_in_float32(self, world, kind):
        vectors, table, queries = world
        config = (kind if kind == "sq8"
                  else {"kind": "pq", "pq_subspaces": 2, "pq_centroids": 16})
        quant = AcornIndex.build(vectors, table, params=PARAMS, seed=3,
                                 quantization=config)
        plain = AcornIndex.build(vectors, table, params=PARAMS, seed=3)
        gen = np.random.default_rng(8)
        for query in queries:
            ids = _ids(gen, 40)
            got = quant.search(query, _pred(quant, ids), K, ef_search=EF)
            assert got.quantized_distances == 0
            assert got.rerank_distances == 0
            assert got.ids.tolist() == _brute_force(vectors, query, ids, K)
            assert_results_identical(
                got, plain.search(query, _pred(plain, ids), K, ef_search=EF))
