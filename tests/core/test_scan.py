"""``AcornIndex.search``'s scan of a small passing set.

When at most ``max(ef_search, k) · M / 2`` entities pass, the walk would
visit all of them anyway, so the search scores the whole passing set
with one exact distance call instead.  The same holds below the paper's
§5.2 threshold, ``s_min · n_live``, and when the walk would reach every
live row, ``n_live ≤ max(ef_search, k) · Mβ`` (both γ > 1 only).  The
answer must be brute force's, ties broken on id; above the cutoff the
walk must run untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attributes import AttributeTable
from repro.baselines.prefilter import PreFilterSearcher
from repro.core import AcornIndex, AcornOneIndex, AcornParams
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


def _gamma_one_index(world, family):
    """ACORN-1, or ACORN-γ built with γ = 1 (M = Mβ = 8)."""
    vectors, table, _ = world
    if family == "acorn-1":
        return AcornOneIndex.build(vectors, table, m=8, ef_construction=24,
                                   seed=3)
    return AcornIndex.build(
        vectors, table, seed=3,
        params=AcornParams(m=8, gamma=1, m_beta=8, ef_construction=24))


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


class _Listed(CompiledPredicate):
    """A compiled predicate that records whether ``passing_ids`` was read."""

    listed = False

    @property
    def passing_ids(self):
        self.listed = True
        return super().passing_ids


class TestPassingIdsShortcut:
    """The scan ranks the compiled predicate's own ``passing_ids`` only
    when its mask is the scan's set: no tombstones, and the table holds
    exactly the stored rows."""

    @pytest.fixture(scope="class")
    def full(self, world):
        vectors, _, _ = world
        table = AttributeTable(N)
        table.add_int_column("label", np.zeros(N, dtype=np.int64))
        return AcornIndex.build(vectors, table, params=PARAMS, seed=3)

    def _listed(self, index, ids):
        rows = len(index.table)
        return _Listed(TruePredicate(), _mask(ids, rows), table=index.table)

    def test_taken_without_tombstones_on_a_full_table(self, world, full):
        vectors, _, queries = world
        ids = _ids(np.random.default_rng(11), 40)
        for query in queries:
            pred = self._listed(full, ids)
            got = full.search(query, pred, K, ef_search=EF)
            assert pred.listed
            assert got.ids.tolist() == _brute_force(vectors, query, ids, K)
            assert pred.cardinality == len(ids)

    def test_skipped_with_tombstones(self, world, full):
        vectors, _, queries = world
        ids = _ids(np.random.default_rng(12), 40)
        dead = ids[1::3]
        live = [i for i in ids if i not in dead]
        try:
            for node in dead:
                full.mark_deleted(node)
            for query in queries:
                pred = self._listed(full, ids)
                got = full.search(query, pred, K, ef_search=EF)
                assert not pred.listed
                assert got.ids.tolist() == _brute_force(vectors, query,
                                                        live, K)
                assert got.distance_computations == len(live)
                assert pred.cardinality == len(ids)
        finally:
            for node in dead:
                full.unmark_deleted(node)

    def test_skipped_with_spare_table_rows(self, world, index):
        vectors, _, queries = world
        ids = _ids(np.random.default_rng(13), 30, high=ROWS)
        stored = [i for i in ids if i < N]
        assert len(stored) < len(ids)
        for query in queries:
            pred = self._listed(index, ids)
            got = index.search(query, pred, K, ef_search=EF)
            assert not pred.listed
            assert got.ids.tolist() == _brute_force(vectors, query, stored, K)
            assert got.distance_computations == len(stored)


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



class TestSelectivityThreshold:
    """At ef 4 and k 2 the count cutoff is 16, so ``s_min · n_live``
    (60 rows at n = 240, γ = 4) is the bound that decides."""

    EF_T, K_T = 4, 2

    def _search(self, index, query, pred):
        return index.search(query, pred, self.K_T, ef_search=self.EF_T)

    def test_threshold_scans_and_one_more_walks(self, world, index):
        vectors, _, queries = world
        threshold = N // PARAMS.gamma
        assert max(self.EF_T, self.K_T) * PARAMS.m // 2 < threshold
        gen = np.random.default_rng(8)
        for query in queries:
            ids = _ids(gen, threshold)
            at = self._search(index, query, _pred(index, ids))
            assert at.hops == 0 and at.distance_computations == threshold
            assert at.ids.tolist() == _brute_force(vectors, query, ids,
                                                   self.K_T)
            above = _pred(index, _ids(gen, threshold + 1))
            got = self._search(index, query, above)
            assert got.hops > 0
            assert_results_identical(got, reference_search(
                index, query, above, self.K_T, ef_search=self.EF_T))

    def test_tombstones_lower_n_live(self, world, index):
        vectors, _, queries = world
        gen = np.random.default_rng(9)
        dead = _ids(gen, 20)
        pool = [i for i in range(N) if i not in set(dead)]
        n_live = N - len(dead)
        threshold = n_live // PARAMS.gamma
        try:
            for node in dead:
                index.mark_deleted(node)
            for query in queries[:3]:
                picks = gen.choice(pool, size=threshold + 1, replace=False)
                ids = sorted(picks.tolist())
                at = self._search(index, query, _pred(index, ids[:-1]))
                assert at.hops == 0 and at.distance_computations == threshold
                # Passing but dead rows do not count as live.
                padded = self._search(index, query,
                                      _pred(index, ids[:-1] + dead))
                assert padded.hops == 0
                assert_results_identical(padded, at)
                above = _pred(index, ids)
                got = self._search(index, query, above)
                assert got.hops > 0
                assert_results_identical(got, reference_search(
                    index, query, above, self.K_T, ef_search=self.EF_T))
        finally:
            for node in dead:
                index.unmark_deleted(node)

    @pytest.mark.parametrize("family", ["acorn-1", "gamma-1"])
    def test_gamma_one_walks_above_the_count_cutoff(self, world, family):
        """γ = 1 would make s_min = 1, a scan of every query: the
        threshold does not apply, only the count cutoff."""
        _, _, queries = world
        index = _gamma_one_index(world, family)
        cutoff = max(self.EF_T, self.K_T) * index.params.m // 2
        gen = np.random.default_rng(10)
        for query in queries[:3]:
            at = self._search(index, query, _pred(index, _ids(gen, cutoff)))
            assert at.hops == 0
            above = _pred(index, _ids(gen, cutoff + 1))
            got = self._search(index, query, above)
            assert got.hops > 0
            assert_results_identical(got, reference_search(
                index, query, above, self.K_T, ef_search=self.EF_T))


class TestReach:
    """At ef 19 the walk's reach is ``19 · Mβ = 228`` rows, just under
    n = 240; the passing sets here (100 rows) are above the count cutoff
    (76) and ``s_min · n_live`` (60), so only the reach term decides."""

    EF_R, C = 19, 100
    REACH = EF_R * PARAMS.m_beta

    def _search(self, index, query, pred, k=K, ef=EF_R):
        return index.search(query, pred, k, ef_search=ef)

    def _exact(self, vectors, index, query, ids, k=K):
        """Brute force's ids, and its distances through the index's own
        distance kernel (for byte comparison)."""
        want = _brute_force(vectors, query, ids, k)
        computer = index.store.computer()
        dists = computer.distances_to(computer.set_query(query),
                                      np.asarray(want, dtype=np.intp))
        return want, dists.astype(np.float32)

    def test_one_live_row_above_walks_at_reach_scans(self, world, index):
        vectors, _, queries = world
        assert self.REACH < N
        assert self.C > max(self.EF_R * PARAMS.m // 2, N // PARAMS.gamma)
        gen = np.random.default_rng(11)
        ids = _ids(gen, self.C)
        pred = _pred(index, ids)
        spare = [i for i in range(N) if i not in set(ids)]
        dead = gen.choice(spare, size=N - self.REACH, replace=False)
        try:
            # n_live = REACH + 1: the walk runs, as the reference walks.
            for node in dead[1:]:
                index.mark_deleted(int(node))
            for query in queries[:3]:
                got = self._search(index, query, pred)
                assert got.hops > 0
                assert_results_identical(got, reference_search(
                    index, query, pred, K, ef_search=self.EF_R))
            # n_live = REACH: the same passing set is ranked exactly.
            index.mark_deleted(int(dead[0]))
            for query in queries:
                got = self._search(index, query, pred)
                assert got.hops == 0
                assert got.distance_computations == self.C
                want, dists = self._exact(vectors, index, query, ids)
                assert got.ids.tolist() == want
                assert got.distances.tobytes() == dists.tobytes()
        finally:
            for node in dead:
                index.unmark_deleted(int(node))

    def test_k_above_ef_sets_the_reach(self, world, index):
        """``max(ef, k)``: at ef 16 k = 5 walks (reach 192 < 240), k = 20
        reaches all 240 rows and scans."""
        vectors, _, queries = world
        ids = _ids(np.random.default_rng(12), self.C)
        pred = _pred(index, ids)
        assert self._search(index, queries[0], pred, k=K, ef=EF).hops > 0
        k = N // PARAMS.m_beta
        got = self._search(index, queries[0], pred, k=k, ef=EF)
        assert got.hops == 0 and got.distance_computations == self.C
        want, dists = self._exact(vectors, index, queries[0], ids, k)
        assert got.ids.tolist() == want
        assert got.distances.tobytes() == dists.tobytes()

    @pytest.mark.parametrize("family", ["acorn-1", "gamma-1"])
    def test_gamma_one_still_walks(self, world, family):
        """γ = 1 has no reach term: at ef 30 ``ef · Mβ = 240`` covers
        every row, yet a set above the count cutoff (120) walks."""
        _, _, queries = world
        index = _gamma_one_index(world, family)
        ef = N // index.params.m_beta
        pred = _pred(index, _ids(np.random.default_rng(13), 150))
        assert 150 > ef * index.params.m // 2
        for query in queries[:3]:
            got = self._search(index, query, pred, ef=ef)
            assert got.hops > 0
            assert_results_identical(got, reference_search(
                index, query, pred, K, ef_search=ef))
