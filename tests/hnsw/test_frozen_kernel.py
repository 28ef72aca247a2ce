"""``search_frozen_level``: the frozen-search kernel's own contract.

Three promises.  (1) Byte identity: over a level's candidate rows the
kernel pops, pushes and counts exactly like ``search_layer`` over the
matching per-node lookup — checked at the kernel (random graphs, both
lookups, every metric, the ``ef`` edge cases, tombstones, memo on and
off) and at every index family through
the reference drivers in ``tests/conftest.py``.  (2) The row memo holds
exactly the nodes walks expanded, and concurrent fills equal a
sequential run.  (3) The per-thread eligibility buffer cannot leak state
between levels, queries, masks or threads.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes import AttributeTable
from repro.core import AcornIndex, AcornOneIndex, AcornParams, FlatAcornIndex
from repro.core.search import (
    FrozenLevel,
    assert_frozen,
    compressed_neighbors,
    filtered_neighbors,
)
from repro.engine import QueryBatch, SearchEngine
from repro.hnsw import HnswIndex
from repro.hnsw.scratch import TraversalScratch, thread_scratch
from repro.hnsw.traversal import (
    TraversalStats,
    search_frozen_level,
    search_layer,
)
from repro.predicates import Equals, TruePredicate
from repro.predicates.base import CompiledPredicate
from repro.vectors.distance import METRICS, DistanceComputer
from tests.conftest import (
    assert_results_identical,
    on_threads,
    reference_hnsw_search,
    reference_search,
)

# Index-level walks run at this ef so that the scan cutoff,
# ef·M/2 ≤ 32 on the ``families`` indexes, stays below every label's
# passing count (≥ 36 with every third node tombstoned): they test the
# walk, not ``AcornIndex.search``'s scan of a small passing set.
WALK_EF = 8


def assert_kernels_agree(vectors, metric, level, neighbor_fn, mask, seed_ids,
                         ef):
    """Run one level through both kernels and compare everything."""
    outcomes = []
    for frozen in (False, True):
        computer = DistanceComputer(vectors, metric)
        query = computer.set_query(vectors[0] * 0.5 + 0.1)
        seeds = [(computer.distance_one(query, s), s) for s in seed_ids]
        stats, scratch = TraversalStats(), TraversalScratch()
        if frozen:
            found = search_frozen_level(
                computer, query, seeds, ef, level, mask, scratch,
                stats=stats)
            assert scratch.bound_mask is mask
            assert np.array_equal(scratch.eligible, mask)
        else:
            scratch.begin(len(vectors))
            for node in seed_ids:
                scratch.mark(node)
            found = search_layer(computer, query, seeds, ef, neighbor_fn,
                                 scratch, stats=stats)
        outcomes.append((
            [node for _, node in found],
            np.asarray([dist for dist, _ in found]).tobytes(),
            computer.count, stats.hops, stats.visited,
        ))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.fixture(scope="module")
def level0(acorn_index):
    return acorn_index.freeze()[0]


@pytest.fixture(scope="module")
def csr_kinds(acorn_index, level0):
    """{kind: (private FrozenLevel, mask -> search_layer lookup)}.

    Each kind's memo is its own and shared across the parametrized
    cases, so early cases fill rows that later ones read back.
    """
    m_beta = acorn_index.params.m_beta
    raw = FrozenLevel(level0.indptr, level0.indices, level0.node_ids)
    expansion = FrozenLevel(level0.indptr, level0.indices, level0.node_ids,
                            m_beta)
    return {
        "raw": (raw,
                lambda mask: lambda c: filtered_neighbors(raw, c, mask)),
        "expansion": (expansion,
                      lambda mask: lambda c: compressed_neighbors(
                          expansion, c, mask, m_beta)),
    }


def _masks(n, tombstones):
    gen = np.random.default_rng(21)
    masks = [np.ones(n, dtype=bool), gen.random(n) < 0.15,
             gen.random(n) < 0.5]
    if tombstones:
        alive = gen.random(n) >= 0.3
        masks = [mask & alive for mask in masks]
    return masks


class TestKernelIdentity:
    @pytest.mark.parametrize("tombstones", [False, True])
    @pytest.mark.parametrize("ef,n_seeds", [(1, 1), (3, 6), (5000, 2)],
                             ids=["ef1", "ef<seeds", "ef>reachable"])
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("kind", ["raw", "expansion"])
    def test_matches_search_layer(self, small_vectors, csr_kinds, kind,
                                  metric, ef, n_seeds, tombstones):
        vectors = small_vectors[0]
        level, lookup = csr_kinds[kind]
        for i, mask in enumerate(_masks(len(vectors), tombstones)):
            seed_ids = [(37 * i + 101 * j) % len(vectors)
                        for j in range(n_seeds)]
            assert_kernels_agree(
                vectors, metric, level, lookup(mask), mask, seed_ids, ef)

    def test_rejects_non_positive_ef(self, small_vectors, level0):
        vectors = small_vectors[0]
        computer = DistanceComputer(vectors)
        with pytest.raises(ValueError, match="ef must be positive"):
            search_frozen_level(
                computer, vectors[0], [(0.0, 0)], 0, level0,
                np.ones(len(vectors), dtype=bool), TraversalScratch())

    def test_no_seeds_is_empty(self, small_vectors, level0):
        vectors = small_vectors[0]
        assert search_frozen_level(
            DistanceComputer(vectors), vectors[0], [], 4, level0,
            np.ones(len(vectors), dtype=bool), TraversalScratch()) == []

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_graphs(self, data):
        """Tiny random digraphs: duplicate seeds, seeds failing the mask,
        empty masks, isolated nodes, ``ef`` on either side of everything,
        both lookups, a memo that stores everything, some rows or none."""
        n = data.draw(st.integers(1, 20), label="n")
        lists = [
            data.draw(st.lists(st.integers(0, n - 1), max_size=6,
                               unique=True), label=f"N({v})")
            for v in range(n)
        ]
        mask = np.asarray(
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                      label="mask"), dtype=bool)
        seed_ids = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=4),
            label="seeds")
        ef = data.draw(st.integers(1, 8), label="ef")
        m_beta = data.draw(st.sampled_from([None, 0, 1, 3]), label="m_beta")
        max_ratio = data.draw(st.sampled_from([0.0, 0.5, 16.0]),
                              label="max_ratio")
        metric = data.draw(st.sampled_from(METRICS), label="metric")
        vectors = np.random.default_rng(
            data.draw(st.integers(0, 2**16), label="vector seed")
        ).standard_normal((n, 4)).astype(np.float32)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum([len(lst) for lst in lists], out=indptr[1:])
        indices = np.asarray([v for lst in lists for v in lst],
                             dtype=np.int32)
        for arr in (indptr, indices):
            arr.setflags(write=False)
        level = FrozenLevel(indptr, indices, np.arange(n, dtype=np.int32),
                            m_beta, max_ratio)

        def lookup(c):
            if m_beta is None:
                return filtered_neighbors(level, c, mask)
            return compressed_neighbors(level, c, mask, m_beta)

        assert_kernels_agree(vectors, metric, level, lookup, mask, seed_ids,
                             ef)


def _world(n=240, rows=260, seed=5):
    gen = np.random.default_rng(seed)
    centers = gen.standard_normal((6, 12)).astype(np.float32)
    vectors = centers[gen.integers(0, 6, size=n)] + 0.3 * gen.standard_normal(
        (n, 12)).astype(np.float32)
    table = AttributeTable(rows)
    table.add_int_column("label", gen.integers(0, 4, size=rows))
    return vectors, table


@pytest.fixture(scope="module", params=METRICS)
def families(request):
    """One small index of every family, per metric (spare table rows).

    γ = 6 keeps every label (≥ 53 of 240 rows, ≥ 36 of 160 live) above
    ``s_min · n_live``, so ``WALK_EF`` searches walk.
    """
    vectors, table = _world()
    params = AcornParams(m=6, gamma=6, m_beta=10, ef_construction=24)
    metric = request.param

    def acorn():
        return AcornIndex.build(vectors, table, params=params, seed=2,
                                metric=metric)

    def acorn_one():
        return AcornOneIndex.build(vectors, table, m=8, ef_construction=24,
                                   seed=2, metric=metric)

    indexes = {"acorn": acorn(), "acorn1": acorn_one(),
               "acorn-dynamic": acorn(), "acorn1-dynamic": acorn_one(),
               "flat": FlatAcornIndex.build(vectors, table, params=params,
                                            seed=3, metric=metric)}
    # The "-dynamic" twins' snapshots have no room: every row is built
    # on every expansion and none is stored.
    for name in ("acorn-dynamic", "acorn1-dynamic"):
        index = indexes[name]
        index._frozen = [
            FrozenLevel(level.indptr, level.indices, level.node_ids,
                        level.m_beta, max_ratio=0.0)
            for level in index.freeze()]
    return vectors, indexes, HnswIndex.build(
        vectors, m=6, ef_construction=24, seed=1, metric=metric)


def memoized(index) -> dict[tuple[int, int], bytes]:
    """``index``'s stored candidate rows, keyed by (level, node)."""
    return {(lev, node): row.tobytes()
            for lev, level in enumerate(index.freeze())
            for node, row in enumerate(level.rows) if row is not None}


def _queries(vectors, n=8, seed=9):
    gen = np.random.default_rng(seed)
    picks = gen.choice(vectors.shape[0], size=n, replace=False)
    return vectors[picks] + 0.05 * gen.standard_normal(
        (n, vectors.shape[1])).astype(np.float32)


class TestIndexIdentity:
    """Every family × metric × tombstones vs the reference."""

    def test_resolver_covers_both_outcomes(self, families):
        """Each level names its lookup: ACORN-γ filters above its
        compressed level 0, ACORN-1 expands on every level (Fig 4c),
        HNSW filters everywhere."""
        _, indexes, hnsw = families
        assert len(indexes["acorn"].freeze()) > 1
        for name, index in indexes.items():
            lookups = [level.m_beta for level in index.freeze()]
            if name.startswith("acorn1"):
                assert lookups == [0] * len(lookups)
            else:
                assert lookups == [index.params.m_beta] + [None] * (
                    len(lookups) - 1)
        assert {level.m_beta for level in hnsw.freeze()} == {None}

    @pytest.mark.parametrize("family", ["acorn", "acorn1", "acorn-dynamic",
                                        "acorn1-dynamic", "flat"])
    def test_acorn_families(self, families, family):
        vectors, indexes, _ = families
        index = indexes[family]
        preds = [Equals("label", i % 4) for i in range(7)] + [TruePredicate()]
        try:
            for tombstoned in (False, True):
                if tombstoned:
                    for node in range(0, len(index), 3):
                        index.mark_deleted(node)
                for query, pred in zip(_queries(vectors), preds):
                    got = index.search(query, pred, 5, ef_search=WALK_EF)
                    want = reference_search(index, query, pred, 5,
                                            ef_search=WALK_EF)
                    assert got.hops > 0
                    assert_results_identical(got, want)
        finally:
            for node in range(0, len(index), 3):
                index.unmark_deleted(node)
        assert bool(memoized(index)) != family.endswith("-dynamic")

    def test_hnsw(self, families):
        vectors, _, hnsw = families
        for query in _queries(vectors):
            assert_results_identical(
                hnsw.search(query, 5, ef_search=24),
                reference_hnsw_search(hnsw, query, 5, ef_search=24),
                counters=False)

    def test_hnsw_counters(self, families):
        """Float32 HNSW search reports the hops and visited nodes of its
        walk (descent included), not zeros."""
        vectors, _, hnsw = families
        for query in _queries(vectors):
            got = hnsw.search(query, 5, ef_search=24)
            assert got.hops > 0 and got.visited_nodes > got.hops
            assert_results_identical(
                got, reference_hnsw_search(hnsw, query, 5, ef_search=24))

    def test_entry_point_override(self, families):
        vectors, indexes, _ = families
        index = indexes["acorn"]
        for query, entry in zip(_queries(vectors, n=4), (0, 17, 111, 239)):
            assert_results_identical(
                index.search(query, Equals("label", 1), 5, ef_search=24,
                             entry_point=entry),
                reference_search(index, query, Equals("label", 1), 5,
                                 ef_search=24, entry_point=entry))

    def test_empty_mask(self, families):
        """Nothing passes: no ids, and only the work the reference does."""
        vectors, indexes, _ = families
        for index in indexes.values():
            nothing = CompiledPredicate(
                TruePredicate(), np.zeros(len(index.table), dtype=bool),
                table=index.table)
            got = index.search(vectors[3], nothing, 5, ef_search=24)
            assert len(got) == 0
            assert_results_identical(
                got, reference_search(index, vectors[3], nothing, 5,
                                      ef_search=24))


class TestRowMemo:
    """Rows are built by the walks that expand their nodes, and only then."""

    @pytest.mark.parametrize("family", ["acorn", "acorn1", "flat"])
    def test_walk_memoizes_only_expanded_nodes(self, families, family,
                                               monkeypatch):
        vectors, indexes, _ = families
        index = indexes[family]
        index._frozen = None  # a fresh snapshot: nothing memoized yet
        expanded = set()
        real = AcornIndex._neighbor_fn

        def spy(self, level, mask):
            lookup = real(self, level, mask)

            def record(c):
                expanded.add((level, c))
                return lookup(c)
            return record

        query, pred = _queries(vectors)[2], Equals("label", 3)
        monkeypatch.setattr(AcornIndex, "_neighbor_fn", spy)
        want = reference_search(index, query, pred, 5, ef_search=WALK_EF)
        monkeypatch.undo()
        assert not memoized(index)  # the reference lookups store nothing
        got = index.search(query, pred, 5, ef_search=WALK_EF)
        assert_results_identical(got, want)
        assert len(expanded) == got.hops
        # An edgeless level (a lone top-level entry) has no memo room.
        frozen = index.freeze()
        stored = {(lev, c) for lev, c in expanded if frozen[lev].num_edges}
        assert set(memoized(index)) == stored
        again = index.search(query, pred, 5, ef_search=WALK_EF)
        assert_results_identical(again, want)
        assert set(memoized(index)) == stored

    def test_concurrent_fills_equal_sync(self, families):
        vectors, indexes, _ = families
        index = indexes["acorn"]
        gen = np.random.default_rng(4)
        queries = vectors[gen.integers(0, len(vectors), size=120)] + (
            0.05 * gen.standard_normal((120, vectors.shape[1]))
        ).astype(np.float32)
        preds = [index._compile(Equals("label", i % 4)) for i in range(120)]

        def run(i):
            return index.search(queries[i], preds[i], 5, ef_search=WALK_EF)

        index._frozen = None
        want = [run(i) for i in range(120)]
        want_rows = memoized(index)
        # A fresh, empty memo, frozen before the fan-out as the engine
        # does: threads racing to build the snapshot itself would each
        # fill a private copy, and all but one copy's rows would be lost.
        index._frozen = None
        index.freeze()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = on_threads(run, range(120), 4)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, want):
            assert_results_identical(a, b)
        assert memoized(index) == want_rows
        assert_frozen(index.freeze())


def _buffer_is_clean(scratch) -> bool:
    return scratch.bound_mask is None or np.array_equal(
        scratch.eligible, scratch.bound_mask)


class TestEligibilityBuffer:
    """The per-thread ``mask ∧ ¬visited`` buffer never leaks state."""

    @pytest.fixture()
    def index(self, families):
        return families[1]["acorn"]

    def test_clean_after_normal_and_failed_search(
        self, families, index, monkeypatch
    ):
        vectors = families[0]
        scratch = thread_scratch(len(index))
        pred = index._compile(Equals("label", 2))
        index.search(vectors[5], pred, 5, ef_search=WALK_EF)
        assert scratch.bound_mask is pred.mask and _buffer_is_clean(scratch)

        calls = {"n": 0}
        real = DistanceComputer.distances_to

        def flaky(self, query, ids):
            calls["n"] += 1
            if calls["n"] == 4:
                raise RuntimeError("distance backend fell over")
            return real(self, query, ids)

        monkeypatch.setattr(DistanceComputer, "distances_to", flaky)
        with pytest.raises(RuntimeError, match="fell over"):
            index.search(vectors[5], pred, 5, ef_search=WALK_EF)
        monkeypatch.undo()
        assert scratch.bound_mask is None
        assert_results_identical(
            index.search(vectors[5], pred, 5, ef_search=WALK_EF),
            reference_search(index, vectors[5], pred, 5,
                             ef_search=WALK_EF))
        assert scratch.bound_mask is pred.mask and _buffer_is_clean(scratch)

    def test_reseeds_only_when_the_mask_object_changes(self, families, index):
        vectors = families[0]
        scratch = thread_scratch(len(index))
        pred = index._compile(Equals("label", 1))
        # A passing node that can never be a seed (level 0 only, not the
        # entry): once poisoned nothing restores it, so it stays
        # ineligible until the buffer is re-seeded from a mask.
        seedable = {index.graph.entry_point,
                    *index.freeze()[1].node_ids.tolist()}
        canary = next(v for v in np.flatnonzero(pred.mask).tolist()
                      if v not in seedable and v < len(index))
        try:
            index.search(vectors[7], pred, 5, ef_search=WALK_EF)
            assert scratch.bound_mask is pred.mask
            scratch.eligible[canary] = False
            index.search(vectors[8], pred, 5, ef_search=WALK_EF)
            assert not scratch.eligible[canary], "same mask was re-seeded"

            index.mark_deleted(canary)
            index.search(vectors[8], pred, 5, ef_search=WALK_EF)
            composed = index._effective_mask(pred.mask)
            assert composed is not pred.mask
            assert scratch.bound_mask is composed
            assert np.array_equal(scratch.eligible, composed)
        finally:
            index.unmark_deleted(canary)
            scratch.unbind()

    def test_threaded_engine_alternating_masks_equals_sync(
        self, families, index
    ):
        vectors = families[0]
        gen = np.random.default_rng(3)
        queries = vectors[gen.integers(0, len(vectors), size=200)] + (
            0.05 * gen.standard_normal((200, vectors.shape[1]))
        ).astype(np.float32)
        compiled = [index._compile(Equals("label", i)) for i in range(4)]
        compiled.append(index._compile(TruePredicate()))
        batch = QueryBatch.build(
            queries, [compiled[i % 5] for i in range(200)], k=5,
            ef_search=WALK_EF)
        with SearchEngine(index, executor="sync") as engine:
            want = engine.search_batch(batch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # Four threads, strided: each thread's buffer sees the five
            # masks alternate while the others walk.
            with SearchEngine(index) as engine:
                got = on_threads(
                    lambda i: engine.search_batch(
                        queries[i], batch.predicates[i], k=5,
                        ef_search=WALK_EF,
                    ).results[0],
                    range(200), 4,
                )
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == len(want) == 200
        for a, b in zip(got, want):
            assert_results_identical(a, b)

    def test_growth_after_add_rebinds(self):
        vectors, table = _world(n=130, rows=160, seed=11)
        params = AcornParams(m=6, gamma=4, m_beta=10, ef_construction=24)
        acorn = AcornIndex.build(vectors[:100], table, params=params, seed=2)
        hnsw = HnswIndex.build(vectors[:100], m=6, ef_construction=24, seed=1)
        pred = acorn._compile(Equals("label", 0))
        scratch = thread_scratch(len(acorn))
        for stop in (100, 115, 130):
            for vector in vectors[len(acorn):stop]:
                acorn.add(vector)
                hnsw.add(vector)
            assert_results_identical(
                acorn.search(vectors[1], pred, 5, ef_search=WALK_EF),
                reference_search(acorn, vectors[1], pred, 5,
                                 ef_search=WALK_EF))
            assert scratch.eligible.size == len(table)
            assert_results_identical(
                hnsw.search(vectors[1], 5, ef_search=24),
                reference_hnsw_search(hnsw, vectors[1], 5, ef_search=24),
                counters=False)
            assert scratch.eligible.size == stop
            assert scratch.bound_mask is hnsw._all_pass
