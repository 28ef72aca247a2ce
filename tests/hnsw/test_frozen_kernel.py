"""``search_frozen_level``: the frozen-search kernel's own contract.

Two promises.  (1) Byte identity: over a level's candidate CSR the
kernel pops, pushes, counts and aborts exactly like ``search_layer``
over the matching per-node lookup — checked at the kernel (random
graphs, both CSR kinds, every metric, the ``ef`` edge cases, tombstones,
both monitor aborts) and at every index family through the reference
drivers in ``tests/conftest.py`` — for every distance provider, the
exact float32 computer and the SQ8 / PQ ``QuantizedComputer`` a
quantized index ranks level 0 with.  (2) The per-thread eligibility
buffer cannot leak state between levels, queries, masks or threads.
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
    attach_expansion,
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
from repro.routing.monitor import WalkBudget, WalkMonitor
from repro.vectors.distance import METRICS, DistanceComputer
from repro.vectors.quantized_store import QuantizationConfig, QuantizedStore
from repro.vectors.store import VectorStore
from tests.conftest import (
    assert_results_identical,
    reference_hnsw_search,
    reference_search,
)

PROVIDERS = ("sq8", "pq")
# Index-level walks run at this ef so that the scan cutoff,
# ef·M/2 ≤ 32 on the ``families`` indexes, stays below every label's
# passing count (≥ 36 with every third node tombstoned): they test the
# walk, not ``AcornIndex.search``'s scan of a small passing set.
WALK_EF = 8
QUANT_CONFIGS = {"sq8": "sq8",
                 "pq": {"kind": "pq", "pq_subspaces": 4, "pq_centroids": 32}}

MONITORS = {
    "none": lambda: None,
    "hop-budget": lambda: WalkMonitor(
        WalkBudget(hop_budget=5, min_passing_rate=0.0, grace_hops=0), m=8),
    "passing-rate": lambda: WalkMonitor(
        WalkBudget(hop_budget=10_000, min_passing_rate=0.5, grace_hops=2),
        m=40),
}


def assert_kernels_agree(vectors, metric, indptr, indices, neighbor_fn, mask,
                         seed_ids, ef, make_monitor=MONITORS["none"],
                         make_computer=None):
    """Run one level through both kernels and compare everything.

    ``make_computer`` supplies another distance provider (a
    ``QuantizedComputer``); by default both walks rank in float32.
    """
    outcomes = []
    for frozen in (False, True):
        if make_computer is None:
            computer = DistanceComputer(vectors, metric)
            query = computer.set_query(vectors[0] * 0.5 + 0.1)
            seeds = [(computer.distance_one(query, s), s) for s in seed_ids]
        else:
            computer = make_computer()
            query = vectors[0] * 0.5 + 0.1
            dists = computer.distances_to(query, np.asarray(seed_ids))
            seeds = list(zip(dists.tolist(), seed_ids))
        stats, monitor, scratch = TraversalStats(), make_monitor(), \
            TraversalScratch()
        if frozen:
            found = search_frozen_level(
                computer, query, seeds, ef, indptr, indices, mask, scratch,
                stats=stats, monitor=monitor)
            assert scratch.bound_mask is mask
            assert np.array_equal(scratch.eligible, mask)
        else:
            scratch.begin(len(vectors))
            for node in seed_ids:
                scratch.mark(node)
            found = search_layer(computer, query, seeds, ef, neighbor_fn,
                                 scratch, stats=stats, monitor=monitor)
        outcomes.append((
            [node for _, node in found],
            np.asarray([dist for dist, _ in found]).tobytes(),
            computer.count, stats.hops, stats.visited,
            None if monitor is None
            else (monitor.hops, monitor.aborted, monitor.abort_reason),
        ))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.fixture(scope="module")
def level0(acorn_index):
    return acorn_index.freeze()[0]


@pytest.fixture(scope="module")
def csr_kinds(acorn_index, level0):
    """{kind: (indptr, indices, mask -> search_layer lookup)}."""
    m_beta = acorn_index.params.m_beta
    return {
        "raw": (level0.indptr, level0.indices,
                lambda mask: lambda c: filtered_neighbors(level0, c, mask)),
        "expansion": (*level0._expansions[m_beta],
                      lambda mask: lambda c: compressed_neighbors(
                          level0, c, mask, m_beta)),
    }


@pytest.fixture(scope="module")
def code_stores(small_vectors):
    """{(codec, metric): trained QuantizedStore} over the shared vectors."""
    vectors = small_vectors[0]
    stores = {}
    for kind in PROVIDERS:
        for metric in METRICS:
            store = VectorStore.from_array(vectors, metric=metric)
            codes = QuantizedStore(QuantizationConfig(
                kind=kind, pq_subspaces=4, pq_centroids=32), metric)
            codes.train(store.vectors)
            codes.sync(store)
            stores[kind, metric] = codes
    return stores


def _masks(n, tombstones):
    gen = np.random.default_rng(21)
    masks = [np.ones(n, dtype=bool), gen.random(n) < 0.15,
             gen.random(n) < 0.5]
    if tombstones:
        alive = gen.random(n) >= 0.3
        masks = [mask & alive for mask in masks]
    return masks


class TestKernelIdentity:
    @pytest.mark.parametrize("monitor", sorted(MONITORS))
    @pytest.mark.parametrize("tombstones", [False, True])
    @pytest.mark.parametrize("ef,n_seeds", [(1, 1), (3, 6), (5000, 2)],
                             ids=["ef1", "ef<seeds", "ef>reachable"])
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("kind", ["raw", "expansion"])
    def test_matches_search_layer(self, small_vectors, csr_kinds, kind,
                                  metric, ef, n_seeds, tombstones, monitor):
        vectors = small_vectors[0]
        indptr, indices, lookup = csr_kinds[kind]
        aborted = []
        for i, mask in enumerate(_masks(len(vectors), tombstones)):
            seed_ids = [(37 * i + 101 * j) % len(vectors)
                        for j in range(n_seeds)]
            outcome = assert_kernels_agree(
                vectors, metric, indptr, indices, lookup(mask), mask,
                seed_ids, ef, MONITORS[monitor])
            aborted.append(outcome[-1] is not None and outcome[-1][1])
        if monitor == "hop-budget" and ef > 1:
            assert any(aborted)

    @pytest.mark.parametrize("monitor", sorted(MONITORS))
    @pytest.mark.parametrize("tombstones", [False, True])
    @pytest.mark.parametrize("ef,n_seeds", [(1, 1), (3, 6), (5000, 2)],
                             ids=["ef1", "ef<seeds", "ef>reachable"])
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("kind", ["raw", "expansion"])
    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_quantized_provider_matches_search_layer(
        self, small_vectors, csr_kinds, code_stores, provider, kind, metric,
        ef, n_seeds, tombstones, monitor,
    ):
        """The float32 matrix above, ranked by codes: one kernel, any
        distance provider — counts are the ``QuantizedComputer``'s."""
        vectors = small_vectors[0]
        indptr, indices, lookup = csr_kinds[kind]
        for i, mask in enumerate(_masks(len(vectors), tombstones)):
            seed_ids = [(37 * i + 101 * j) % len(vectors)
                        for j in range(n_seeds)]
            assert_kernels_agree(
                vectors, metric, indptr, indices, lookup(mask), mask,
                seed_ids, ef, MONITORS[monitor],
                make_computer=code_stores[provider, metric].computer)

    def test_passing_rate_abort_fires(self, small_vectors, csr_kinds):
        """The parametrized budget really aborts a sparse-mask walk."""
        vectors = small_vectors[0]
        indptr, indices, lookup = csr_kinds["raw"]
        mask = _masks(len(vectors), True)[1]
        outcome = assert_kernels_agree(
            vectors, "l2", indptr, indices, lookup(mask), mask, [0], 64,
            MONITORS["passing-rate"])
        assert outcome[-1][1] and "passing rate" in outcome[-1][2]

    def test_rejects_non_positive_ef(self, small_vectors, level0):
        vectors = small_vectors[0]
        computer = DistanceComputer(vectors)
        with pytest.raises(ValueError, match="ef must be positive"):
            search_frozen_level(
                computer, vectors[0], [(0.0, 0)], 0, level0.indptr,
                level0.indices, np.ones(len(vectors), dtype=bool),
                TraversalScratch())

    def test_no_seeds_is_empty(self, small_vectors, level0):
        vectors = small_vectors[0]
        assert search_frozen_level(
            DistanceComputer(vectors), vectors[0], [], 4, level0.indptr,
            level0.indices, np.ones(len(vectors), dtype=bool),
            TraversalScratch()) == []

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_graphs(self, data):
        """Tiny random digraphs: duplicate seeds, seeds failing the mask,
        empty masks, isolated nodes, ``ef`` on either side of everything."""
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
        metric = data.draw(st.sampled_from(METRICS), label="metric")
        monitor = data.draw(st.sampled_from(sorted(MONITORS)),
                            label="monitor")
        vectors = np.random.default_rng(
            data.draw(st.integers(0, 2**16), label="vector seed")
        ).standard_normal((n, 4)).astype(np.float32)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum([len(lst) for lst in lists], out=indptr[1:])
        indices = np.asarray([v for lst in lists for v in lst],
                             dtype=np.int32)

        def lookup(c):
            cand = indices[indptr[c]:indptr[c + 1]]
            return cand[mask[cand]]

        assert_kernels_agree(vectors, metric, indptr, indices, lookup, mask,
                             seed_ids, ef, MONITORS[monitor])


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
    """One small index of every family, per metric (spare table rows)."""
    vectors, table = _world()
    params = AcornParams(m=6, gamma=4, m_beta=10, ef_construction=24)
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
    # ACORN-1's 2-hop lists fit the bound at this size; make sure, then
    # drop the expansions of the "-dynamic" twins as if they had not.
    assert attach_expansion(indexes["acorn1"].freeze()[0], 0,
                            max_ratio=float("inf"))
    for name in ("acorn-dynamic", "acorn1-dynamic"):
        indexes[name].freeze()[0]._expansions.clear()
    return vectors, indexes, HnswIndex.build(
        vectors, m=6, ef_construction=24, seed=1, metric=metric)


def _queries(vectors, n=8, seed=9):
    gen = np.random.default_rng(seed)
    picks = gen.choice(vectors.shape[0], size=n, replace=False)
    return vectors[picks] + 0.05 * gen.standard_normal(
        (n, vectors.shape[1])).astype(np.float32)


class TestIndexIdentity:
    """Every family × metric × tombstones × monitor vs the reference."""

    def test_resolver_covers_both_outcomes(self, families):
        _, indexes, _ = families
        for name, index in indexes.items():
            has_csr = [index._level_csr(lev) is not None
                       for lev in range(len(index.freeze()))]
            if name.endswith("-dynamic"):
                assert not has_csr[0]
            elif name == "acorn1":
                assert has_csr[0] and not any(has_csr[1:])
            else:
                assert all(has_csr)

    @pytest.mark.parametrize("monitor", sorted(MONITORS))
    @pytest.mark.parametrize("family", ["acorn", "acorn1", "acorn-dynamic",
                                        "acorn1-dynamic", "flat"])
    def test_acorn_families(self, families, family, monitor):
        vectors, indexes, _ = families
        index = indexes[family]
        preds = [Equals("label", i % 4) for i in range(7)] + [TruePredicate()]
        try:
            for tombstoned in (False, True):
                if tombstoned:
                    for node in range(0, len(index), 3):
                        index.mark_deleted(node)
                for query, pred in zip(_queries(vectors), preds):
                    got_mon, want_mon = (MONITORS[monitor](),
                                         MONITORS[monitor]())
                    got = index.search(query, pred, 5, ef_search=WALK_EF,
                                       monitor=got_mon)
                    want = reference_search(index, query, pred, 5,
                                            ef_search=WALK_EF,
                                            monitor=want_mon)
                    assert got.hops > 0
                    assert_results_identical(got, want)
                    if got_mon is not None:
                        assert (got_mon.hops, got_mon.abort_reason) == (
                            want_mon.hops, want_mon.abort_reason)
        finally:
            for node in range(0, len(index), 3):
                index.unmark_deleted(node)

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

    @pytest.mark.parametrize("monitor", sorted(MONITORS))
    @pytest.mark.parametrize("family", ["acorn", "acorn1", "acorn-dynamic",
                                        "acorn1-dynamic", "flat"])
    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_quantized_acorn_families(self, families, provider, family,
                                      monitor):
        """Level 0 ranked by codes, CSR or fallback, then the exact tail."""
        vectors, indexes, _ = families
        index = indexes[family]
        preds = [Equals("label", i % 4) for i in range(7)] + [TruePredicate()]
        index.enable_quantization(QUANT_CONFIGS[provider])
        try:
            for tombstoned in (False, True):
                if tombstoned:
                    for node in range(0, len(index), 3):
                        index.mark_deleted(node)
                for query, pred in zip(_queries(vectors), preds):
                    got_mon, want_mon = (MONITORS[monitor](),
                                         MONITORS[monitor]())
                    got = index.search(query, pred, 5, ef_search=WALK_EF,
                                       monitor=got_mon)
                    want = reference_search(index, query, pred, 5,
                                            ef_search=WALK_EF,
                                            monitor=want_mon)
                    assert got.hops > 0
                    assert_results_identical(got, want)
                    assert got.quantized_distances > 0
                    assert (got.quantized_distances, got.rerank_distances) \
                        == (want.quantized_distances, want.rerank_distances)
                    if got_mon is not None:
                        assert (got_mon.hops, got_mon.abort_reason) == (
                            want_mon.hops, want_mon.abort_reason)
        finally:
            index.enable_quantization(None)
            for node in range(0, len(index), 3):
                index.unmark_deleted(node)

    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_quantized_hnsw(self, families, provider):
        vectors, _, hnsw = families
        hnsw.enable_quantization(QUANT_CONFIGS[provider])
        try:
            for query in _queries(vectors):
                got = hnsw.search(query, 5, ef_search=24)
                want = reference_hnsw_search(hnsw, query, 5, ef_search=24)
                assert_results_identical(got, want)
                assert got.quantized_distances > 0
                assert (got.quantized_distances, got.rerank_distances) == (
                    want.quantized_distances, want.rerank_distances)
        finally:
            hnsw.enable_quantization(None)

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


def _buffer_is_clean(scratch) -> bool:
    return scratch.bound_mask is None or np.array_equal(
        scratch.eligible, scratch.bound_mask)


class TestEligibilityBuffer:
    """The per-thread ``mask ∧ ¬visited`` buffer never leaks state."""

    @pytest.fixture()
    def index(self, families):
        return families[1]["acorn"]

    def test_clean_after_normal_aborted_and_failed_search(
        self, families, index, monkeypatch
    ):
        vectors = families[0]
        scratch = thread_scratch(len(index))
        pred = index._compile(Equals("label", 2))
        index.search(vectors[5], pred, 5, ef_search=WALK_EF)
        assert scratch.bound_mask is pred.mask and _buffer_is_clean(scratch)

        monitor = MONITORS["hop-budget"]()
        index.search(vectors[5], pred, 5, ef_search=WALK_EF, monitor=monitor)
        assert monitor.aborted and _buffer_is_clean(scratch)

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
            with SearchEngine(index, executor="thread",
                              num_workers=4) as engine:
                got = engine.search_batch(batch)
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
