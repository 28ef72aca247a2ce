"""``search_live_level``: the insert kernel's own contract.

Three promises.  (1) Byte identity: over a live level's adjacency lists
the kernel pops, pushes, stamps and counts exactly like ``search_layer``
over ``c -> graph.neighbors(c, lev)[:trunc]`` — checked at the kernel
(graphs caught mid-construction, random digraphs, every metric, both
``ef`` regimes, duplicate seeds, the node under insertion as a seed) and
at every index family by rebuilding it with the reference kernel patched
in.  (2) The plain-list stamps cannot leak a visited mark between
scopes, graphs of different sizes or threads.  (3) Golden pins: the
graphs the four families build are the ones the parent commit built.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hnsw.hnsw as hnsw_module
from repro.attributes import AttributeTable
from repro.core import AcornIndex, AcornOneIndex, AcornParams, FlatAcornIndex
from repro.hnsw import HnswIndex
from repro.hnsw.scratch import TraversalScratch, thread_scratch
from repro.hnsw.traversal import search_live_level
from repro.vectors.distance import GLOBAL_TALLY, METRICS, DistanceComputer
from tests.conftest import _reference_level

M, EFC = 6, 24
PARAMS = AcornParams(m=M, gamma=4, m_beta=10, ef_construction=EFC)


def reference_live_level(computer, query, seeds, ef, adjacency, scratch,
                         trunc=None):
    """``search_live_level``'s signature, run through ``search_layer``."""
    return _reference_level(computer, query, seeds, ef,
                            lambda c: adjacency[c][:trunc], scratch,
                            len(computer))


def assert_kernels_agree(vectors, metric, adjacency, seed_ids, ef, trunc,
                         query=None):
    """Run one level through both kernels and compare everything."""
    if query is None:
        query = vectors[0] * 0.5 + 0.1
    outcomes = []
    for live in (False, True):
        computer = DistanceComputer(vectors, metric)
        query = computer.set_query(query)
        seeds = [(computer.distance_one(query, s), s) for s in seed_ids]
        scratch = TraversalScratch()
        if live:
            found = search_live_level(computer, query, seeds, ef, adjacency,
                                      scratch, trunc=trunc)
            visited = [v for v, stamp in enumerate(scratch.live_stamps)
                       if stamp == scratch.live_epoch]
        else:
            found = reference_live_level(computer, query, seeds, ef,
                                         adjacency, scratch, trunc=trunc)
            visited = np.flatnonzero(
                scratch.visited == scratch.epoch).tolist()
        outcomes.append((
            [node for _, node in found],
            np.asarray([dist for dist, _ in found]).tobytes(),
            visited, computer.count,
        ))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def _world(n=240, rows=260, seed=5):
    gen = np.random.default_rng(seed)
    centers = gen.standard_normal((6, 12)).astype(np.float32)
    vectors = centers[gen.integers(0, 6, size=n)] + 0.3 * gen.standard_normal(
        (n, 12)).astype(np.float32)
    table = AttributeTable(rows)
    table.add_int_column("label", gen.integers(0, 4, size=rows))
    return vectors, table


@pytest.fixture(scope="module", params=METRICS)
def half_built(request):
    """ACORN-γ and HNSW graphs stopped 150 inserts into a 240-row build."""
    vectors, table = _world()
    metric = request.param
    acorn = AcornIndex.build(vectors[:150], table, params=PARAMS, seed=2,
                             metric=metric)
    hnsw = HnswIndex.build(vectors[:150], m=M, ef_construction=EFC, seed=1,
                           metric=metric)
    return vectors, metric, {"acorn": acorn.graph, "hnsw": hnsw.graph}


class TestKernelIdentity:
    @pytest.mark.parametrize("trunc", [None, M], ids=["full", "first-M"])
    @pytest.mark.parametrize("ef", [1, EFC], ids=["ef1", "efc"])
    @pytest.mark.parametrize("family", ["acorn", "hnsw"])
    def test_matches_search_layer_mid_construction(self, half_built, family,
                                                   ef, trunc):
        vectors, metric, graphs = half_built
        graph = graphs[family]
        for lev in range(graph.max_level + 1):
            present = graph.nodes_at_level(lev)
            for i, pending in enumerate((150, 181, 239)):
                seed_ids = [present[(7 * i) % len(present)]]
                if ef > 1:
                    seed_ids.append(present[(31 * i + 3) % len(present)])
                ids, _, visited, count = assert_kernels_agree(
                    vectors[:150], metric, graph.level_adjacency(lev),
                    seed_ids, ef, trunc, query=vectors[pending])
                assert set(ids) <= set(visited)
                # One distance per seed, one per newly stamped node.
                assert count == (len(seed_ids) - len(set(seed_ids))
                                 + len(visited))

    @pytest.mark.parametrize("ef", [1, 2, EFC])
    def test_duplicate_seeds(self, half_built, ef):
        vectors, metric, graphs = half_built
        adjacency = graphs["acorn"].level_adjacency(0)
        ids, _, visited, count = assert_kernels_agree(
            vectors[:150], metric, adjacency, [5, 90, 5, 5], ef, M)
        assert len(ids) <= ef and count == 2 + len(visited)

    def test_seed_is_the_node_under_insertion(self):
        """The flat substrate's case: extra seeds are drawn from the live
        graph size, which already counts the just-registered node."""
        vectors, table = _world()
        index = FlatAcornIndex.build(vectors[:150], table, params=PARAMS,
                                     seed=3)
        node = index.store.add(vectors[150])
        index._register_node(node, 0)
        adjacency = index.graph.level_adjacency(0)
        assert adjacency[node] == []
        for ef in (1, EFC):
            ids, *_ = assert_kernels_agree(
                index.store.vectors, "l2", adjacency, [node, 17, 101], ef, M,
                query=vectors[150])
            assert ids[0] == node  # distance 0 to itself; add() drops it

    def test_lists_are_read_at_pop_time(self):
        """A live graph: an edit between two calls is seen by the second."""
        vectors, _ = _world(n=3)
        adjacency = {0: [1], 1: [], 2: []}
        computer = DistanceComputer(vectors[:3])
        scratch = TraversalScratch()
        seeds = [(computer.distance_one(vectors[0], 0), 0)]
        first = search_live_level(computer, vectors[0], seeds, 8, adjacency,
                                  scratch)
        adjacency[1].append(2)
        second = search_live_level(computer, vectors[0], seeds, 8, adjacency,
                                   scratch)
        assert sorted(n for _, n in first) == [0, 1]
        assert sorted(n for _, n in second) == [0, 1, 2]

    def test_rejects_non_positive_ef(self, half_built):
        vectors, _, graphs = half_built
        with pytest.raises(ValueError, match="ef must be positive"):
            search_live_level(
                DistanceComputer(vectors[:150]), vectors[0], [(0.0, 0)], 0,
                graphs["hnsw"].level_adjacency(0), TraversalScratch())

    def test_no_seeds_is_empty(self, half_built):
        vectors, _, graphs = half_built
        assert search_live_level(
            DistanceComputer(vectors[:150]), vectors[0], [], 4,
            graphs["hnsw"].level_adjacency(0), TraversalScratch()) == []

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_graphs(self, data):
        """Tiny random digraphs: duplicate seeds, isolated nodes, tied
        distances, ``ef`` and ``trunc`` on either side of everything."""
        n = data.draw(st.integers(1, 20), label="n")
        adjacency = {
            v: data.draw(st.lists(st.integers(0, n - 1), max_size=6,
                                  unique=True), label=f"N({v})")
            for v in range(n)
        }
        seed_ids = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=4),
            label="seeds")
        ef = data.draw(st.integers(1, 8), label="ef")
        trunc = data.draw(st.one_of(st.none(), st.integers(1, 7)),
                          label="trunc")
        metric = data.draw(st.sampled_from(METRICS), label="metric")
        # Coordinates on a coarse grid: distance ties are common, so the
        # (distance, id) tie-breaks of both heaps are exercised too.
        vectors = np.round(np.random.default_rng(
            data.draw(st.integers(0, 2**16), label="vector seed")
        ).standard_normal((n, 4))).astype(np.float32)
        assert_kernels_agree(vectors, metric, adjacency, seed_ids, ef, trunc,
                             query=vectors[0])


class TestStampList:
    """The plain-list visited stamps never leak between scopes."""

    def test_grows_across_scopes_and_keeps_old_stamps_dead(self, half_built):
        vectors, metric, graphs = half_built
        small = {0: [1, 2], 1: [0], 2: [1]}
        big = graphs["acorn"].level_adjacency(0)
        scratch = TraversalScratch()
        want_scratch = TraversalScratch()
        sizes = []
        for adjacency, n in ((small, 3), (big, 150), (small, 3), (big, 150)):
            for seed in (0, 2):
                got_c = DistanceComputer(vectors[:n], metric)
                want_c = DistanceComputer(vectors[:n], metric)
                seeds = [(DistanceComputer(vectors[:n], metric).distance_one(
                    vectors[200], seed), seed)]
                got = search_live_level(got_c, vectors[200], seeds, EFC,
                                        adjacency, scratch, trunc=M)
                want = reference_live_level(want_c, vectors[200], seeds, EFC,
                                            adjacency, want_scratch, trunc=M)
                assert got == want and got_c.count == want_c.count
            sizes.append(len(scratch.live_stamps))
        assert sizes[0] == 3 and sizes[1] >= 150 and sizes[1:] == sizes[1:2] * 3
        assert scratch.live_epoch == 8

    def test_begin_live_doubles_and_preserves(self):
        scratch = TraversalScratch()
        stamps, epoch = scratch.begin_live(5)
        stamps[4] = epoch
        grown, later = scratch.begin_live(6)
        assert grown is stamps and len(grown) == 10 and later == epoch + 1
        assert grown[4] == epoch and grown[5:] == [0] * 5
        # The numpy stamp scope is independent of the live one.
        assert scratch.epoch == 0 and scratch.visited.size == 0

    def test_threads_own_their_stamps(self, half_built):
        vectors, metric, graphs = half_built
        adjacency = graphs["acorn"].level_adjacency(0)
        base = vectors[:150]

        def run(seed, scratch):
            computer = DistanceComputer(base, metric)
            query = vectors[150 + seed]
            seeds = [(computer.distance_one(query, seed), seed)]
            return search_live_level(computer, query, seeds, EFC, adjacency,
                                     scratch, trunc=M)

        want = [run(seed, TraversalScratch()) for seed in range(24)]
        got: list = [None] * 24
        scratches = []

        def worker(lane):
            scratch = thread_scratch(len(base))
            scratches.append(scratch)
            for seed in range(lane, 24, 4):
                got[seed] = run(seed, scratch)

        threads = [threading.Thread(target=worker, args=(lane,))
                   for lane in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want
        assert len({id(s) for s in scratches}) == 4
        assert all(s.live_epoch == 6 for s in scratches)


def _family_builds(vectors, table, metric):
    return {
        "acorn-gamma": lambda: AcornIndex.build(
            vectors, table, params=PARAMS, seed=2, metric=metric),
        "acorn-1": lambda: AcornOneIndex.build(
            vectors, table, m=8, ef_construction=EFC, seed=2, metric=metric),
        "flat": lambda: FlatAcornIndex.build(
            vectors, table, params=PARAMS, seed=3, metric=metric),
        "hnsw": lambda: HnswIndex.build(
            vectors, m=M, ef_construction=EFC, seed=1, metric=metric),
    }


def _fingerprint(build):
    before = GLOBAL_TALLY.total
    index = build()
    return (index.graph.checksum(), index.nbytes(),
            GLOBAL_TALLY.total - before)


class TestBuildIdentity:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("family",
                             ["acorn-gamma", "acorn-1", "flat", "hnsw"])
    def test_build_equals_build_through_reference_kernel(
        self, monkeypatch, family, metric
    ):
        """The whole insert loop, not one level: same graph, same count.

        Every family inserts through ``HnswBase.add``, so patching the
        one module it reads the kernel from reroutes them all; the call
        count proves the patch was not a no-op.
        """
        vectors, table = _world()
        build = _family_builds(vectors, table, metric)[family]
        got = _fingerprint(build)
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return reference_live_level(*args, **kwargs)

        monkeypatch.setattr(hnsw_module, "search_live_level", counted)
        assert got == _fingerprint(build)
        assert len(calls) >= len(vectors) - 1

    def test_incremental_adds_match_one_shot_build(self):
        vectors, table = _world()
        whole = AcornIndex.build(vectors, table, params=PARAMS, seed=2)
        grown = AcornIndex.build(vectors[:100], table, params=PARAMS, seed=2)
        for vector in vectors[100:]:
            grown.add(vector)
        assert grown.graph.checksum() == whole.graph.checksum()


# Recorded from the parent commit (the ``search_layer`` insert loop)
# before the live kernel existed: (graph.checksum(), nbytes, build distance
# computations).  The pin world's coordinates are multiples of 1/8, so
# every dot product and squared difference is exact in float32 whatever
# the summation order — the pins do not depend on the BLAS or SIMD width
# of the machine that runs them.
PIN_PARAMS = AcornParams(m=8, gamma=6, m_beta=16, ef_construction=32)
PIN_BUILDS = {
    "acorn-gamma/l2": lambda v, t: AcornIndex.build(
        v, t, params=PIN_PARAMS, seed=3),
    "acorn-gamma/cosine": lambda v, t: AcornIndex.build(
        v, t, params=PIN_PARAMS, seed=3, metric="cosine"),
    "acorn-gamma/ip": lambda v, t: AcornIndex.build(
        v, t, params=PIN_PARAMS, seed=3, metric="ip"),
    "acorn-1/l2": lambda v, t: AcornOneIndex.build(
        v, t, m=8, ef_construction=32, seed=3),
    "flat/l2": lambda v, t: FlatAcornIndex.build(
        v, t, params=PIN_PARAMS, seed=3),
    "hnsw/l2": lambda v, t: HnswIndex.build(
        v, m=8, ef_construction=32, seed=3),
    "hnsw/cosine": lambda v, t: HnswIndex.build(
        v, m=8, ef_construction=32, seed=3, metric="cosine"),
}
GOLDEN = {
    "acorn-gamma/l2": ("7a89032912093bbfd53dcdbebce18691", 76248, 18871),
    "acorn-gamma/cosine": ("67a1d6f3ecd4c7c0ac0e5b702a7b4bb7", 77812, 19232),
    "acorn-gamma/ip": ("20ace7dc556c18e155a82f61564d5551", 73516, 14808),
    "acorn-1/l2": ("b5527356e303c259e6deb05974d67ad4", 48232, 18410),
    "flat/l2": ("178636ab3dfa1d9ce5d53f79c1bb04e2", 71416, 27897),
    # HNSW's counts include the RNG heuristic's candidate-to-candidate
    # distances (29247 and 32499 before they were counted); the graphs
    # did not change.
    "hnsw/l2": ("3e5edf41d5605334392494cb5f42a0d6", 40836, 70804),
    "hnsw/cosine": ("331815a90a7a37fe518e28ae958e1c97", 41208, 77137),
}


def _pin_world(n=400, dim=16, seed=7):
    gen = np.random.default_rng(seed)
    centers = gen.standard_normal((6, dim))
    raw = centers[gen.integers(0, 6, size=n)] + 0.4 * gen.standard_normal(
        (n, dim))
    vectors = (np.round(raw * 8) / 8).astype(np.float32)
    table = AttributeTable(n)
    table.add_int_column("label", gen.integers(0, 4, size=n))
    return vectors, table


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_build_pins(name):
    vectors, table = _pin_world()
    assert _fingerprint(
        lambda: PIN_BUILDS[name](vectors, table)) == GOLDEN[name]
