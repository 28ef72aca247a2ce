"""Unit tests for ACORN construction internals (pruning rules)."""

import numpy as np
import pytest

from repro.attributes import AttributeTable
from repro.core import AcornIndex, AcornParams
from repro.core.construction import (
    PruningStats,
    prune_predicate_agnostic,
    prune_rng_metadata,
)
from repro.core.params import PruningStrategy
from repro.hnsw.graph import LayeredGraph
from repro.hnsw.heuristics import select_neighbors_heuristic
from repro.vectors import Metric, VectorStore, distance
from repro.vectors.distance import GLOBAL_TALLY


def _computer(vectors: np.ndarray):
    return VectorStore.from_array(vectors).computer()


def _probe_kernel(monkeypatch, metric: Metric) -> list[int]:
    """Wrap ``metric``'s bare kernel; returns a one-item list holding the
    rows it has scored since (computers built later bind the probe)."""
    kernel = distance._KERNELS[metric]
    rows = [0]

    def probe(base, query):
        rows[0] += len(base)
        return kernel(base, query)

    monkeypatch.setitem(distance._KERNELS, metric, probe)
    return rows


def _graph_with_level0(adjacency: dict[int, list[int]]) -> LayeredGraph:
    graph = LayeredGraph()
    for node in sorted(adjacency):
        graph.add_node(node, 0)
    for node, neighbors in adjacency.items():
        graph.set_neighbors(node, 0, neighbors)
    return graph


class TestPredicateAgnosticPruning:
    def test_first_m_beta_kept_verbatim(self):
        graph = _graph_with_level0({i: [] for i in range(6)})
        candidates = [(float(i), i) for i in range(1, 6)]
        kept = prune_predicate_agnostic(
            candidates, graph, level=0, m_beta=2, max_degree=100
        )
        assert [nid for _, nid in kept][:2] == [1, 2]

    def test_two_hop_reachable_candidate_pruned(self):
        # Candidate 3 is a neighbor of kept candidate 2 (index >= m_beta),
        # so it lands in H and gets pruned.
        graph = _graph_with_level0({0: [], 1: [], 2: [3], 3: [], 4: []})
        candidates = [(1.0, 1), (2.0, 2), (3.0, 3), (4.0, 4)]
        kept = prune_predicate_agnostic(
            candidates, graph, level=0, m_beta=1, max_degree=100
        )
        assert [nid for _, nid in kept] == [1, 2, 4]

    def test_recoverability_invariant(self):
        """Every pruned candidate is in the neighbor list of some kept
        candidate with index >= m_beta (paper §5.2's recovery argument)."""
        gen = np.random.default_rng(0)
        adjacency = {
            i: gen.choice(20, size=4, replace=False).tolist() for i in range(20)
        }
        graph = _graph_with_level0(adjacency)
        candidates = [(float(i), i) for i in range(20)]
        m_beta = 3
        kept = prune_predicate_agnostic(
            candidates, graph, level=0, m_beta=m_beta, max_degree=1000
        )
        kept_ids = [nid for _, nid in kept]
        pruned = [nid for _, nid in candidates if nid not in kept_ids]
        expansion_sources = kept_ids[m_beta:]
        for dropped in pruned:
            assert any(
                dropped in adjacency[src] for src in expansion_sources
            ), f"pruned candidate {dropped} is not 2-hop recoverable"

    def test_budget_stops_pruning(self):
        graph = _graph_with_level0({i: list(range(10)) for i in range(10)})
        candidates = [(float(i), i) for i in range(10)]
        kept = prune_predicate_agnostic(
            candidates, graph, level=0, m_beta=1, max_degree=5
        )
        # After keeping one expansion candidate, |H| ~ 10 > budget: stop.
        assert len(kept) <= 3

    def test_m_beta_zero_prunes_from_start(self):
        graph = _graph_with_level0({0: [], 1: [2], 2: [], 3: []})
        candidates = [(1.0, 1), (2.0, 2), (3.0, 3)]
        kept = prune_predicate_agnostic(
            candidates, graph, level=0, m_beta=0, max_degree=100
        )
        assert [nid for _, nid in kept] == [1, 3]

    def test_stats_recorded(self):
        graph = _graph_with_level0({0: [], 1: [2], 2: [], 3: []})
        stats = PruningStats()
        prune_predicate_agnostic(
            [(1.0, 1), (2.0, 2), (3.0, 3)], graph, level=0, m_beta=0,
            max_degree=100, stats=stats,
        )
        assert stats.nodes_pruned == 1
        assert stats.candidates_seen == 3
        assert stats.candidates_dropped == 1
        assert stats.dropped_per_node == pytest.approx(1.0)


class TestRngBlindPruning:
    """The ablation's rule is HNSW's heuristic, counted into ACORN's stats."""

    def test_matches_hnsw_heuristic_semantics(self):
        vectors = np.array(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.5]], dtype=np.float32
        )
        candidates = [(1.0, 1), (4.0, 2), (2.25, 3)]
        stats = PruningStats()
        kept = select_neighbors_heuristic(_computer(vectors), candidates,
                                          10, stats=stats)
        assert [nid for _, nid in kept] == [1, 3]
        assert (stats.nodes_pruned, stats.candidates_seen,
                stats.candidates_dropped) == (1, 3, 1)

    def test_respects_cap(self):
        gen = np.random.default_rng(1)
        vectors = gen.standard_normal((30, 4)).astype(np.float32)
        dists = ((vectors - vectors[0]) ** 2).sum(axis=1)
        candidates = sorted((float(dists[i]), i) for i in range(1, 30))
        kept = select_neighbors_heuristic(_computer(vectors), candidates, 4)
        assert len(kept) <= 4


class TestRngMetadataPruning:
    def test_label_mismatch_blocks_pruning(self):
        # Same geometry as the blind test, but the relay (node 1) has a
        # different label, so node 2 must survive (paper Figure 5's
        # motivating scenario).
        vectors = np.array(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], dtype=np.float32
        )
        labels = np.array([7, 3, 7])
        candidates = [(1.0, 1), (4.0, 2)]
        kept = prune_rng_metadata(
            _computer(vectors), candidates, labels, owner=0, max_keep=10
        )
        assert [nid for _, nid in kept] == [1, 2]

    def test_same_label_triangle_pruned(self):
        vectors = np.array(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], dtype=np.float32
        )
        labels = np.array([7, 7, 7])
        candidates = [(1.0, 1), (4.0, 2)]
        kept = prune_rng_metadata(
            _computer(vectors), candidates, labels, owner=0, max_keep=10
        )
        assert [nid for _, nid in kept] == [1]

    def test_counts_every_relay_distance(self, monkeypatch):
        """The computer's count equals the rows the metric's kernel was
        called on: every relay-to-candidate distance is counted."""
        gen = np.random.default_rng(5)
        vectors = gen.standard_normal((40, 4)).astype(np.float32)
        labels = gen.integers(0, 2, size=40)
        dists = ((vectors - vectors[0]) ** 2).sum(axis=1)
        candidates = sorted((float(dists[i]), i) for i in range(1, 40))
        computer = _computer(vectors)
        rows = _probe_kernel(monkeypatch, computer.metric)
        prune_rng_metadata(computer, candidates, labels, owner=0, max_keep=20)
        assert computer.count == rows[0] > 0

    def test_metadata_aware_build_counts_what_it_computes(self, monkeypatch):
        """An RNG_METADATA build's distance tally equals the rows every
        kernel call of the build scored: under ``ip`` every distance —
        the walk's, the reverse edges' and the pruning's — goes through
        the metric's kernel."""
        gen = np.random.default_rng(6)
        n = 160
        vectors = gen.standard_normal((n, 8)).astype(np.float32)
        labels = gen.integers(0, 3, size=n)
        table = AttributeTable(n)
        table.add_int_column("label", labels)
        rows = _probe_kernel(monkeypatch, Metric.INNER_PRODUCT)
        before = GLOBAL_TALLY.total
        AcornIndex.build(vectors, table, metric="ip", seed=1, labels=labels,
                         params=AcornParams(
                             m=4, gamma=3, m_beta=6,
                             pruning=PruningStrategy.RNG_METADATA))
        assert GLOBAL_TALLY.total - before == rows[0] > 0


class TestPruningStatsThreadSafety:
    def test_concurrent_record_loses_no_counts(self):
        import threading

        stats = PruningStats()
        n_threads, per_thread = 8, 2000

        def worker():
            for _ in range(per_thread):
                stats.record(seen=5, kept=2)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        calls = n_threads * per_thread
        assert stats.nodes_pruned == calls
        assert stats.candidates_seen == 5 * calls
        assert stats.candidates_dropped == 3 * calls

    def test_concurrent_merge_loses_no_counts(self):
        import threading

        total = PruningStats()

        def worker():
            local = PruningStats()
            for _ in range(2000):
                local.record(seen=4, kept=1)
            total.merge(local)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert total.nodes_pruned == 16000
        assert total.candidates_seen == 64000
        assert total.candidates_dropped == 48000
