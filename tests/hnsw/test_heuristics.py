"""Unit tests for the RNG neighbor-selection heuristic."""

import numpy as np

from repro.hnsw.heuristics import select_neighbors_heuristic
from repro.vectors import VectorStore


def _computer(vectors):
    return VectorStore.from_array(vectors).computer()


class TestRngHeuristic:
    def test_prunes_triangle_long_edge(self):
        # The paper's Figure 5 scenario: v at origin; a close to v; b
        # behind a (closer to a than to v) gets pruned; c off to the
        # side survives.
        vectors = np.array(
            [
                [0.0, 0.0],   # 0 = v (target; distances below are to it)
                [1.0, 0.0],   # 1 = a
                [2.0, 0.0],   # 2 = b: dist(b, a)=1 < dist(b, v)=4 (sq)
                [0.0, 1.5],   # 3 = c
            ],
            dtype=np.float32,
        )
        candidates = [(1.0, 1), (4.0, 2), (2.25, 3)]
        got = select_neighbors_heuristic(_computer(vectors), candidates, m=3)
        kept_ids = [nid for _, nid in got]
        assert kept_ids == [1, 3]

    def test_counts_candidate_to_candidate_distances(self):
        # a is kept unscored; c is scored against a; b against a and c.
        vectors = np.array(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.5]],
            dtype=np.float32,
        )
        computer = _computer(vectors)
        select_neighbors_heuristic(computer, [(1.0, 1), (4.0, 2), (2.25, 3)],
                                   m=3)
        assert computer.count == 3

    def test_respects_degree_bound(self):
        gen = np.random.default_rng(0)
        vectors = gen.standard_normal((20, 4)).astype(np.float32)
        dists = ((vectors - vectors[0]) ** 2).sum(axis=1)
        candidates = [(float(dists[i]), i) for i in range(1, 20)]
        got = select_neighbors_heuristic(_computer(vectors), candidates, m=5)
        assert len(got) <= 5

    def test_nearest_always_kept(self):
        gen = np.random.default_rng(1)
        vectors = gen.standard_normal((10, 4)).astype(np.float32)
        dists = ((vectors - vectors[0]) ** 2).sum(axis=1)
        candidates = sorted((float(dists[i]), i) for i in range(1, 10))
        got = select_neighbors_heuristic(_computer(vectors), candidates, m=3)
        assert got[0] == candidates[0]

    def test_empty_candidates(self):
        vectors = np.zeros((1, 2), dtype=np.float32)
        assert select_neighbors_heuristic(_computer(vectors), [], m=3) == []

    def test_output_sorted_by_distance(self):
        gen = np.random.default_rng(2)
        vectors = gen.standard_normal((15, 4)).astype(np.float32)
        dists = ((vectors - vectors[0]) ** 2).sum(axis=1)
        candidates = [(float(dists[i]), i) for i in range(1, 15)]
        got = select_neighbors_heuristic(_computer(vectors), candidates, m=6)
        assert got == sorted(got)
