"""The HNSW index (Malkov & Yashunin), built from scratch.

Serves three roles in the reproduction: the unfiltered-ANN baseline that
post-filtering wraps, the per-predicate index of the oracle partition
method (paper §4), and the reference construction ACORN's indices are
diffed against in tests and Figure 12.
"""

from __future__ import annotations

import numpy as np

from repro.core.searcher import check_search_args
from repro.hnsw.graph import LayeredGraph
from repro.hnsw.heuristics import select_neighbors_heuristic
from repro.hnsw.levels import LevelGenerator
from repro.hnsw.scratch import thread_scratch
from repro.hnsw.traversal import (
    TraversalStats,
    search_frozen_level,
    search_live_level,
)
from repro.telemetry import SearchResult
from repro.vectors.distance import DistanceComputer, Metric
from repro.vectors.store import VectorStore


class HnswIndex:
    """Hierarchical Navigable Small World index over float32 vectors.

    Args:
        dim: vector dimensionality.
        m: degree bound M; each node keeps at most M neighbors per level
            (2M on level 0, the empirical improvement noted in §2.1).
        ef_construction: candidate-list size during insertion (efc).
        metric: ``l2`` (default), ``ip``, or ``cosine``.
        seed: seed for the stochastic level assignment.
    """

    def __init__(
        self,
        dim: int,
        m: int = 16,
        ef_construction: int = 40,
        metric: "Metric | str" = Metric.L2,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if m < 2:
            raise ValueError(f"M must be at least 2, got {m}")
        if ef_construction < 1:
            raise ValueError(f"efc must be positive, got {ef_construction}")
        self.m = int(m)
        self.m_max0 = 2 * self.m
        self.ef_construction = int(ef_construction)
        self.store = VectorStore(dim, metric=metric)
        self.graph = LayeredGraph()
        self._levels = LevelGenerator(self.m, seed=seed)
        self._frozen = None
        self._all_pass: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.store)

    @property
    def metric(self) -> Metric:
        """The configured distance metric."""
        return self.store.metric

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add(self, vector: np.ndarray) -> int:
        """Insert one vector; returns its node id."""
        node = self.store.add(vector)
        self._frozen = None
        level = self._levels.draw()
        if len(self.graph) == 0:
            self.graph.add_node(node, level)
            self.graph.entry_point = node
            return node

        computer = self.store.computer()
        computer.defer_counts()
        try:
            query = computer.set_query(vector)
            entry = self.graph.entry_point
            top = self.graph.node_level(entry)
            best = (computer.distance_one(query, entry), entry)

            # Phase 1: greedy descent with ef=1 from the top level to
            # level+1.
            for lev in range(top, level, -1):
                best = self._greedy_step(computer, query, best, lev)

            # Phase 2: efc-search and neighbor selection from
            # min(level, top) down to level 0.
            self.graph.add_node(node, level)
            scratch = thread_scratch(len(self.store))
            entry_points = [best]
            for lev in range(min(level, top), -1, -1):
                found = search_live_level(
                    computer, query, entry_points, self.ef_construction,
                    self.graph.level_adjacency(lev), scratch,
                )
                selected = select_neighbors_heuristic(
                    computer.base, found, self.m, metric=self.metric
                )
                self.graph.set_neighbors(node, lev, [nid for _, nid in selected])
                cap = self.m if lev > 0 else self.m_max0
                for dist, neighbor in selected:
                    self._add_reverse_edge(computer, neighbor, node, lev, cap)
                entry_points = found

            if level > top:
                self.graph.entry_point = node
        finally:
            computer.flush_counts()
        return node

    def add_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Insert many vectors; returns their node ids as an intp array.

        Accepts an ``(n, d)`` matrix, a single 1-D vector (ids of shape
        ``(1,)``), or empty input (empty intp array — not the float
        array a bare ``np.asarray([])`` round-trip would produce).
        """
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.size == 0:
            return np.empty(0, dtype=np.intp)
        vectors = np.atleast_2d(vectors)
        return np.asarray([self.add(v) for v in vectors], dtype=np.intp)

    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        m: int = 16,
        ef_construction: int = 40,
        metric: "Metric | str" = Metric.L2,
        seed: int | np.random.Generator | None = None,
    ) -> "HnswIndex":
        """Construct an index over ``vectors`` (n, d) in insertion order.

        Every vector enters through :meth:`add`.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        index = cls(vectors.shape[1], m=m, ef_construction=ef_construction,
                    metric=metric, seed=seed)
        index.add_batch(vectors)
        return index

    def _greedy_step(
        self,
        computer: DistanceComputer,
        query: np.ndarray,
        best: tuple[float, int],
        level: int,
    ) -> tuple[float, int]:
        return search_live_level(
            computer, query, [best], 1, self.graph.level_adjacency(level),
            thread_scratch(len(self.store)),
        )[0]

    def _add_reverse_edge(
        self,
        computer: DistanceComputer,
        owner: int,
        new_neighbor: int,
        level: int,
        cap: int,
    ) -> None:
        """Add ``owner -> new_neighbor``; shrink with the heuristic on overflow.

        ``new_neighbor`` is the node the running ``add()`` just
        registered, so it cannot be in ``owner``'s list yet and no
        membership scan is needed.
        """
        neighbor_ids = self.graph.neighbors(owner, level)
        neighbor_ids.append(new_neighbor)
        if len(neighbor_ids) <= cap:
            return
        dists = computer.distances_to(computer.base[owner], neighbor_ids)
        candidates = list(zip(dists.tolist(), neighbor_ids))
        selected = select_neighbors_heuristic(
            computer.base, candidates, cap, metric=self.metric
        )
        self.graph.set_neighbors(owner, level, [nid for _, nid in selected])

    # ------------------------------------------------------------------
    # Search (Algorithm 1)
    # ------------------------------------------------------------------

    def _adjacency(self):
        """The cached CSR snapshot (see :func:`repro.core.search.freeze_graph`).

        Built together with the snapshot's all-true mask — unfiltered
        search is the frozen kernel under a predicate everything passes.
        """
        if self._frozen is None:
            from repro.core.search import assert_frozen, freeze_graph

            frozen = freeze_graph(self.graph)
            assert_frozen(frozen)
            self._frozen = frozen
            self._all_pass = None
        if self._all_pass is None:  # a fresh snapshot or a loaded one
            all_pass = np.ones(len(self.store), dtype=bool)
            all_pass.setflags(write=False)
            self._all_pass = all_pass
        return self._frozen

    def freeze(self):
        """Materialize (and cache) the read-only CSR adjacency snapshot.

        The batch engine calls this before fanning a batch across
        threads so every worker shares one snapshot; each node's row is
        memoized by the first walk that expands it.  Invalidated by
        :meth:`add`.
        """
        return self._adjacency()

    def search(self, query: np.ndarray, k: int, ef_search: int = 64) -> SearchResult:
        """K-nearest-neighbor search (paper Algorithm 1).

        Args:
            query: query vector of dimension ``dim``.
            k: number of neighbors to return.
            ef_search: dynamic candidate-list size on level 0 (efs);
                effective value is ``max(ef_search, k)``.
        """
        check_search_args(k, ef_search)
        if len(self.graph) == 0:
            return SearchResult.empty()
        computer = self.store.computer()
        computer.defer_counts()
        try:
            query = computer.set_query(query)
            tstats = TraversalStats()
            found = self._search_candidates(
                computer, query, max(ef_search, k), tstats,
            )
            return SearchResult.from_pairs(
                found[:k], distance_computations=computer.count,
                hops=tstats.hops, visited_nodes=tstats.visited,
            )
        finally:
            computer.flush_counts()

    def search_candidates(
        self, query: np.ndarray, ef_search: int
    ) -> tuple[list[tuple[float, int]], int]:
        """Raw ef-search: (dist, id) candidates plus distance-comp count.

        Exposed for the post-filtering baseline, which over-searches for
        ``K/s`` candidates and filters afterwards (paper §7.2).
        """
        if len(self.graph) == 0:
            return [], 0
        computer = self.store.computer()
        computer.defer_counts()
        try:
            query = computer.set_query(query)
            found = self._search_candidates(
                computer, query, ef_search, TraversalStats(),
            )
        finally:
            computer.flush_counts()
        return found, computer.count

    def _descend(
        self,
        computer: DistanceComputer,
        query: np.ndarray,
        stats: TraversalStats,
    ) -> tuple[float, int]:
        """Greedy ef=1 descent over the frozen upper levels."""
        frozen = self._adjacency()
        scratch = thread_scratch(len(self.store))
        entry = self.graph.entry_point
        best = (computer.distance_one(query, entry), entry)
        stats.visited += 1
        for lev in range(self.graph.node_level(entry), 0, -1):
            best = search_frozen_level(
                computer, query, [best], 1, frozen[lev], self._all_pass,
                scratch, stats=stats,
            )[0]
        return best

    def _search_candidates(
        self,
        computer: DistanceComputer,
        query: np.ndarray,
        ef: int,
        stats: TraversalStats,
    ) -> list[tuple[float, int]]:
        """Greedy descent, then the level-0 walk."""
        best = self._descend(computer, query, stats)
        stats.visited += 1
        return search_frozen_level(
            computer, query, [best], ef, self._adjacency()[0],
            self._all_pass, thread_scratch(len(self.store)), stats=stats,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        """Vector payload + adjacency footprint (Table 5 methodology)."""
        return self.store.nbytes() + self.graph.nbytes()

    def out_degree_by_level(self) -> dict[int, float]:
        """Average out-degree per level (Table 6 methodology)."""
        return {
            lev: self.graph.average_out_degree(lev)
            for lev in range(self.graph.max_level + 1)
        }
