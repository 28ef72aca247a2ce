"""HNSW (Malkov & Yashunin), built from scratch, and the base ACORN extends.

:class:`HnswBase` is the layered-graph machinery every graph index here
shares: the insert loop (level draw, greedy ef=1 descent, per-level efc
candidate search, entry-point promotion), the frozen CSR snapshot, and
the descent plus level-0 walk under a mask.  :class:`HnswIndex` is
plain HNSW on it — RNG-heuristic edges, unfiltered search as the walk
under a mask everything passes.  :class:`repro.core.acorn.AcornIndex`
extends the same base with ACORN's edge rules and predicate search,
exactly as the paper implements ACORN by extending an HNSW library.

``HnswIndex`` serves three roles in the reproduction: the
unfiltered-ANN baseline that post-filtering wraps, the per-predicate
index of the oracle partition method (paper §4), and the reference
construction ACORN's indices are diffed against in tests and Figure 12.
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


class HnswBase:
    """What :class:`HnswIndex` and ACORN's indices share.

    A subclass says how it differs through these members only:
    ``_link`` (how one level's candidates become edges, reverse edges
    included), ``_register_node``, ``_bottom_seeds``, ``_level_m_beta``
    and the ``efc`` / ``trunc`` it passes to ``__init__``.

    Args:
        dim: vector dimensionality.
        metric: distance metric.
        levels: the level generator ``add`` draws from.
        efc: candidate-list size of each construction search.
        trunc: construction lookup width — each list is read up to its
            first ``trunc`` entries (ACORN's truncated lookup, §5.2);
            None reads whole lists.
    """

    def __init__(
        self,
        dim: int,
        metric: "Metric | str",
        levels: LevelGenerator,
        efc: int,
        trunc: int | None = None,
    ) -> None:
        self.store = VectorStore(dim, metric=metric)
        self.graph = LayeredGraph()
        self._levels = levels
        self._efc = efc
        self._trunc = trunc
        self._frozen = None

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
            self._register_node(node, level)
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

            # Phase 2: efc-search and edge selection from
            # min(level, top) down to level 0.
            self._register_node(node, level)
            scratch = thread_scratch(len(self.store))
            entry_points = [best]
            for lev in range(min(level, top), -1, -1):
                if lev == 0:
                    entry_points = self._bottom_seeds(computer, query,
                                                      entry_points)
                found = search_live_level(
                    computer, query, entry_points, self._efc,
                    self.graph.level_adjacency(lev), scratch,
                    trunc=self._trunc,
                )
                self._link(computer, node, found, lev)
                entry_points = found

            if level > top:
                self.graph.entry_point = node
        finally:
            computer.flush_counts()
        return node

    def _greedy_step(
        self,
        computer: DistanceComputer,
        query: np.ndarray,
        best: tuple[float, int],
        level: int,
    ) -> tuple[float, int]:
        return search_live_level(
            computer, query, [best], 1, self.graph.level_adjacency(level),
            thread_scratch(len(self.store)), trunc=self._trunc,
        )[0]

    def _register_node(self, node: int, level: int) -> None:
        self.graph.add_node(node, level)

    def _link(
        self,
        computer: DistanceComputer,
        node: int,
        found: list[tuple[float, int]],
        level: int,
    ) -> None:
        """Turn ``level``'s construction candidates ``found`` (ascending
        (distance, id)) into ``node``'s edges and their reverse edges."""
        raise NotImplementedError

    def _bottom_seeds(
        self,
        computer: DistanceComputer,
        query: np.ndarray,
        seeds: list[tuple[float, int]],
    ) -> list[tuple[float, int]]:
        """Entry points for the bottom-level traversal.

        The hierarchical index needs only the descent's best node: its
        upper levels already routed the query.  Flat substrates override
        this to add spread-out extra seeds (they have no hierarchy to
        route with) — during both search and construction, since a flat
        graph built with single-seed candidate searches fragments.
        """
        return seeds

    # ------------------------------------------------------------------
    # Search (Algorithm 1; ACORN's Algorithm 2 under a predicate mask)
    # ------------------------------------------------------------------

    def _level_m_beta(self, level: int) -> int | None:
        """The lookup of ``level`` (:attr:`FrozenLevel.m_beta`); None
        filters the stored list, as HNSW does everywhere."""
        return None

    def _adjacency(self):
        """The cached CSR snapshot (see :func:`repro.core.search.freeze_graph`)."""
        if self._frozen is None:
            from repro.core.search import assert_frozen, freeze_graph

            frozen = freeze_graph(self.graph, self._level_m_beta)
            assert_frozen(frozen)
            self._frozen = frozen
        return self._frozen

    def freeze(self):
        """Materialize (and cache) the read-only CSR adjacency snapshot.

        The batch engine calls this before fanning a batch across
        threads so every worker shares one snapshot instead of racing to
        build it.  Only the raw CSR is built (and checked against the
        :func:`~repro.core.search.freeze_graph` immutability contract,
        once); each node's candidate row is built by the first walk that
        expands it.  Invalidated by :meth:`add`.
        """
        return self._adjacency()

    def _walk(
        self,
        computer: DistanceComputer,
        query: np.ndarray,
        entry: int,
        ef: int,
        mask: np.ndarray,
        stats: TraversalStats,
    ) -> list[tuple[float, int]]:
        """Greedy ef=1 descent from ``entry`` over the frozen upper
        levels, then the level-0 walk with list size ``ef``; every level
        expands only nodes passing ``mask``."""
        frozen = self._adjacency()
        scratch = thread_scratch(len(self.store))
        best = (computer.distance_one(query, entry), entry)
        stats.visited += 1
        for lev in range(self.graph.node_level(entry), 0, -1):
            best = search_frozen_level(
                computer, query, [best], 1, frozen[lev], mask, scratch,
                stats=stats,
            )[0]
        seeds = self._bottom_seeds(computer, query, [best])
        stats.visited += len(seeds)
        return search_frozen_level(
            computer, query, seeds, ef, frozen[0], mask, scratch,
            stats=stats,
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


class HnswIndex(HnswBase):
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
        super().__init__(dim, metric, LevelGenerator(self.m, seed=seed),
                         self.ef_construction)
        self._all_pass: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

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

    def _link(self, computer, node, found, level):
        """Keep the RNG heuristic's choice of ``found``; every kept
        neighbour takes the reverse edge."""
        selected = select_neighbors_heuristic(computer, found, self.m)
        self.graph.set_neighbors(node, level, [nid for _, nid in selected])
        cap = self.m if level > 0 else self.m_max0
        for _, neighbor in selected:
            self._add_reverse_edge(computer, neighbor, node, level, cap)

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
        selected = select_neighbors_heuristic(computer, candidates, cap)
        self.graph.set_neighbors(owner, level, [nid for _, nid in selected])

    # ------------------------------------------------------------------
    # Search (Algorithm 1)
    # ------------------------------------------------------------------

    def _pass_all(self) -> np.ndarray:
        """The read-only all-true mask: unfiltered search is the frozen
        walk under a predicate everything passes."""
        n = len(self.store)
        if self._all_pass is None or self._all_pass.shape[0] != n:
            all_pass = np.ones(n, dtype=bool)
            all_pass.setflags(write=False)
            self._all_pass = all_pass
        return self._all_pass

    def _candidates(
        self, query: np.ndarray, ef: int, stats: TraversalStats
    ) -> tuple[list[tuple[float, int]], int]:
        computer = self.store.computer()
        computer.defer_counts()
        try:
            query = computer.set_query(query)
            found = self._walk(computer, query, self.graph.entry_point, ef,
                               self._pass_all(), stats)
        finally:
            computer.flush_counts()
        return found, computer.count

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
        stats = TraversalStats()
        found, count = self._candidates(query, max(ef_search, k), stats)
        return SearchResult.from_pairs(
            found[:k], distance_computations=count, hops=stats.hops,
            visited_nodes=stats.visited,
        )

    def search_candidates(
        self, query: np.ndarray, ef_search: int
    ) -> tuple[list[tuple[float, int]], int]:
        """Raw ef-search: (dist, id) candidates plus distance-comp count.

        Exposed for the post-filtering baseline, which over-searches for
        ``K/s`` candidates and filters afterwards (paper §7.2).
        """
        if len(self.graph) == 0:
            return [], 0
        return self._candidates(query, ef_search, TraversalStats())
