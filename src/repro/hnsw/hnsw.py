"""The HNSW index (Malkov & Yashunin), built from scratch.

Serves three roles in the reproduction: the unfiltered-ANN baseline that
post-filtering wraps, the per-predicate index of the oracle partition
method (paper §4), and the reference construction ACORN's indices are
diffed against in tests and Figure 12.
"""

from __future__ import annotations

import numpy as np

from repro.core.quantsearch import exact_top_k, reranked_result
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
from repro.vectors.quantized_store import (
    QuantizedComputer,
    QuantizedStore,
    resolve_quantization,
)
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
        quantization: None (default, float32 search), a codec kind
            (``"sq8"``/``"pq"``), or a
            :class:`~repro.vectors.quantized_store.QuantizationConfig`.
            When set, bottom-level search ranks candidates by quantized
            distances and re-scores a ``rerank_factor * k`` tail
            exactly (see ``docs/quantization.md``).
    """

    def __init__(
        self,
        dim: int,
        m: int = 16,
        ef_construction: int = 40,
        metric: "Metric | str" = Metric.L2,
        seed: int | np.random.Generator | None = None,
        quantization=None,
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
        self.quantization = resolve_quantization(quantization)
        self._quant: QuantizedStore | None = None

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
        quantization=None,
    ) -> "HnswIndex":
        """Construct an index over ``vectors`` (n, d) in insertion order.

        Every vector enters through :meth:`add`.

        Args:
            quantization: forwarded to the constructor.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        index = cls(vectors.shape[1], m=m, ef_construction=ef_construction,
                    metric=metric, seed=seed, quantization=quantization)
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
        ids = np.asarray(neighbor_ids, dtype=np.intp)
        dists = computer.distances_to(computer.base[owner], ids)
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
            from repro.core.search import freeze_graph

            all_pass = np.ones(len(self.store), dtype=bool)
            all_pass.setflags(write=False)
            self._all_pass = all_pass
            self._frozen = freeze_graph(self.graph)
        return self._frozen

    def freeze(self):
        """Materialize (and cache) the read-only CSR adjacency snapshot.

        The batch engine calls this before fanning a batch across
        threads so every worker shares one immutable snapshot.
        Invalidated by :meth:`add`.
        """
        from repro.core.search import assert_frozen

        frozen = self._adjacency()
        assert_frozen(frozen)
        return frozen

    # ------------------------------------------------------------------
    # Quantization
    # ------------------------------------------------------------------

    def enable_quantization(self, config="sq8") -> None:
        """Activate (or with None, deactivate) the quantized hot path.

        Trains the codec on the currently stored vectors; later inserts
        are encoded with the frozen codec at the next search.
        """
        self.quantization = resolve_quantization(config)
        self._quant = None
        if self.quantization is not None and len(self.store):
            self._quant_store()

    def _quant_store(self) -> QuantizedStore | None:
        """The code mirror, trained lazily and synced to the store."""
        if self.quantization is None or len(self.store) == 0:
            return None
        if self._quant is None:
            qs = QuantizedStore(self.quantization, self.metric)
            qs.train(self.store.vectors)
            self._quant = qs
        self._quant.sync(self.store)
        return self._quant

    def search(self, query: np.ndarray, k: int, ef_search: int = 64) -> SearchResult:
        """K-nearest-neighbor search (paper Algorithm 1).

        Args:
            query: query vector of dimension ``dim``.
            k: number of neighbors to return.
            ef_search: dynamic candidate-list size on level 0 (efs);
                effective value is ``max(ef_search, k)``.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if len(self.graph) == 0:
            return SearchResult.empty()
        computer = self.store.computer()
        qstore = self._quant_store()
        qcomp = None if qstore is None else qstore.computer()
        computer.defer_counts()
        try:
            query = computer.set_query(query)
            tstats = TraversalStats()
            found = self._search_candidates(
                computer, query, max(ef_search, k), tstats, qcomp,
            )
            if qcomp is None:
                return SearchResult.from_pairs(
                    found[:k], distance_computations=computer.count,
                    hops=tstats.hops, visited_nodes=tstats.visited,
                )
            return reranked_result(
                computer, qcomp, query, [nid for _, nid in found], k,
                self.quantization.rerank_factor, tstats)
        finally:
            computer.flush_counts()

    def search_candidates(
        self, query: np.ndarray, ef_search: int
    ) -> tuple[list[tuple[float, int]], int]:
        """Raw ef-search: (dist, id) candidates plus distance-comp count.

        Exposed for the post-filtering baseline, which over-searches for
        ``K/s`` candidates and filters afterwards (paper §7.2).  On the
        quantized path every candidate is re-scored exactly (a full
        rerank) so downstream filtering still sees float32 distances.
        """
        if len(self.graph) == 0:
            return [], 0
        computer = self.store.computer()
        qstore = self._quant_store()
        qcomp = None if qstore is None else qstore.computer()
        computer.defer_counts()
        try:
            query = computer.set_query(query)
            found = self._search_candidates(
                computer, query, ef_search, TraversalStats(), qcomp,
            )
            if qcomp is not None:
                ids = np.asarray([nid for _, nid in found], dtype=np.intp)
                ids, dists = exact_top_k(computer, query, ids, len(ids))
                found = list(zip(dists.tolist(), ids.tolist()))
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
                computer, query, [best], 1, frozen[lev].indptr,
                frozen[lev].indices, self._all_pass, scratch, stats=stats,
            )[0]
        return best

    def _search_candidates(
        self,
        computer: DistanceComputer,
        query: np.ndarray,
        ef: int,
        stats: TraversalStats,
        qcomp: QuantizedComputer | None = None,
    ) -> list[tuple[float, int]]:
        """Float32 descent, then the level-0 walk.

        Level 0 is ranked by ``qcomp`` on a quantized index (its
        distances are quantized; the exact rerank is the caller's) and
        by ``computer`` otherwise — one walk, two distance providers.
        """
        best = self._descend(computer, query, stats)
        stats.visited += 1
        ranker = computer
        if qcomp is not None:
            ranker = qcomp
            seed = np.asarray([best[1]], dtype=np.intp)
            best = (float(qcomp.distances_to(query, seed)[0]), best[1])
        level0 = self._adjacency()[0]
        return search_frozen_level(
            ranker, query, [best], ef, level0.indptr, level0.indices,
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
