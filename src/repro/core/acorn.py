"""The ACORN-γ and ACORN-1 indices (paper §5).

Both are HNSW-shaped hierarchical graphs whose search traverses the
*predicate subgraph* — the subgraph induced by entities passing the
query predicate — to emulate a per-predicate oracle partition that is
never actually built.

``AcornIndex`` (ACORN-γ) densifies the graph during construction:
each node collects M·γ candidate edges, levels ≥ 1 store all of them,
and level 0 is compressed with the predicate-agnostic Mβ pruning rule.
``AcornOneIndex`` (ACORN-1) builds a plain unpruned HNSW (γ=1, Mβ=M)
and recovers density at search time via full 2-hop expansion.
"""

from __future__ import annotations

import bisect
import threading

import numpy as np

from repro.attributes.table import AttributeTable
from repro.core import construction as cons
from repro.core.params import AcornParams, PruningStrategy
from repro.core.quantsearch import exact_top_k, reranked_result
from repro.core.search import (
    FrozenLevel,
    assert_frozen,
    attach_expansion,
    compressed_neighbors,
    expanded_neighbors,
    filtered_neighbors,
    freeze_graph,
)
from repro.engine.batching import BatchSearchMixin
from repro.hnsw.graph import LayeredGraph
from repro.hnsw.hnsw import SearchResult
from repro.hnsw.levels import LevelGenerator
from repro.hnsw.scratch import thread_scratch
from repro.hnsw.traversal import (
    TraversalStats,
    search_frozen_level,
    search_layer,
    search_live_level,
)
from repro.predicates.base import CompiledPredicate, Predicate
from repro.vectors.distance import DistanceComputer, Metric
from repro.vectors.quantized_store import (
    QuantizedStore,
    resolve_quantization,
)
from repro.vectors.store import VectorStore


class AcornIndex(BatchSearchMixin):
    """ACORN-γ: a predicate-agnostic hybrid-search index.

    Args:
        dim: vector dimensionality.
        table: structured attributes of the (eventual) entities; used to
            compile query predicates into masks.  Entity ``i`` of the
            table corresponds to node id ``i`` — vectors must be added
            in table-row order.
        params: construction parameters (M, γ, Mβ, efc, pruning rule).
        metric: distance metric.
        seed: level-assignment seed.
        labels: single-attribute integer labels, required only by the
            metadata-aware RNG pruning ablation (Figure 12).
        quantization: None (default, float32 search), a codec kind
            (``"sq8"``/``"pq"``), or a
            :class:`~repro.vectors.quantized_store.QuantizationConfig`.
            When set, the bottom-level traversal ranks candidates by
            quantized distances and an exact float32 tail re-scores
            ``rerank_factor * k`` of them (``docs/quantization.md``).
    """

    def __init__(
        self,
        dim: int,
        table: AttributeTable,
        params: AcornParams | None = None,
        metric: "Metric | str" = Metric.L2,
        seed: int | np.random.Generator | None = None,
        labels: np.ndarray | None = None,
        quantization=None,
    ) -> None:
        self.params = params if params is not None else AcornParams()
        self.table = table
        self.store = VectorStore(dim, metric=metric)
        self.graph = LayeredGraph()
        level_base = (
            self.params.max_degree
            if self.params.flatten_levels
            else self.params.m
        )
        self._levels = LevelGenerator(max(level_base, 2), seed=seed)
        self._edge_dists: list[dict[int, list[float]]] = []
        self._labels = labels
        if self.params.pruning is PruningStrategy.RNG_METADATA and labels is None:
            raise ValueError("metadata-aware pruning requires `labels`")
        self.pruning_stats = cons.PruningStats()
        self._frozen: list[FrozenLevel] | None = None
        self.quantization = resolve_quantization(quantization)
        self._quant: QuantizedStore | None = None
        self._deleted: set[int] = set()
        # Tombstone-composed predicate masks, keyed on (mask identity,
        # deleted-set version); see _effective_mask.
        self._deleted_version = 0
        self._mask_cache: dict[int, tuple[np.ndarray, int, np.ndarray]] = {}
        self._mask_cache_lock = threading.Lock()
        # Level-0 shrink triggers: pruned indexes re-prune once a list
        # outgrows M·γ (the pruning rule's own |H| + kept budget); an
        # unpruned one keeps nearest up to 2·M·γ (mirroring HNSW's 2M
        # with γ=1).  Tighter caps would break the search-time 2-hop
        # recovery, which needs list entries past Mβ to expand.
        p = self.params
        if p.pruning is PruningStrategy.NONE:
            self._cap0 = 2 * p.max_degree
        else:
            self._cap0 = p.max_degree

    def __len__(self) -> int:
        return len(self.store)

    @property
    def metric(self) -> Metric:
        """The configured distance metric."""
        return self.store.metric

    # ------------------------------------------------------------------
    # Construction (paper §5.2)
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        table: AttributeTable,
        params: AcornParams | None = None,
        metric: "Metric | str" = Metric.L2,
        seed: int | np.random.Generator | None = None,
        labels: np.ndarray | None = None,
        quantization=None,
    ) -> "AcornIndex":
        """Construct an index over ``vectors`` aligned with ``table`` rows.

        Every vector enters through :meth:`add`, in row order.

        Args:
            quantization: forwarded to the constructor.
        """
        return cls._build(
            vectors, table,
            params=params, metric=metric, seed=seed, labels=labels,
            quantization=quantization,
        )

    @classmethod
    def _build(cls, vectors, table, **init_kwargs):
        """Validate, construct ``cls(dim, table, **init_kwargs)``, insert all.

        The one bulk entry every variant's ``build`` goes through.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if len(table) < vectors.shape[0]:
            # A larger table is allowed: extra rows serve later inserts.
            raise ValueError(
                f"table has {len(table)} rows but got {vectors.shape[0]} vectors"
            )
        index = cls(vectors.shape[1], table, **init_kwargs)
        for vector in vectors:
            index.add(vector)
        return index

    def add(self, vector: np.ndarray) -> int:
        """Insert one vector; returns its node id (== its table row)."""
        # Capacity before the store grows: a refused insert must leave
        # the index exactly as it found it.
        if len(self.store) >= len(self.table):
            raise ValueError(
                f"node {len(self.store)} has no attribute row "
                f"(table has {len(self.table)})"
            )
        node = self.store.add(vector)
        self._frozen = None
        trunc = self.params.m if self.params.truncate_construction else None
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

            # Greedy descent above the node's level, truncated-M lookups.
            for lev in range(top, level, -1):
                best = self._greedy_step(computer, query, best, lev)

            self._register_node(node, level)
            ef_cand = self.params.effective_ef_construction
            scratch = thread_scratch(len(self.store))
            entry_points = [best]
            for lev in range(min(level, top), -1, -1):
                if lev == 0:
                    entry_points = self._bottom_seeds(computer, query,
                                                      entry_points)
                found = search_live_level(
                    computer, query, entry_points, ef_cand,
                    self.graph.level_adjacency(lev), scratch, trunc=trunc,
                )
                # The node under insertion is already registered; seed
                # hooks (flat substrate) could surface it — never
                # self-link.
                candidates = [
                    (dist, cand) for dist, cand in found if cand != node
                ][: self.params.max_degree]
                selected = self._select_edges(computer, node, candidates, lev)
                self.graph.set_neighbors(node, lev, [nid for _, nid in selected])
                self._edge_dists[lev][node] = [dist for dist, _ in selected]
                for dist, neighbor in selected:
                    self._add_reverse_edge(computer, neighbor, node, dist, lev,
                                           fresh=True)
                entry_points = found

            if level > top:
                self.graph.entry_point = node
        finally:
            computer.flush_counts()
        return node

    def _register_node(self, node: int, level: int) -> None:
        self.graph.add_node(node, level)
        while len(self._edge_dists) <= level:
            self._edge_dists.append({})
        for lev in range(level + 1):
            self._edge_dists[lev].setdefault(node, [])

    def _greedy_step(
        self,
        computer: DistanceComputer,
        query: np.ndarray,
        best: tuple[float, int],
        level: int,
    ) -> tuple[float, int]:
        trunc = self.params.m if self.params.truncate_construction else None
        return search_live_level(
            computer, query, [best], 1, self.graph.level_adjacency(level),
            thread_scratch(len(self.store)), trunc=trunc,
        )[0]

    def _is_compressed(self, level: int) -> bool:
        """Whether ``level`` stores pruned lists (bottom-up nc levels)."""
        return (
            level < self.params.compressed_levels
            and self.params.pruning is not PruningStrategy.NONE
        )

    def _select_edges(
        self,
        computer: DistanceComputer,
        node: int,
        candidates: list[tuple[float, int]],
        level: int,
    ) -> list[tuple[float, int]]:
        """Choose the final edge list from the M·γ nearest candidates.

        Uncompressed levels keep every candidate (the expanded lists are
        the whole point); compressed levels — the bottom ``nc`` levels,
        per §6.1's generalization — apply the configured pruning rule.
        """
        if not self._is_compressed(level):
            return candidates
        pruning = self.params.pruning
        if pruning is PruningStrategy.ACORN:
            return cons.prune_predicate_agnostic(
                candidates, self.graph, level=level,
                m_beta=self.params.m_beta,
                max_degree=self.params.max_degree,
                stats=self.pruning_stats,
            )
        if pruning is PruningStrategy.RNG_BLIND:
            return cons.prune_rng_blind(
                candidates, computer.base, self.params.max_degree,
                metric=self.metric, stats=self.pruning_stats,
            )
        return cons.prune_rng_metadata(
            candidates, computer.base, self._labels, node,
            self.params.max_degree, metric=self.metric,
            stats=self.pruning_stats,
        )

    def _add_reverse_edge(
        self,
        computer: DistanceComputer,
        owner: int,
        new_neighbor: int,
        dist: float,
        level: int,
        fresh: bool = False,
    ) -> None:
        """Insert ``owner -> new_neighbor`` in distance order; shrink on overflow.

        ``fresh`` promises ``new_neighbor`` was registered by the running
        ``add()`` and so cannot be in any list yet, which skips the
        O(degree) membership scan; a fold's repair
        (:func:`repro.core.maintenance.fold`) re-links existing nodes
        and leaves it False.
        """
        neighbor_ids = self.graph.neighbors(owner, level)
        dists = self._edge_dists[level][owner]
        if not fresh and new_neighbor in neighbor_ids:
            return
        pos = bisect.bisect(dists, dist)
        neighbor_ids.insert(pos, new_neighbor)
        dists.insert(pos, dist)

        if not self._is_compressed(level):
            cap = self._cap0 if level == 0 else self.params.max_degree
            if len(neighbor_ids) > cap:
                neighbor_ids.pop()
                dists.pop()
            return
        if len(neighbor_ids) <= self._cap0:
            return
        candidates = list(zip(dists, neighbor_ids))
        selected = self._select_edges(computer, owner, candidates, level=level)
        # The pruning rule's |H|+kept budget does not bind while the
        # two-hop sets are still small (early construction), so enforce
        # the cap explicitly — minus an M-wide low-watermark so a full
        # list buys M insertions of headroom before re-pruning (without
        # it, a list parked at the cap re-prunes on every insert).
        selected = selected[: max(self._cap0 - self.params.m, 1)]
        self.graph.set_neighbors(owner, level, [nid for _, nid in selected])
        self._edge_dists[level][owner] = [d for d, _ in selected]

    # ------------------------------------------------------------------
    # Search (paper §5.1, Algorithm 2)
    # ------------------------------------------------------------------

    def _adjacency(self) -> list[FrozenLevel]:
        if self._frozen is None:
            frozen = freeze_graph(self.graph)
            self._attach_expansions(frozen)
            self._frozen = frozen
        return self._frozen

    def _attach_expansions(self, frozen: list[FrozenLevel]) -> None:
        """Materialize compressed-level expansion lists on the snapshot.

        Done while the snapshot is built (before it is published to
        ``_frozen``), so engine workers only ever read a complete one.
        Levels whose expansion would blow the size bound keep the
        dynamic per-hop lookup (see
        :func:`~repro.core.search.attach_expansion`).
        """
        for level in range(len(frozen)):
            if self._is_compressed(level):
                attach_expansion(frozen[level], self.params.m_beta)

    def freeze(self) -> list[FrozenLevel]:
        """Materialize (and cache) the read-only adjacency snapshot.

        The batch engine calls this before fanning a batch across
        threads so every worker shares one immutable snapshot instead of
        racing to build it.  The snapshot honours the
        :func:`~repro.core.search.freeze_graph` immutability contract
        (verified here); it is invalidated by :meth:`add`.
        """
        frozen = self._adjacency()
        assert_frozen(frozen)
        return frozen

    def _neighbor_fn(self, level: int, mask: np.ndarray):
        """The per-level neighbor-lookup strategy for ACORN-γ.

        Uncompressed levels use the filter strategy over the stored
        (M·γ-wide) lists; the compressed level 0 uses the 2-hop
        expansion lookup that recovers pruned edges.
        """
        adjacency = self._adjacency()[level]
        if self._is_compressed(level):
            m_beta = self.params.m_beta
            return lambda c: compressed_neighbors(adjacency, c, mask, m_beta)
        return lambda c: filtered_neighbors(adjacency, c, mask)

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

    def _level_csr(self, level: int) -> tuple[np.ndarray, np.ndarray] | None:
        """The candidate CSR the frozen kernels walk on ``level``.

        The one place a level's lookup is decided: ``(indptr, indices)``
        of the raw adjacency for the filter strategy, of the
        materialized expansion lists for the compressed lookup — or
        None when that expansion blew ``attach_expansion``'s budget and
        only the per-node :meth:`_neighbor_fn` lookup remains.
        """
        frozen = self._adjacency()[level]
        if self._is_compressed(level):
            return frozen._expansions.get(self.params.m_beta)
        return frozen.indptr, frozen.indices

    def _search_level(
        self,
        computer: DistanceComputer,
        query: np.ndarray,
        seeds: list[tuple[float, int]],
        ef: int,
        level: int,
        mask: np.ndarray,
        stats: TraversalStats,
        monitor=None,
    ) -> list[tuple[float, int]]:
        """One level of a frozen search, in a fresh visited scope.

        ``computer`` is the distance provider that ranks the walk: the
        exact computer, or a quantized index's
        :class:`~repro.vectors.quantized_store.QuantizedComputer` on
        level 0 (:meth:`_search_bottom_quantized`).
        """
        scratch = thread_scratch(len(self.store))
        csr = self._level_csr(level)
        if csr is not None:
            return search_frozen_level(
                computer, query, seeds, ef, csr[0], csr[1], mask, scratch,
                stats=stats, monitor=monitor,
            )
        scratch.begin(len(self.store))
        for _, seed_node in seeds:
            scratch.mark(seed_node)
        return search_layer(
            computer, query, seeds, ef=ef,
            neighbor_fn=self._neighbor_fn(level, mask), scratch=scratch,
            stats=stats, monitor=monitor,
        )

    def search(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        ef_search: int = 64,
        entry_point: int | None = None,
        monitor=None,
    ) -> SearchResult:
        """Hybrid search: K nearest neighbors passing ``predicate``.

        Implements the two-stage traversal of §6.3.2 — filtering-only
        descent from the fixed entry point until the predicate subgraph
        is reached, then best-first traversal of the subgraph with the
        dynamic list ``ef_search``.

        At most ``max(ef_search, k) · M / 2`` passing rows are scanned,
        not walked (DESIGN.md §7, deviation 5): the exact top-k, ``hops = 0``.

        Args:
            entry_point: start node override (defaults to the index's
                fixed entry point; used by the entry-point ablation).
                An explicit entry point always walks.
            monitor: optional walk-budget hook for the bottom-level
                traversal (see :class:`repro.routing.monitor.WalkMonitor`
                and the adaptive planner's fallback); None keeps the
                default search path untouched.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        compiled = self._compile(predicate)
        if len(self.graph) == 0:
            return SearchResult.empty()
        entry = self.graph.entry_point if entry_point is None else entry_point
        if not 0 <= entry < len(self.store):
            raise ValueError(
                f"entry_point must be a node id in [0, {len(self.store)}), "
                f"got {entry_point!r}"
            )
        computer = self.store.computer()
        qstore = self._quant_store()
        computer.defer_counts()
        try:
            query = computer.set_query(query)
            mask = self._effective_mask(compiled.mask)
            if entry_point is None:  # spare table rows have no vector
                passing = np.flatnonzero(mask[: len(self.store)])
                if passing.size <= max(ef_search, k) * self.params.m // 2:
                    ids, dists = exact_top_k(computer, query, passing, k)
                    return SearchResult(
                        ids=ids, distances=dists, visited_nodes=passing.size,
                        distance_computations=passing.size)

            tstats = TraversalStats()
            best = (computer.distance_one(query, entry), entry)
            tstats.visited += 1
            for lev in range(self.graph.node_level(entry), 0, -1):
                best = self._search_level(
                    computer, query, [best], 1, lev, mask, tstats,
                )[0]

            entry_points = self._bottom_seeds(computer, query, [best])
            tstats.visited += len(entry_points)
            if qstore is not None:
                return self._search_bottom_quantized(
                    computer, qstore, query, mask, entry_points, k,
                    max(ef_search, k), tstats, monitor,
                )
            found = self._search_level(
                computer, query, entry_points, max(ef_search, k), 0, mask,
                tstats, monitor,
            )
        finally:
            computer.flush_counts()
        # Seeds may fail the predicate (the fixed entry point need not
        # pass); every expanded node passed the filter, so one final
        # mask application yields the hybrid result set.
        passing = [(dist, nid) for dist, nid in found if mask[nid]][:k]
        return SearchResult.from_pairs(
            passing,
            distance_computations=computer.count,
            hops=tstats.hops,
            visited_nodes=tstats.visited,
        )

    def _search_bottom_quantized(
        self,
        computer: DistanceComputer,
        qstore: QuantizedStore,
        query: np.ndarray,
        mask: np.ndarray,
        entry_points: list[tuple[float, int]],
        k: int,
        ef: int,
        tstats: TraversalStats,
        monitor,
    ) -> SearchResult:
        """Level 0 ranked by codes, then the exact rerank tail.

        The descent already ran in float32 (few, high-leverage
        distances); level 0 — where nearly all evaluations happen — is
        the float path's own :meth:`_search_level` walk with the
        quantized computer as its distance provider.
        """
        qcomp = qstore.computer()
        seed_ids = np.asarray([nid for _, nid in entry_points], dtype=np.intp)
        seeds = list(zip(qcomp.distances_to(query, seed_ids).tolist(),
                         seed_ids.tolist()))
        found = self._search_level(qcomp, query, seeds, ef, 0, mask, tstats,
                                   monitor)
        # Seeds may fail the predicate; everything else was
        # mask-filtered before scoring.
        passing = [nid for _, nid in found if mask[nid]]
        return reranked_result(computer, qcomp, query, passing, k,
                               self.quantization.rerank_factor, tstats)

    def _effective_mask(self, mask: np.ndarray) -> np.ndarray:
        """The predicate mask with tombstones composed in, cached.

        Tombstones compose with the predicate: a deleted entity simply
        never passes, exactly like a failing attribute.  The composed
        mask is cached keyed on (mask identity, deleted-set version), so
        a batch reusing one compiled predicate pays the O(N) copy once
        instead of per query.  Entries pin the source mask object, so an
        ``id`` can never be recycled while its entry is live.
        """
        if not self._deleted:
            return mask
        key = id(mask)
        version = self._deleted_version
        with self._mask_cache_lock:
            hit = self._mask_cache.get(key)
            if (hit is not None and hit[0] is mask and hit[1] == version):
                return hit[2]
            composed = mask.copy()
            composed[list(self._deleted)] = False
            composed.setflags(write=False)
            if len(self._mask_cache) >= 8:
                self._mask_cache.pop(next(iter(self._mask_cache)))
            self._mask_cache[key] = (mask, version, composed)
            return composed

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

    # ``search_batch`` comes from BatchSearchMixin: batches run through
    # repro.engine (predicate-mask caching, optional thread fan-out,
    # per-query QueryStats) and return list[SearchResult] as before.

    def _compile(self, predicate: "Predicate | CompiledPredicate") -> CompiledPredicate:
        if isinstance(predicate, CompiledPredicate):
            if len(predicate) != len(self.table):
                raise ValueError(
                    f"compiled predicate covers {len(predicate)} entities, "
                    f"table has {len(self.table)}"
                )
            return predicate
        return predicate.compile(self.table)

    # ------------------------------------------------------------------
    # Deletion (tombstones)
    # ------------------------------------------------------------------

    def mark_deleted(self, node_id: int) -> None:
        """Tombstone an entity: it disappears from all search results.

        The node's edges remain in the graph (it can still relay
        traversal through its 2-hop expansions), mirroring how
        production graph indexes handle deletes without a rebuild.
        Heavy delete fractions should trigger a rebuild.
        """
        if not 0 <= node_id < len(self.store):
            raise IndexError(f"node {node_id} out of range [0, {len(self.store)})")
        self._deleted.add(node_id)
        self._deleted_version += 1

    def unmark_deleted(self, node_id: int) -> None:
        """Remove a tombstone (no-op if the node is not deleted)."""
        self._deleted.discard(node_id)
        self._deleted_version += 1

    def is_deleted(self, node_id: int) -> bool:
        """Whether ``node_id`` is tombstoned."""
        return node_id in self._deleted

    @property
    def num_deleted(self) -> int:
        """Number of tombstoned entities."""
        return len(self._deleted)

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

    def stats(self) -> dict:
        """A structured summary of the built index.

        Returns a dict with size, level populations/degrees, parameter
        values, and pruning counters — what an operator would log after
        a build.
        """
        graph = self.graph
        return {
            "num_vectors": len(self.store),
            "num_deleted": self.num_deleted,
            "dim": self.store.dim,
            "metric": self.metric.value,
            "levels": graph.max_level + 1,
            "level_population": [
                graph.num_nodes_at_level(lev)
                for lev in range(graph.max_level + 1)
            ],
            "avg_out_degree": self.out_degree_by_level(),
            "nbytes": self.nbytes(),
            "quantization": (self.quantization.kind
                             if self.quantization is not None else None),
            "params": {
                "m": self.params.m,
                "gamma": self.params.gamma,
                "m_beta": self.params.m_beta,
                "ef_construction": self.params.ef_construction,
                "pruning": self.params.pruning.value,
                "compressed_levels": self.params.compressed_levels,
                "s_min": self.params.s_min,
            },
            "pruning": {
                "nodes_pruned": self.pruning_stats.nodes_pruned,
                "candidates_dropped": self.pruning_stats.candidates_dropped,
            },
        }


class AcornOneIndex(AcornIndex):
    """ACORN-1: HNSW-without-pruning construction, 2-hop search (§5.3).

    Construction fixes γ = 1 and Mβ = M — each node keeps its M nearest
    candidates per level, no RNG pruning — minimizing TTI and index
    size.  Search approximates ACORN-γ's dense lists by expanding every
    visited node's full one-hop + two-hop neighborhood before filtering
    and truncating to M (Figure 4c).
    """

    def __init__(
        self,
        dim: int,
        table: AttributeTable,
        m: int = 32,
        ef_construction: int = 40,
        metric: "Metric | str" = Metric.L2,
        seed: int | np.random.Generator | None = None,
        quantization=None,
    ) -> None:
        super().__init__(
            dim,
            table,
            params=AcornParams.acorn_1(m=m, ef_construction=ef_construction),
            metric=metric,
            seed=seed,
            quantization=quantization,
        )

    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        table: AttributeTable,
        m: int = 32,
        ef_construction: int = 40,
        metric: "Metric | str" = Metric.L2,
        seed: int | np.random.Generator | None = None,
        quantization=None,
    ) -> "AcornOneIndex":
        """Construct an ACORN-1 index over ``vectors``."""
        return cls._build(
            vectors, table,
            m=m, ef_construction=ef_construction, metric=metric, seed=seed,
            quantization=quantization,
        )

    def _attach_expansions(self, frozen: list[FrozenLevel]) -> None:
        """ACORN-1 expands every stored entry, i.e. ``m_beta = 0``.

        Its unpruned 2-hop sets usually exceed the materialization
        bound, in which case level 0 keeps the dynamic lookup.
        """
        if frozen:
            attach_expansion(frozen[0], 0)

    def _neighbor_fn(self, level: int, mask: np.ndarray):
        adjacency = self._adjacency()[level]
        return lambda c: expanded_neighbors(adjacency, c, mask)

    def _level_csr(self, level: int) -> tuple[np.ndarray, np.ndarray] | None:
        """ACORN-1's 2-hop lookup: the ``m_beta = 0`` expansion CSR.

        Only level 0 ever carries one, and only when the unpruned 2-hop
        lists fit the materialization bound; every other level falls
        back to the dynamic per-node expansion.
        """
        return self._adjacency()[level]._expansions.get(0)
