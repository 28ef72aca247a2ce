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
from itertools import chain

import numpy as np

from repro.attributes.table import AttributeTable
from repro.core import construction as cons
from repro.core.params import AcornParams, PruningStrategy
from repro.core.search import (
    FrozenLevel,
    compressed_neighbors,
    filtered_neighbors,
)
from repro.core.searcher import Searcher, check_search_args
from repro.hnsw.heuristics import select_neighbors_heuristic
from repro.hnsw.hnsw import HnswBase, SearchResult
from repro.hnsw.levels import LevelGenerator
from repro.hnsw.traversal import TraversalStats
from repro.predicates.base import CompiledPredicate, Predicate
from repro.vectors.distance import DistanceComputer, Metric, exact_top_k


def _insort_edge(
    neighbor_ids: list[int], dists: list[float], neighbor: int, dist: float
) -> None:
    """Insert ``neighbor`` at ``dist`` into a distance-sorted edge list
    (after any equal distance)."""
    pos = bisect.bisect(dists, dist)
    neighbor_ids.insert(pos, neighbor)
    dists.insert(pos, dist)


class AcornIndex(HnswBase, Searcher):
    """ACORN-γ: a predicate-agnostic hybrid-search index.

    HNSW's machinery (:class:`~repro.hnsw.hnsw.HnswBase`) with ACORN's
    edge rules (M·γ candidates, Mβ compression) and a search that walks
    under the predicate mask.

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
    """

    def __init__(
        self,
        dim: int,
        table: AttributeTable,
        params: AcornParams | None = None,
        metric: "Metric | str" = Metric.L2,
        seed: int | np.random.Generator | None = None,
        labels: np.ndarray | None = None,
    ) -> None:
        self.params = p = params if params is not None else AcornParams()
        self.table = table
        level_base = p.max_degree if p.flatten_levels else p.m
        super().__init__(
            dim, metric, LevelGenerator(max(level_base, 2), seed=seed),
            p.effective_ef_construction,
            trunc=p.m if p.truncate_construction else None,
        )
        self._edge_dists: list[dict[int, list[float]]] = []
        self._labels = labels
        if p.pruning is PruningStrategy.RNG_METADATA and labels is None:
            raise ValueError("metadata-aware pruning requires `labels`")
        self.pruning_stats = cons.PruningStats()
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
        if p.pruning is PruningStrategy.NONE:
            self._cap0 = 2 * p.max_degree
        else:
            self._cap0 = p.max_degree

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
    ) -> "AcornIndex":
        """Construct an index over ``vectors`` aligned with ``table`` rows.

        Every vector enters through :meth:`add`, in row order.
        """
        return cls._build(
            vectors, table,
            params=params, metric=metric, seed=seed, labels=labels,
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
        return super().add(vector)

    def _link(self, computer, node, found, level):
        """Keep the nearest M·γ of ``found`` through :meth:`_select_edges`;
        reverse edges land in distance order."""
        # The node under insertion is already registered; seed hooks
        # (flat substrate) could surface it — never self-link.
        candidates = [
            (dist, cand) for dist, cand in found if cand != node
        ][: self.params.max_degree]
        selected = self._select_edges(computer, node, candidates, level)
        self.graph.set_neighbors(node, level, [nid for _, nid in selected])
        edge_dists = self._edge_dists[level]
        edge_dists[node] = [dist for dist, _ in selected]
        # Reverse edges: an owner with room takes the new node in
        # distance order; a full one goes through the shrink.
        adjacency = self.graph.level_adjacency(level)
        cap = self._level_cap(level)
        for dist, neighbor in selected:
            neighbor_ids = adjacency[neighbor]
            if len(neighbor_ids) < cap:
                _insort_edge(neighbor_ids, edge_dists[neighbor], node, dist)
            else:
                self._add_reverse_edge(computer, neighbor, node, dist,
                                       level, fresh=True)

    def _register_node(self, node: int, level: int) -> None:
        self.graph.add_node(node, level)
        while len(self._edge_dists) <= level:
            self._edge_dists.append({})
        for lev in range(level + 1):
            self._edge_dists[lev].setdefault(node, [])

    def _csr_edge_dists(self, level: int, csr: FrozenLevel,
                        dtype=np.float32) -> np.ndarray:
        """``level``'s edge distances in the edge order of its frozen
        ``csr``: float32 (every distance was computed in float32), or
        with ``dtype=object`` the stored float objects themselves."""
        per_node = self._edge_dists[level]
        return np.fromiter(
            chain.from_iterable(per_node[v] for v in csr.node_ids.tolist()),
            dtype=dtype, count=csr.num_edges,
        )

    def _level_cap(self, level: int) -> int:
        """Longest list ``level`` keeps before a reverse edge shrinks it.

        A compressed level above 0 implies pruning, where ``_cap0`` is
        ``max_degree`` too.
        """
        return self._cap0 if level == 0 else self.params.max_degree

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
            return select_neighbors_heuristic(
                computer, candidates, self.params.max_degree,
                stats=self.pruning_stats,
            )
        return cons.prune_rng_metadata(
            computer, candidates, self._labels, node,
            self.params.max_degree, stats=self.pruning_stats,
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

        ``fresh`` promises ``new_neighbor`` is not in ``owner``'s list,
        which skips the O(degree) membership scan: the running ``add()``
        just registered it, or a fold's repair
        (:func:`repro.core.maintenance.fold`) drew it from a pool that
        excludes the owner's list.
        """
        neighbor_ids = self.graph.neighbors(owner, level)
        dists = self._edge_dists[level][owner]
        if not fresh and new_neighbor in neighbor_ids:
            return
        _insort_edge(neighbor_ids, dists, new_neighbor, dist)
        if len(neighbor_ids) <= self._level_cap(level):
            return
        if not self._is_compressed(level):
            neighbor_ids.pop()
            dists.pop()
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

    def freeze(self) -> list[FrozenLevel]:
        """The base's :meth:`~repro.hnsw.hnsw.HnswBase.freeze`, restated:
        the traced benchmark wraps ``build``, ``freeze`` and ``search``
        through this class's own ``__dict__``
        (``tests/test_tracer_contract.py``)."""
        return self._adjacency()

    def _level_m_beta(self, level: int) -> int | None:
        """The lookup of ``level`` (:attr:`FrozenLevel.m_beta`).

        Uncompressed levels filter their stored (M·γ-wide) lists; the
        compressed levels expand past Mβ to recover pruned edges.
        """
        return self.params.m_beta if self._is_compressed(level) else None

    def _neighbor_fn(self, level: int, mask: np.ndarray):
        """``level``'s lookup as a per-node function (Figure 4a/4b/4c).

        The definition the frozen kernel's rows are tested against; the
        graph-quality statistics read it too.
        """
        adjacency = self._adjacency()[level]
        m_beta = adjacency.m_beta
        if m_beta is None:
            return lambda c: filtered_neighbors(adjacency, c, mask)
        return lambda c: compressed_neighbors(adjacency, c, mask, m_beta)

    def search(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        ef_search: int = 64,
        entry_point: int | None = None,
    ) -> SearchResult:
        """Hybrid search: K nearest neighbors passing ``predicate``.

        Implements the two-stage traversal of §6.3.2 — filtering-only
        descent from the fixed entry point until the predicate subgraph
        is reached, then best-first traversal of the subgraph with the
        dynamic list ``ef_search``.

        A passing set small enough for :meth:`scans` is ranked exactly,
        not walked (DESIGN.md §7, deviation 5): the exact top-k,
        ``hops = 0``.

        Args:
            entry_point: start node override (defaults to the index's
                fixed entry point; used by the entry-point ablation).
                An explicit entry point always walks.
        """
        check_search_args(k, ef_search)
        compiled = self._compile(predicate)
        if len(self.graph) == 0:
            return SearchResult.empty()
        n = len(self.store)
        if entry_point is not None and not 0 <= entry_point < n:
            raise ValueError(
                f"entry_point must be a node id in [0, {n}), "
                f"got {entry_point!r}"
            )
        computer = self.store.computer()
        computer.defer_counts()
        try:
            query = computer.set_query(query)
            mask = self._effective_mask(compiled.mask)
            if entry_point is None:
                if mask is compiled.mask and mask.shape[0] == n:
                    # The compiled set itself: counted once, and the
                    # predicate's cardinality reads this same array.
                    passing = compiled.passing_ids
                else:  # tombstones, or spare table rows with no vector
                    passing = np.flatnonzero(mask[:n])
                if self.scans(passing.size, k, ef_search):
                    ids, dists = exact_top_k(computer, query, passing, k)
                    return SearchResult(
                        ids=ids, distances=dists, visited_nodes=passing.size,
                        distance_computations=passing.size)
                entry_point = self.graph.entry_point

            tstats = TraversalStats()
            found = self._walk(computer, query, entry_point,
                               max(ef_search, k), mask, tstats)
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

    def scans(self, count: int, k: int, ef_search: int) -> bool:
        """Whether :meth:`search` ranks ``count`` passing rows exactly.

        ``count`` counts live stored rows.  The scan runs when the walk
        would visit about as many rows anyway (``max(ef_search, k) ·
        M / 2``), when the set is below the paper's §5.2 threshold,
        ``s_min · n_live`` with ``n_live`` stored rows minus tombstones,
        or when the walk would reach every live row: about
        ``max(ef_search, k)`` pops each read up to Mβ direct neighbours,
        so ``n_live ≤ max(ef_search, k) · Mβ`` makes it exhaustive
        whatever the selectivity.  The last two need γ > 1: ACORN-1's
        γ = 1 would scan every query, and its Mβ is M.
        """
        width = max(ef_search, k)
        if count <= width * self.params.m // 2:
            return True
        gamma = self.params.gamma
        if gamma == 1:
            return False
        n_live = len(self.store) - len(self._deleted)
        return count * gamma <= n_live or n_live <= width * self.params.m_beta

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
    ) -> None:
        super().__init__(
            dim,
            table,
            params=AcornParams.acorn_1(m=m, ef_construction=ef_construction),
            metric=metric,
            seed=seed,
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
    ) -> "AcornOneIndex":
        """Construct an ACORN-1 index over ``vectors``."""
        return cls._build(
            vectors, table,
            m=m, ef_construction=ef_construction, metric=metric, seed=seed,
        )

    def _level_m_beta(self, level: int) -> int:
        """ACORN-1 expands every stored entry on every level (Fig 4c)."""
        return 0
