"""The pre-CSR dict-of-arrays search kernel, kept as a reference.

Before the CSR flattening (:mod:`repro.core.search`), frozen adjacency
was a ``dict[int, np.ndarray]`` per level and every strategy walked
neighbor entries in Python.  That kernel lives on here, verbatim, for
one job: ``tests/core/test_csr_equivalence.py`` asserts the CSR kernel
returns byte-identical results (ids, distances, distance-computation
counts, hop/visited counters) for every index type and strategy.

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np

from repro.hnsw.graph import LayeredGraph
from repro.hnsw.traversal import TraversalStats
from repro.vectors.distance import DistanceComputer

FrozenLevelDict = dict[int, np.ndarray]


def freeze_graph_dict(graph: LayeredGraph) -> list[FrozenLevelDict]:
    """Snapshot each level's adjacency as read-only int64 arrays."""
    frozen: list[FrozenLevelDict] = []
    for level in range(graph.max_level + 1):
        level_adjacency: FrozenLevelDict = {}
        for node in graph.nodes_at_level(level):
            arr = np.asarray(graph.neighbors(node, level), dtype=np.int64)
            arr.setflags(write=False)
            level_adjacency[node] = arr
        frozen.append(level_adjacency)
    return frozen


def filtered_neighbors_dict(
    adjacency: FrozenLevelDict, node: int, mask: np.ndarray
) -> list[int]:
    """Filter strategy (Fig 4a) over the dict layout."""
    neighbor_ids = adjacency[node]
    if neighbor_ids.size == 0:
        return []
    return neighbor_ids[mask[neighbor_ids]].tolist()


def compressed_neighbors_dict(
    adjacency: FrozenLevelDict,
    node: int,
    mask: np.ndarray,
    m_beta: int,
) -> list[int]:
    """Compression strategy (Fig 4b) over the dict layout."""
    neighbor_ids = adjacency[node]
    if neighbor_ids.size == 0:
        return []
    head = neighbor_ids[:m_beta]
    out = head[mask[head]].tolist()
    seen = set(out)
    for hop in neighbor_ids[m_beta:].tolist():
        if mask[hop] and hop not in seen:
            seen.add(hop)
            out.append(hop)
        two_hop = adjacency[hop]
        if two_hop.size == 0:
            continue
        passing = two_hop[mask[two_hop]]
        for cand in passing.tolist():
            if cand not in seen:
                seen.add(cand)
                out.append(cand)
    return out


def expanded_neighbors_dict(
    adjacency: FrozenLevelDict, node: int, mask: np.ndarray
) -> list[int]:
    """ACORN-1's expansion strategy (Fig 4c) over the dict layout."""
    return compressed_neighbors_dict(adjacency, node, mask, m_beta=0)


def truncated_neighbors_dict(
    adjacency: FrozenLevelDict, node: int, m: int
) -> list[int]:
    """Construction lookup (§5.2) over the dict layout."""
    return adjacency[node][:m].tolist()


def search_layer_dict(
    computer: DistanceComputer,
    query: np.ndarray,
    entry_points: Sequence[tuple[float, int]],
    ef: int,
    neighbor_fn,
    visited: np.ndarray,
    stats: TraversalStats | None = None,
) -> list[tuple[float, int]]:
    """The pre-CSR best-first layer search: per-neighbor Python loops.

    ``visited`` is the old O(N)-per-level boolean scratch array;
    ``neighbor_fn`` returns any sequence of node ids.
    """
    if ef <= 0:
        raise ValueError(f"ef must be positive, got {ef}")
    candidates: list[tuple[float, int]] = list(entry_points)
    heapq.heapify(candidates)
    results = [(-dist, node) for dist, node in entry_points]
    heapq.heapify(results)

    while candidates:
        dist_c, current = heapq.heappop(candidates)
        if dist_c > -results[0][0] and len(results) >= ef:
            break
        if stats is not None:
            stats.hops += 1
        unvisited = [v for v in neighbor_fn(current) if not visited[v]]
        if not unvisited:
            continue
        if stats is not None:
            stats.visited += len(unvisited)
        for node in unvisited:
            visited[node] = True
        dists = computer.distances_to(query, np.asarray(unvisited, dtype=np.intp))
        worst = -results[0][0]
        for node, dist in zip(unvisited, dists.tolist()):
            if len(results) < ef or dist < worst:
                heapq.heappush(candidates, (dist, node))
                heapq.heappush(results, (-dist, node))
                if len(results) > ef:
                    heapq.heappop(results)
                worst = -results[0][0]

    ordered = sorted((-neg_dist, node) for neg_dist, node in results)
    return ordered[:ef]


def _neighbor_fn_dict(index, adjacency: FrozenLevelDict, level: int,
                      mask: np.ndarray):
    """The dict-kernel counterpart of ``AcornIndex._neighbor_fn``."""
    from repro.core.acorn import AcornOneIndex

    if isinstance(index, AcornOneIndex):
        return lambda c: expanded_neighbors_dict(adjacency, c, mask)
    if index._is_compressed(level):
        m_beta = index.params.m_beta
        return lambda c: compressed_neighbors_dict(adjacency, c, mask, m_beta)
    return lambda c: filtered_neighbors_dict(adjacency, c, mask)


def legacy_acorn_search(
    index,
    query: np.ndarray,
    predicate,
    k: int,
    ef_search: int = 64,
    entry_point: int | None = None,
    frozen: list[FrozenLevelDict] | None = None,
):
    """``AcornIndex.search`` exactly as implemented before the CSR kernel.

    Dict-of-arrays frozen adjacency, per-neighbor Python filtering, a
    fresh O(N) boolean visited array per level, and per-hop locked
    distance counting.  Returns the same :class:`SearchResult` shape as
    the production path; results must be byte identical.

    Args:
        frozen: optional prebuilt dict snapshot (reused across queries
            by the benchmark harness); built on the fly otherwise.
    """
    from repro.hnsw.hnsw import SearchResult

    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    compiled = index._compile(predicate)
    if len(index.graph) == 0:
        return SearchResult(
            np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float32), 0
        )
    if frozen is None:
        frozen = freeze_graph_dict(index.graph)
    computer = index.store.computer()
    query = computer.set_query(query)
    mask = compiled.mask
    if index._deleted:
        mask = mask.copy()
        mask[list(index._deleted)] = False

    tstats = TraversalStats()
    entry = index.graph.entry_point if entry_point is None else entry_point
    best = (computer.distance_one(query, entry), entry)
    tstats.visited += 1
    for lev in range(index.graph.node_level(entry), 0, -1):
        visited = np.zeros(len(index.store), dtype=bool)
        visited[best[1]] = True
        found = search_layer_dict(
            computer, query, [best], ef=1,
            neighbor_fn=_neighbor_fn_dict(index, frozen[lev], lev, mask),
            visited=visited, stats=tstats,
        )
        best = found[0]

    entry_points = index._bottom_seeds(computer, query, [best])
    visited = np.zeros(len(index.store), dtype=bool)
    for _, seed_node in entry_points:
        visited[seed_node] = True
    tstats.visited += len(entry_points)
    found = search_layer_dict(
        computer, query, entry_points, ef=max(ef_search, k),
        neighbor_fn=_neighbor_fn_dict(index, frozen[0], 0, mask),
        visited=visited, stats=tstats,
    )
    passing = [(dist, nid) for dist, nid in found if mask[nid]][:k]
    return SearchResult(
        np.asarray([nid for _, nid in passing], dtype=np.intp),
        np.asarray([dist for dist, _ in passing], dtype=np.float32),
        computer.count,
        hops=tstats.hops,
        visited_nodes=tstats.visited,
    )


def legacy_hnsw_search(index, query: np.ndarray, k: int, ef_search: int = 64):
    """``HnswIndex.search`` as implemented before the CSR kernel.

    Live adjacency lists, per-neighbor Python iteration, fresh boolean
    visited arrays per level.
    """
    from repro.hnsw.hnsw import SearchResult

    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if len(index.graph) == 0:
        empty = np.empty(0, dtype=np.intp)
        return SearchResult(empty, np.empty(0, dtype=np.float32), 0)
    computer = index.store.computer()
    query = computer.set_query(query)
    graph = index.graph
    entry = graph.entry_point
    best = (computer.distance_one(query, entry), entry)
    for lev in range(graph.node_level(entry), 0, -1):
        visited = np.zeros(len(index.store), dtype=bool)
        visited[best[1]] = True
        found = search_layer_dict(
            computer, query, [best], ef=1,
            neighbor_fn=lambda c, lev=lev: graph.neighbors(c, lev),
            visited=visited,
        )
        best = found[0]
    visited = np.zeros(len(index.store), dtype=bool)
    visited[best[1]] = True
    found = search_layer_dict(
        computer, query, [best], ef=max(ef_search, k),
        neighbor_fn=lambda c: graph.neighbors(c, 0),
        visited=visited,
    )
    top = found[:k]
    return SearchResult(
        np.asarray([nid for _, nid in top], dtype=np.intp),
        np.asarray([dist for dist, _ in top], dtype=np.float32),
        computer.count,
    )


class LegacySearcherAdapter:
    """Wraps an ACORN index so ``search`` runs the dict kernel.

    Lets the batch engine (and the traversal benchmark) fan the legacy
    path across workers through the exact same
    ``search(query, predicate, k, ef_search=...)`` interface.
    """

    def __init__(self, index) -> None:
        self.index = index
        self.table = index.table
        self._frozen_dict: list[FrozenLevelDict] | None = None

    def freeze(self) -> list[FrozenLevelDict]:
        """Build (and cache) the dict snapshot, mirroring ``freeze()``."""
        if self._frozen_dict is None:
            self._frozen_dict = freeze_graph_dict(self.index.graph)
        return self._frozen_dict

    def search(self, query, predicate, k, ef_search: int = 64):
        """Answer one query through the legacy dict-kernel path."""
        return legacy_acorn_search(
            self.index, query, predicate, k, ef_search=ef_search,
            frozen=self.freeze(),
        )
