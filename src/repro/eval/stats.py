"""Evaluation statistics: percentile aggregation and graph quality.

Two families live here.  :func:`percentile_summary` condenses any
per-query measure (wall-time, distance computations) into the
p50/p95/p99 summaries the batch engine and sweep runner report —
the per-query latency breakdowns concurrent-workload evaluations
(NaviX, the PostgreSQL filter-agnostic study) present.

The rest reproduces paper Figure 13: ACORN-γ's predicate subgraphs vs
HNSW oracle partitions on (a) strongly connected components per level,
(b) graph height, and (c) average out-degree after search-time
filtering, with a dependency-free iterative Tarjan SCC implementation.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable

import numpy as np

from repro.core.acorn import AcornIndex
from repro.hnsw.hnsw import HnswIndex


@dataclasses.dataclass(frozen=True)
class PercentileSummary:
    """p50/p95/p99 (plus mean and extremes) of one per-query measure.

    Attributes:
        count: number of observations summarized.
        mean: arithmetic mean (``None`` for an empty sample).
        p50: median.
        p95: 95th percentile.
        p99: 99th percentile.
        min: smallest observation.
        max: largest observation.

    An empty sample (count 0) carries ``None`` in every statistic —
    the serving layer hits this when an entire load window is shed,
    and ``None`` serializes honestly where a fake 0.0 would read as
    "zero latency".
    """

    count: int
    mean: float | None
    p50: float | None
    p95: float | None
    p99: float | None
    min: float | None
    max: float | None


def percentile_summary(values: Iterable[float]) -> PercentileSummary:
    """Summarize per-query observations into a :class:`PercentileSummary`.

    Accepts any iterable of numbers; an empty sample (e.g. a load
    window in which every request was shed) yields ``count=0`` with
    ``None`` statistics rather than NaNs or misleading zeros, so
    callers can serialize unconditionally.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return PercentileSummary(0, None, None, None, None, None, None)
    p50, p95, p99 = np.percentile(arr, (50, 95, 99))
    return PercentileSummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        p50=float(p50),
        p95=float(p95),
        p99=float(p99),
        min=float(arr.min()),
        max=float(arr.max()),
    )


def strongly_connected_components(adjacency: dict[int, list[int]]) -> list[set[int]]:
    """Tarjan's SCC algorithm, iterative (safe for deep graphs).

    Args:
        adjacency: node -> successor list; every successor must itself
            be a key.

    Returns:
        The strongly connected components as sets of nodes.
    """
    index_of: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[set[int]] = []
    counter = 0

    for root in adjacency:
        if root in index_of:
            continue
        work = [(root, iter(adjacency[root]))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adjacency[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: set[int] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


@dataclasses.dataclass
class GraphQuality:
    """Figure 13's three statistics for one (sub)graph."""

    scc_per_level: list[int]
    height: int
    avg_filtered_out_degree_by_level: list[float]

    @property
    def mean_scc(self) -> float:
        """Average SCC count across populated levels."""
        populated = [c for c in self.scc_per_level if c > 0]
        return float(np.mean(populated)) if populated else 0.0


def _graph_quality(graph, mask: np.ndarray, lookup, cap: int) -> GraphQuality:
    """Figure 13's statistics over the nodes passing ``mask``, each
    node's edges read through ``lookup(level)(node)`` (self-links
    dropped) and its out-degree capped at ``cap``."""
    scc_counts: list[int] = []
    degrees: list[float] = []
    height = 0
    for level in range(graph.max_level + 1):
        nodes = [v for v in graph.nodes_at_level(level) if mask[v]]
        if nodes:
            height = level
        neighbors = lookup(level)
        adjacency = {v: [u for u in neighbors(v) if u != v] for v in nodes}
        scc_counts.append(
            len(strongly_connected_components(adjacency)) if nodes else 0
        )
        degrees.append(
            float(np.mean([min(len(nbrs), cap) for nbrs in adjacency.values()]))
            if nodes
            else 0.0
        )
    return GraphQuality(
        scc_per_level=scc_counts,
        height=height,
        avg_filtered_out_degree_by_level=degrees,
    )


def acorn_subgraph_quality(
    index: AcornIndex, mask: np.ndarray, m: int | None = None
) -> GraphQuality:
    """Quality of the *effective* predicate subgraph induced by ``mask``.

    The subgraph contains the passing nodes of every level, with the
    edges the search actually traverses: each node's neighborhood is
    recovered through the index's own lookup strategy (filter on
    uncompressed levels, Mβ + 2-hop expansion on compressed ones —
    Figure 4), so compression-recovered edges count toward connectivity
    exactly as they do during search.  The out-degree statistic reports
    the recovered neighborhood size capped at M, matching Figure 13c's
    "search-time filtering" semantics.
    """
    return _graph_quality(
        index.graph, mask, lambda level: index._neighbor_fn(level, mask),
        m if m is not None else index.params.m,
    )


def hnsw_graph_quality(index: HnswIndex) -> GraphQuality:
    """The same statistics for a whole HNSW graph (oracle partitions):
    every node, its raw lists, no degree cap (no list is as long as the
    graph)."""
    graph = index.graph
    return _graph_quality(
        graph, np.ones(len(graph), dtype=bool),
        lambda level: lambda v: graph.neighbors(v, level), len(graph),
    )
