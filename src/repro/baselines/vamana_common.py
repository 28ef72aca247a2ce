"""Shared machinery for the DiskANN-family comparators.

FilteredDiskANN (paper [25]) contributes two algorithms the ACORN paper
benchmarks on the LCPS datasets: FilteredVamana and StitchedVamana.
Both restrict predicates to *equality over a small label domain* —
exactly the limitation ACORN removes — and both are flat (single-level)
graphs searched with a filtered greedy traversal from per-label start
points.  This module holds the pieces they share: the filtered greedy
search, the α-RNG RobustPrune (plain and filtered), and label plumbing.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np

from repro.predicates.base import CompiledPredicate, Predicate
from repro.predicates.compare import Equals
from repro.vectors.distance import DistanceComputer


def extract_equality_label(predicate: "Predicate | CompiledPredicate", column: str):
    """The value of an ``Equals(column, value)`` predicate.

    The DiskANN-family and NHQ comparators only serve equality
    predicates over one column; anything else raises ``ValueError`` —
    mirroring how those systems "fail because they are unable to handle
    the high cardinality query predicate sets and non-equality predicate
    operators" (paper §7.3).
    """
    if isinstance(predicate, CompiledPredicate):
        predicate = predicate.predicate
    if not isinstance(predicate, Equals) or predicate.column != column:
        raise ValueError(
            f"this index only supports Equals({column!r}, value) predicates, "
            f"got {predicate!r}"
        )
    return predicate.value


def greedy_search(
    computer: DistanceComputer,
    query: np.ndarray,
    adjacency: list[list[int]],
    starts: Sequence[int],
    list_size: int,
    allowed: np.ndarray | None = None,
) -> tuple[list[tuple[float, int]], list[int]]:
    """(Filtered)GreedySearch of the DiskANN papers.

    Best-first beam search of width ``list_size`` over a flat graph.
    With ``allowed`` set, only nodes passing the mask are ever entered
    into the beam (FilteredGreedySearch); start points must pass.

    Returns:
        (results, visited): the beam as sorted (dist, id) pairs and the
        visit order (the candidate pool RobustPrune consumes).
    """
    starts = [s for s in starts if allowed is None or allowed[s]]
    if not starts:
        return [], []
    dists = computer.distances_to(query, starts)
    beam = sorted(zip(dists.tolist(), starts))[:list_size]
    in_beam = {node for _, node in beam}
    expanded: set[int] = set()
    visited_order: list[int] = []
    heap = list(beam)
    heapq.heapify(heap)
    while heap:
        dist_c, current = heapq.heappop(heap)
        if current in expanded:
            continue
        expanded.add(current)
        visited_order.append(current)
        fresh = [
            v
            for v in adjacency[current]
            if v not in in_beam and (allowed is None or allowed[v])
        ]
        if not fresh:
            continue
        fresh_dists = computer.distances_to(query, fresh)
        for node, dist in zip(fresh, fresh_dists.tolist()):
            beam.append((dist, node))
            in_beam.add(node)
            heapq.heappush(heap, (dist, node))
        beam.sort()
        if len(beam) > list_size:
            for _, dropped in beam[list_size:]:
                in_beam.discard(dropped)
            beam = beam[:list_size]
        # Re-anchor the heap on the trimmed beam to avoid expanding
        # nodes that fell out of it.
        heap = [entry for entry in beam if entry[1] not in expanded]
        heapq.heapify(heap)
    return beam, visited_order


def robust_prune(
    computer: DistanceComputer,
    point: int,
    candidates: list[tuple[float, int]],
    alpha: float,
    degree_bound: int,
    labels: np.ndarray | None = None,
    point_labels=None,
) -> list[int]:
    """(Filtered)RobustPrune of the DiskANN papers.

    Iterates candidates by ascending distance, keeps the closest, and
    discards any remaining candidate ``b`` dominated by a kept ``a``:
    ``α · d(a, b) <= d(p, b)``.  In filtered mode a kept node may only
    dominate ``b`` when its label covers the label shared by ``p`` and
    ``b`` (single-label simplification of FilteredDiskANN's subset
    condition), so pruned paths survive in every label subgraph.
    """
    pool = sorted({(dist, node) for dist, node in candidates if node != point})
    kept: list[int] = []
    while pool and len(kept) < degree_bound:
        dist_best, best = pool[0]
        kept.append(best)
        survivors: list[tuple[float, int]] = []
        if len(pool) > 1:
            rest_ids = np.asarray([node for _, node in pool[1:]], dtype=np.intp)
            dists_via_best = computer.distances_to(computer.base[best], rest_ids)
            for (dist_p, node), dist_a in zip(pool[1:], dists_via_best.tolist()):
                dominated = alpha * dist_a <= dist_p
                if dominated and labels is not None:
                    # Label-safe domination only: relay must share the label.
                    dominated = (
                        labels[best] == labels[node] and labels[best] == point_labels
                    )
                if not dominated:
                    survivors.append((dist_p, node))
        pool = survivors
    return kept
