"""Greedy best-first traversal shared by HNSW and ACORN.

Algorithm 1 (HNSW search) and Algorithm 2 (ACORN-SEARCH-LAYER) are the
same best-first loop; the only difference between the two papers'
listings is how the neighborhood of a visited node is produced.  Three
float32 kernels implement that loop, with distinct jobs:

- :func:`search_frozen_level` walks a frozen level's *candidate CSR*
  directly (the raw adjacency on filter levels, the materialized
  expansion lists on compressed ones) and is the only kernel a frozen
  float32 search runs: each hop is one slice, one probe of a fused
  ``mask ∧ ¬visited`` eligibility buffer and one compress.
- :func:`search_live_level` walks a *live* level's ``{node: list}``
  adjacency directly and is the only kernel construction runs
  (``add()`` and its greedy descent, in every index family): each hop
  is one dict lookup, an optional first-``trunc`` slice and a list
  comprehension over plain-list epoch stamps — a dozen Python ints, not
  five numpy calls — before the one distance call.
- :func:`search_layer` takes the neighborhood policy as a callable.  It
  has exactly two jobs: the **fallback** for the few frozen levels that
  have no candidate CSR (ACORN-1's upper levels, an expansion that blew
  ``attach_expansion``'s budget), and the byte-identity **reference**
  the tests compare both specialised kernels against.  Visited state is
  the epoch-stamped array of
  :class:`~repro.hnsw.scratch.TraversalScratch`.

All three pop, push, count and return identically over matching
lookups (see the kernel table in ``docs/performance.md``).  Python
survives in them only in the heap maintenance, whose per-candidate
branching is inherently sequential.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.hnsw.scratch import TraversalScratch
from repro.vectors.distance import DistanceComputer

NeighborFn = Callable[[int], Sequence[int]]


@dataclasses.dataclass
class TraversalStats:
    """Mutable per-query traversal counters filled in by the kernels.

    One instance is threaded through every layer traversal of a single
    query, so the totals cover the whole descent plus the bottom-level
    search.

    Attributes:
        hops: nodes popped from the candidate heap and expanded (graph
            hops, summed over all levels).
        visited: visited-set insertions (seeds plus newly discovered
            neighbors; a node reached again on another level counts once
            per level, matching the per-level visited scopes).
    """

    hops: int = 0
    visited: int = 0


def search_layer(
    computer: DistanceComputer,
    query: np.ndarray,
    entry_points: Sequence[tuple[float, int]],
    ef: int,
    neighbor_fn: NeighborFn,
    scratch: TraversalScratch,
    stats: TraversalStats | None = None,
    monitor=None,
) -> list[tuple[float, int]]:
    """Best-first search on one level; returns ``ef`` nearest as (dist, id).

    The callback kernel: fallback for frozen levels without a candidate
    CSR and the reference :func:`search_frozen_level` and
    :func:`search_live_level` are tested against.  Nothing in
    construction calls it.

    Args:
        computer: distance computer bound to the base vectors (counts
            every distance evaluated).
        query: the query vector.
        entry_points: (distance, id) seeds; their ids must already be
            marked in the scratch's current epoch.
        ef: size of the dynamic candidate list (paper's ``ef``).
        neighbor_fn: maps a visited node id to its candidate
            neighborhood for this level/query — already filtered and
            truncated per the index's lookup strategy.  A numpy int
            array avoids a conversion; plain sequences also work.
        scratch: per-thread traversal scratch whose current epoch scopes
            the visited set; the caller opens the scope with
            :meth:`~repro.hnsw.scratch.TraversalScratch.begin` and marks
            the seeds.
        stats: optional per-query counters, incremented in place.
        monitor: optional walk-budget hook (duck-typed to
            :class:`repro.routing.monitor.WalkMonitor`): its
            ``observe(n_passing)`` is called once per expanded node
            with the filtered-neighborhood size, and the walk stops
            early — returning the best results found so far — as soon
            as it returns False.  None (the default) keeps the
            unmonitored hot loop byte-identical.

    Returns:
        Up to ``ef`` (distance, id) pairs sorted by ascending distance.
    """
    if ef <= 0:
        raise ValueError(f"ef must be positive, got {ef}")
    visited = scratch.visited
    epoch = scratch.epoch
    candidates = scratch.candidates
    candidates.clear()
    candidates.extend(entry_points)
    heapq.heapify(candidates)
    results = scratch.results
    results.clear()
    results.extend((-dist, node) for dist, node in entry_points)
    heapq.heapify(results)

    while candidates:
        dist_c, current = heapq.heappop(candidates)
        if dist_c > -results[0][0] and len(results) >= ef:
            break
        if stats is not None:
            stats.hops += 1
        neighbor_ids = neighbor_fn(current)
        if not isinstance(neighbor_ids, np.ndarray):
            neighbor_ids = np.asarray(neighbor_ids, dtype=np.intp)
        if monitor is not None and not monitor.observe(int(neighbor_ids.size)):
            break
        if neighbor_ids.size == 0:
            continue
        unvisited = neighbor_ids[visited[neighbor_ids] != epoch]
        if unvisited.size == 0:
            continue
        visited[unvisited] = epoch
        if stats is not None:
            stats.visited += int(unvisited.size)
        dists = computer.distances_to(query, unvisited)
        worst = -results[0][0]
        for node, dist in zip(unvisited.tolist(), dists.tolist()):
            if len(results) < ef or dist < worst:
                heapq.heappush(candidates, (dist, node))
                heapq.heappush(results, (-dist, node))
                if len(results) > ef:
                    heapq.heappop(results)
                worst = -results[0][0]

    ordered = sorted((-neg_dist, node) for neg_dist, node in results)
    return ordered[:ef]


def search_frozen_level(
    computer: DistanceComputer,
    query: np.ndarray,
    seeds: Sequence[tuple[float, int]],
    ef: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    mask: np.ndarray,
    scratch: TraversalScratch,
    stats: TraversalStats | None = None,
    monitor=None,
) -> list[tuple[float, int]]:
    """Best-first search on one frozen level, straight off its CSR.

    Byte-identical to :func:`search_layer` run over the lookup
    ``c -> cand[mask[cand]]`` with ``cand = indices[indptr[c]:indptr[c+1]]``
    and the seeds pre-marked: same pop order, same result list, same
    ``hops``/``visited`` and distance counts, same monitor verdicts.

    Args:
        computer: distance computer bound to the base vectors.
        query: the query vector.
        seeds: (distance, id) entry points (duplicates and ids failing
            ``mask`` are fine; they count as visited, as today).
        ef: size of the dynamic candidate list.
        indptr / indices: the level's candidate CSR, indexed by global
            node id.
        mask: the query's predicate mask (tombstones composed in); an
            all-true array for unfiltered HNSW search.  Treated as an
            immutable value while bound to ``scratch``.
        scratch: the calling thread's scratch; its eligibility buffer is
            bound to ``mask`` (a no-op when it already is) and holds
            ``mask ∧ ¬visited`` for the duration of the call.  Every
            entry cleared here is restored before returning, so the
            buffer equals ``mask`` again afterwards; an exception
            unbinds it instead of trusting a partial restore.
        stats: optional per-query counters, incremented in place.
        monitor: optional walk-budget hook; ``observe`` receives the
            number of candidates passing ``mask`` (visited or not) once
            per expanded node, exactly what ``search_layer`` feeds it.

    Returns:
        Up to ``ef`` (distance, id) pairs sorted by ascending distance.
    """
    if ef <= 0:
        raise ValueError(f"ef must be positive, got {ef}")
    if not seeds:
        return []
    candidates = list(seeds)
    heapq.heapify(candidates)
    results = [(-dist, node) for dist, node in seeds]
    heapq.heapify(results)
    n_results = len(results)
    worst = -results[0][0]
    heappop, heappush, heapreplace = (
        heapq.heappop, heapq.heappush, heapq.heapreplace)
    distances_to = computer.distances_to
    eligible = scratch.bind(mask)
    probe = eligible.take
    cleared: list[np.ndarray] = []
    hops = visited = 0
    try:
        for _, node in seeds:
            eligible[node] = False
        while candidates:
            dist_c, current = heappop(candidates)
            if dist_c > worst and n_results >= ef:
                break
            hops += 1
            cand = indices[indptr[current]:indptr[current + 1]]
            if monitor is not None and not monitor.observe(
                int(np.count_nonzero(mask.take(cand)))
            ):
                break
            fresh = cand[probe(cand)]
            if fresh.size == 0:
                continue
            # One cast: int32 CSR ids would otherwise be re-cast by
            # every gather/scatter below (numpy's slow index path).
            fresh = fresh.astype(np.intp)
            cleared.append(fresh)
            eligible[fresh] = False
            visited += fresh.size
            dists = distances_to(query, fresh)
            for node, dist in zip(fresh.tolist(), dists.tolist()):
                if n_results < ef:
                    heappush(candidates, (dist, node))
                    heappush(results, (-dist, node))
                    n_results += 1
                    worst = -results[0][0]
                elif dist < worst:
                    heappush(candidates, (dist, node))
                    heapreplace(results, (-dist, node))
                    worst = -results[0][0]
    except BaseException:
        scratch.unbind()
        raise
    finally:
        if cleared:
            eligible[np.concatenate(cleared)] = True
        for _, node in seeds:
            eligible[node] = mask[node]
        if stats is not None:
            stats.hops += hops
            stats.visited += visited

    ordered = sorted((-neg_dist, node) for neg_dist, node in results)
    return ordered[:ef]


def search_live_level(
    computer: DistanceComputer,
    query: np.ndarray,
    seeds: Sequence[tuple[float, int]],
    ef: int,
    adjacency: Mapping[int, Sequence[int]],
    scratch: TraversalScratch,
    trunc: int | None = None,
) -> list[tuple[float, int]]:
    """Best-first search on one live level, straight off its adjacency lists.

    Byte-identical to :func:`search_layer` run over the lookup
    ``c -> adjacency[c][:trunc]`` with the seeds pre-marked: same pop
    order, same result list, same visited set and distance count, the
    distances from the same :meth:`DistanceComputer.distances_to` call
    on the same ids.  The kernel opens its own visited scope
    (:meth:`TraversalScratch.begin_live`), so callers need no
    ``begin``/``mark`` preamble.

    Args:
        computer: distance computer bound to the base vectors; every id
            in ``adjacency`` must be below ``len(computer)``.
        query: the vector under insertion.
        seeds: (distance, id) entry points; duplicates are fine, and so
            is the node under insertion itself (it has empty lists).
        ef: size of the dynamic candidate list.
        adjacency: the level's live ``{node: neighbor list}`` mapping
            (:meth:`LayeredGraph.level_adjacency`); lists are read at
            pop time, never cached across hops.
        scratch: the calling thread's scratch (plain-list stamps).
        trunc: look at only the first ``trunc`` entries of each list
            (ACORN's truncated construction lookup, §5.2); None reads
            whole lists.

    Returns:
        Up to ``ef`` (distance, id) pairs sorted by ascending distance.
    """
    if ef <= 0:
        raise ValueError(f"ef must be positive, got {ef}")
    if not seeds:
        return []
    candidates = list(seeds)
    heapq.heapify(candidates)
    results = [(-dist, node) for dist, node in seeds]
    heapq.heapify(results)
    n_results = len(results)
    worst = -results[0][0]
    heappop, heappush, heapreplace = (
        heapq.heappop, heapq.heappush, heapq.heapreplace)
    distances_to = computer.distances_to
    stamps, epoch = scratch.begin_live(len(computer))
    for _, node in seeds:
        stamps[node] = epoch
    while candidates:
        dist_c, current = heappop(candidates)
        if dist_c > worst and n_results >= ef:
            break
        fresh = [v for v in adjacency[current][:trunc] if stamps[v] != epoch]
        if not fresh:
            continue
        for node in fresh:
            stamps[node] = epoch
        dists = distances_to(query, fresh)
        for node, dist in zip(fresh, dists.tolist()):
            if n_results < ef:
                heappush(candidates, (dist, node))
                heappush(results, (-dist, node))
                n_results += 1
                worst = -results[0][0]
            elif dist < worst:
                heappush(candidates, (dist, node))
                heapreplace(results, (-dist, node))
                worst = -results[0][0]

    ordered = sorted((-neg_dist, node) for neg_dist, node in results)
    return ordered[:ef]


def greedy_descent(
    computer: DistanceComputer,
    query: np.ndarray,
    entry: tuple[float, int],
    levels: Sequence[int],
    neighbor_fn_for_level: Callable[[int], NeighborFn],
    num_nodes: int,
    scratch: TraversalScratch | None = None,
    stats: TraversalStats | None = None,
) -> tuple[float, int]:
    """Descend through ``levels`` with ef=1, returning the final entry.

    This is the upper-level phase of Algorithm 1/2: at each level one
    greedy search selects a single node that seeds the next level.  One
    scratch buffer serves the whole descent — each level opens a fresh
    epoch instead of allocating its own O(N) visited array.
    """
    if scratch is None:
        scratch = TraversalScratch(num_nodes)
    best = entry
    for level in levels:
        scratch.begin(num_nodes)
        scratch.mark(best[1])
        found = search_layer(
            computer, query, [best], ef=1,
            neighbor_fn=neighbor_fn_for_level(level), scratch=scratch,
            stats=stats,
        )
        best = found[0]
    return best
