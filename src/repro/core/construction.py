"""ACORN-γ construction internals: candidate selection and pruning.

The two construction-time modifications the paper makes to HNSW (§5.2):

1. **Neighbor-list expansion** — each inserted node collects M·γ
   approximate nearest neighbors as candidate edges, found by a
   *metadata-agnostic* traversal that truncates every neighbor list to
   its first M entries (the graph is navigable with M edges by
   construction, so scanning all M·γ during insertion would only waste
   distance computations).

2. **Predicate-agnostic pruning** — level 0 keeps the nearest Mβ
   candidates verbatim, then two-hop-prunes the rest: a candidate is
   dropped iff it is already reachable through a kept candidate with
   list index ≥ Mβ, which is exactly the set of neighbors the
   compression-aware search lookup expands (Figure 4b), so every pruned
   edge is recoverable *regardless of the query predicate*.

The alternative pruning rules compared in Figure 12 are selected by
:class:`~repro.core.params.PruningStrategy`: FilteredDiskANN's
metadata-aware RNG rule lives here; HNSW's metadata-blind one is
:func:`repro.hnsw.heuristics.select_neighbors_heuristic` itself.
"""

from __future__ import annotations

import dataclasses
import threading
from collections.abc import Sequence

import numpy as np

from repro.hnsw.graph import LayeredGraph
from repro.vectors.distance import DistanceComputer, _KERNELS


@dataclasses.dataclass
class PruningStats:
    """Counters describing pruning behaviour (Figure 12c's metric).

    Thread-safe: :meth:`record` and :meth:`merge` serialize through an
    internal lock, so pruning invocations accounted from several
    threads never lose counts (the Table 3 / Figure 12c numbers must
    stay exact under concurrency).
    Workers that want to avoid per-call locking can accumulate into a
    private ``PruningStats`` and :meth:`merge` it once at the end — the
    same accumulate-and-flush pattern the distance counters use.
    """

    nodes_pruned: int = 0
    candidates_seen: int = 0
    candidates_dropped: int = 0
    _lock: threading.Lock = dataclasses.field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def dropped_per_node(self) -> float:
        """Average candidate edges pruned per processed node."""
        if self.nodes_pruned == 0:
            return 0.0
        return self.candidates_dropped / self.nodes_pruned

    def record(self, seen: int, kept: int) -> None:
        """Account one pruning invocation (thread-safe)."""
        with self._lock:
            self.nodes_pruned += 1
            self.candidates_seen += seen
            self.candidates_dropped += seen - kept

    def merge(self, other: "PruningStats") -> None:
        """Fold another stats object's counters into this one.

        Used by per-thread accumulate-and-flush accounting: each worker
        records into a private instance, then merges once, paying one
        lock acquisition per worker instead of one per pruned node.
        """
        with other._lock:
            nodes = other.nodes_pruned
            seen = other.candidates_seen
            dropped = other.candidates_dropped
        with self._lock:
            self.nodes_pruned += nodes
            self.candidates_seen += seen
            self.candidates_dropped += dropped


def prune_predicate_agnostic(
    candidates: Sequence[tuple[float, int]],
    graph: LayeredGraph,
    level: int,
    m_beta: int,
    max_degree: int,
    stats: PruningStats | None = None,
) -> list[tuple[float, int]]:
    """ACORN's predicate-agnostic compression (paper §5.2, Figure 5b).

    Iterates the ascending-distance candidate list: the first ``m_beta``
    are kept unconditionally; each later candidate is dropped iff it
    already appears in ``H``, the union of neighbor lists of later kept
    candidates.  Stops early once ``|H| +`` kept exceeds ``max_degree``
    (M·γ).

    Args:
        candidates: (distance, id) pairs sorted ascending.
        graph: the under-construction graph (read for 2-hop sets).
        level: level whose adjacency supplies the 2-hop sets.
        m_beta: number of nearest candidates retained verbatim.
        max_degree: M·γ budget bounding |H| + kept.
        stats: optional counter sink.

    Returns:
        The kept (distance, id) pairs, ascending by distance.
    """
    kept = list(candidates[:m_beta])
    two_hop: set[int] = set()
    for dist, cand in candidates[m_beta:]:
        if len(two_hop) + len(kept) > max_degree:
            break
        if cand in two_hop:
            continue
        kept.append((dist, cand))
        two_hop.update(graph.neighbors(cand, level))
    if stats is not None:
        stats.record(seen=len(candidates), kept=len(kept))
    return kept


def prune_rng_metadata(
    computer: DistanceComputer,
    candidates: Sequence[tuple[float, int]],
    labels: np.ndarray,
    owner: int,
    max_keep: int,
    stats: PruningStats | None = None,
) -> list[tuple[float, int]]:
    """FilteredDiskANN-style metadata-aware RNG pruning (Figure 12's (ii)).

    A candidate ``b`` may only be pruned via a kept relay ``a`` when
    ``a`` carries the same label as both the owner and ``b`` — ensuring
    the pruned triangle survives inside every equality-predicate
    subgraph.  Requires a single low-cardinality label per entity, which
    is exactly the restriction that makes the approach non-agnostic.

    Relay-to-candidate distances are computed over ``computer.base``
    with the metric's bare kernel and added to the computer's count, as
    :func:`~repro.hnsw.heuristics.select_neighbors_heuristic` does.
    """
    vectors = computer.base
    kernel = _KERNELS[computer.metric]
    owner_label = labels[owner]
    kept: list[tuple[float, int]] = []
    kept_ids: list[int] = []
    scored = 0
    for dist_c, cand in candidates:
        if len(kept) >= max_keep:
            break
        prune = False
        if kept_ids:
            cand_label = labels[cand]
            # A relay can only dominate when it shares the label of
            # both the owner and the candidate.
            if cand_label == owner_label:
                relay_ids = np.asarray(kept_ids, dtype=np.intp)
                label_safe = labels[relay_ids] == owner_label
                if label_safe.any():
                    safe_ids = relay_ids[label_safe]
                    scored += safe_ids.size
                    dists = kernel(vectors[safe_ids], vectors[cand])
                    prune = bool((dists < dist_c).any())
        if prune:
            continue
        kept.append((dist_c, cand))
        kept_ids.append(cand)
    if scored:
        computer.add_count(scored)
    if stats is not None:
        stats.record(seen=len(candidates), kept=len(kept))
    return kept
