"""Neighbor-selection strategies for graph construction.

HNSW selects at most M edges from its efc candidates using an
RNG-approximation heuristic (paper §2.1, [31]): iterate candidates from
nearest to farthest and keep a candidate only if it is closer to the
inserted node than to every already-kept neighbor — i.e. prune the
longest edge of every candidate triangle.  §5.2 of the ACORN paper shows
why this *metadata-blind* rule breaks hybrid search: the kept relay node
may fail the query predicate, severing the pruned path inside the
predicate subgraph.  ACORN therefore replaces it (see
``repro.core.construction``); the implementations here serve the HNSW
baseline, the oracle partitions, and Figure 12's pruning comparison.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.vectors.distance import Metric, _KERNELS, resolve_metric


def select_neighbors_simple(
    candidates: Sequence[tuple[float, int]], m: int
) -> list[tuple[float, int]]:
    """Keep the ``m`` nearest candidates (the naive KNN selection)."""
    return sorted(candidates)[:m]


def select_neighbors_heuristic(
    vectors: np.ndarray,
    candidates: Sequence[tuple[float, int]],
    m: int,
    metric: "Metric | str" = Metric.L2,
) -> list[tuple[float, int]]:
    """HNSW's RNG-based pruning (Algorithm 4 of Malkov & Yashunin).

    Args:
        vectors: base vector matrix used for candidate-to-candidate
            distances.
        candidates: (distance-to-target, id) pairs.
        m: maximum number of neighbors to keep.
        metric: distance metric matching the candidate distances.

    Returns:
        Selected (distance, id) pairs in ascending distance order.
    """
    kernel = _KERNELS[resolve_metric(metric)]
    selected: list[tuple[float, int]] = []
    selected_ids: list[int] = []
    for dist_c, cand in sorted(candidates):
        if len(selected) >= m:
            break
        if selected_ids:
            dists_to_selected = kernel(vectors[selected_ids], vectors[cand])
            # Keep the candidate only if the target is its closest
            # already-selected relay — the RNG triangle rule.
            if bool((dists_to_selected < dist_c).any()):
                continue
        selected.append((dist_c, cand))
        selected_ids.append(cand)
    return selected
