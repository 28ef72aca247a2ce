"""HNSW's neighbor selection: the RNG heuristic.

HNSW selects at most M edges from its efc candidates using an
RNG-approximation heuristic (paper §2.1, [31]): iterate candidates from
nearest to farthest and keep a candidate only if it is closer to the
inserted node than to every already-kept neighbor — i.e. prune the
longest edge of every candidate triangle.  §5.2 of the ACORN paper shows
why this *metadata-blind* rule breaks hybrid search: the kept relay node
may fail the query predicate, severing the pruned path inside the
predicate subgraph.  ACORN therefore replaces it (see
``repro.core.construction``); the heuristic here serves the HNSW
baseline, the oracle partitions, and Figure 12's metadata-blind pruning
rule (``PruningStrategy.RNG_BLIND``).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.vectors.distance import Metric, _KERNELS, resolve_metric

if TYPE_CHECKING:
    from repro.core.construction import PruningStats


def select_neighbors_heuristic(
    vectors: np.ndarray,
    candidates: Sequence[tuple[float, int]],
    m: int,
    metric: "Metric | str" = Metric.L2,
    stats: "PruningStats | None" = None,
) -> list[tuple[float, int]]:
    """HNSW's RNG-based pruning (Algorithm 4 of Malkov & Yashunin).

    Candidate-to-candidate distances are computed outside any
    :class:`~repro.vectors.distance.DistanceComputer`, so they are not
    counted.

    Args:
        vectors: base vector matrix used for candidate-to-candidate
            distances.
        candidates: (distance-to-target, id) pairs, in any order; they
            are visited in ascending (distance, id) order.
        m: maximum number of neighbors to keep.
        metric: distance metric matching the candidate distances.
        stats: optional counter sink (one ``record`` per call).

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
    if stats is not None:
        stats.record(seen=len(candidates), kept=len(selected))
    return selected
