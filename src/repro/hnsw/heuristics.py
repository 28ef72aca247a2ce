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

from repro.vectors.distance import DistanceComputer, _KERNELS

if TYPE_CHECKING:
    from repro.core.construction import PruningStats


def select_neighbors_heuristic(
    computer: DistanceComputer,
    candidates: Sequence[tuple[float, int]],
    m: int,
    stats: "PruningStats | None" = None,
) -> list[tuple[float, int]]:
    """HNSW's RNG-based pruning (Algorithm 4 of Malkov & Yashunin).

    Candidate-to-candidate distances are computed over
    ``computer.base`` with the metric's bare kernel, so their bytes do
    not depend on the computer's cached norms, and are added to its
    count.

    Args:
        computer: the build's distance computer; its base matrix and
            metric must be the ones the candidate distances came from.
        candidates: (distance-to-target, id) pairs, in any order; they
            are visited in ascending (distance, id) order.
        m: maximum number of neighbors to keep.
        stats: optional counter sink (one ``record`` per call).

    Returns:
        Selected (distance, id) pairs in ascending distance order.
    """
    vectors = computer.base
    kernel = _KERNELS[computer.metric]
    selected: list[tuple[float, int]] = []
    selected_ids: list[int] = []
    scored = 0
    for dist_c, cand in sorted(candidates):
        if len(selected) >= m:
            break
        if selected_ids:
            scored += len(selected_ids)
            dists_to_selected = kernel(vectors[selected_ids], vectors[cand])
            # Keep the candidate only if the target is its closest
            # already-selected relay — the RNG triangle rule.
            if bool((dists_to_selected < dist_c).any()):
                continue
        selected.append((dist_c, cand))
        selected_ids.append(cand)
    if scored:
        computer.add_count(scored)
    if stats is not None:
        stats.record(seen=len(candidates), kept=len(selected))
    return selected
