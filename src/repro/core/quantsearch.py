"""The exact float32 tail of a quantized search.

A quantized index differs from a float32 one only in the distance
provider that walks level 0: the same
:func:`~repro.hnsw.traversal.search_frozen_level` walk (or its
``search_layer`` fallback) ranks candidates with a
:class:`~repro.vectors.quantized_store.QuantizedComputer` instead of the
exact :class:`~repro.vectors.distance.DistanceComputer`.  Exact float32
ranks are restored afterwards by :func:`exact_rerank`, which re-scores
the top ``rerank_factor * k`` candidates with the index's real computer
— so reported distances (and the distance-computation counter's
meaning) are identical in kind to the float path.
"""

from __future__ import annotations

import numpy as np

_EMPTY_IDS = np.empty(0, dtype=np.intp)
_EMPTY_DISTS = np.empty(0, dtype=np.float32)


def exact_rerank(
    computer,
    query: np.ndarray,
    cand_ids: np.ndarray,
    k: int,
    budget: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Re-score the top quantized candidates with exact float32 distances.

    Args:
        computer: the index's exact :class:`DistanceComputer` (the
            evaluations land in ``distance_computations``, keeping the
            paper's cost measure exact-only).
        query: the float32 query.
        cand_ids: candidates in ascending quantized-distance order.
        k: results wanted.
        budget: how many leading candidates to re-score (from
            :func:`~repro.vectors.quantized_store.rerank_budget`).

    Returns:
        ``(ids, dists, n_reranked)`` — the exact top-k (ties on id) of
        the re-scored head, plus how many candidates were re-scored.
    """
    cand_ids = np.asarray(cand_ids, dtype=np.intp)
    head = cand_ids[: min(cand_ids.size, budget)]
    if head.size == 0:
        return _EMPTY_IDS, _EMPTY_DISTS, 0
    dists = np.asarray(computer.distances_to(query, head), dtype=np.float32)
    order = np.lexsort((head, dists))[:k]
    return head[order], dists[order], int(head.size)
