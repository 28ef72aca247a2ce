"""The exact float32 tails: a quantized search's rerank and the scan.

A quantized index differs from a float32 one only in the distance
provider that walks level 0: the same
:func:`~repro.hnsw.traversal.search_frozen_level` walk (or its
``search_layer`` fallback) ranks candidates with a
:class:`~repro.vectors.quantized_store.QuantizedComputer` instead of the
exact :class:`~repro.vectors.distance.DistanceComputer`.  Exact float32
ranks are restored afterwards by :func:`exact_rerank`, which re-scores
the top ``rerank_factor * k`` candidates with the index's real computer
— so reported distances (and the distance-computation counter's
meaning) are identical in kind to the float path.  :func:`exact_top_k`
is the exact ranking that tail shares with every brute-force scan.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry import SearchResult
from repro.vectors.quantized_store import rerank_budget


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
    head = np.asarray(cand_ids, dtype=np.intp)[:budget]
    ids, dists = exact_top_k(computer, query, head, k)
    return ids, dists, int(head.size)


def exact_top_k(computer, query: np.ndarray, ids: np.ndarray, k: int):
    """The ``k`` of ``ids`` nearest ``query`` by (distance, id), exactly."""
    dists = np.asarray(computer.distances_to(query, ids), dtype=np.float32)
    order = np.lexsort((ids, dists))[:k]
    return ids[order].astype(np.intp, copy=False), dists[order]


def reranked_result(computer, qcomp, query, cand_ids, k, rerank_factor,
                    stats) -> SearchResult:
    """``cand_ids`` (code-ranked) reranked, with every counter recorded."""
    ids, dists, n_rerank = exact_rerank(
        computer, query, cand_ids, k, rerank_budget(k, rerank_factor))
    return SearchResult(
        ids=ids, distances=dists, distance_computations=computer.count,
        hops=stats.hops, visited_nodes=stats.visited,
        quantized_distances=qcomp.count, rerank_distances=n_rerank,
        rerank_factor=rerank_factor,
    )
