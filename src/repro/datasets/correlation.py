"""Query-correlation measurement (paper §3.2.1).

The paper defines workload correlation as

    C(D, Q) = E_{(x,p) in Q} [ E_R[ g(x, R) ] - g(x, X_p) ]

where ``g(x, S) = min_{y in S} dist(x, y)``, and ``R`` is a random set
of ``|X_p|`` vectors drawn uniformly from the dataset — i.e. how much
closer (positive C) or farther (negative C) the true filtered targets
are compared to a hypothetical unclustered predicate.  This module
provides a Monte-Carlo estimator used by tests and the Figure 10 bench
to *verify* that the generated pos-/no-/neg-correlation workloads
actually have the correlation their names claim.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import HybridDataset
from repro.utils.rng import default_rng
from repro.vectors.distance import pairwise_distances


def _k_nearest_sum(dists: np.ndarray, k: int) -> float:
    """Sum of the k smallest entries (all of them when fewer exist)."""
    take = min(k, dists.shape[0])
    if take == dists.shape[0]:
        return float(dists.sum())
    return float(np.partition(dists, take - 1)[:take].sum())


def query_correlation(
    dataset: HybridDataset,
    n_resamples: int = 10,
    max_queries: int | None = None,
    k: int = 1,
    seed: int | np.random.Generator | None = 0,
) -> float:
    """Monte-Carlo estimate of C(D, Q) for a dataset's workload.

    Args:
        dataset: the hybrid dataset whose workload is measured.
        n_resamples: uniform resamples per query for the E_R term.
        max_queries: optionally cap the number of queries measured.
        k: number of hybrid-search targets per query.  k=1 is the
            paper's definition; k>1 sums distances over the K targets,
            the extension §3.2.1 notes.
        seed: RNG seed for the resamples.

    Returns:
        The estimated correlation; positive values mean filtered targets
        sit closer to their queries than chance, negative means farther.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    rng = default_rng(seed)
    n = dataset.num_vectors
    queries = dataset.queries
    compiled = dataset.compiled_predicates()
    if max_queries is not None:
        queries = queries[:max_queries]
        compiled = compiled[:max_queries]

    contributions: list[float] = []
    for query, predicate in zip(queries, compiled):
        cardinality = predicate.cardinality
        if cardinality == 0:
            continue
        dists = pairwise_distances(dataset.vectors, query.vector,
                                   metric=dataset.metric)[0]
        true_value = _k_nearest_sum(dists[predicate.passing_ids], k)
        resample_values = [
            _k_nearest_sum(
                dists[rng.choice(n, size=cardinality, replace=False)], k
            )
            for _ in range(n_resamples)
        ]
        contributions.append(float(np.mean(resample_values)) - true_value)
    if not contributions:
        raise ValueError("no query with a non-empty predicate to measure")
    return float(np.mean(contributions))
