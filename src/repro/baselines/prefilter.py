"""Pre-filtering: resolve the predicate, then brute-force scan.

The first of the two predominant baselines (paper §3.2): compute
``X_p``, the set of entities passing the predicate, and exhaustively
rank them by distance.  Recall is always perfect; the cost is
``O(s·n + K)`` distance computations, which makes pre-filtering the
method of choice only at very low selectivity — exactly why ACORN uses
it as the fall-back below ``s_min`` (§5.2).
"""

from __future__ import annotations

import numpy as np

from repro.attributes.table import AttributeTable
from repro.core.searcher import Searcher, check_search_args
from repro.hnsw.hnsw import SearchResult
from repro.predicates.base import CompiledPredicate, Predicate
from repro.vectors.distance import Metric, exact_top_k
from repro.vectors.store import VectorStore


class PreFilterSearcher(Searcher):
    """Brute-force hybrid search over the predicate-passing subset."""

    def __init__(
        self,
        vectors: np.ndarray,
        table: AttributeTable,
        metric: "Metric | str" = Metric.L2,
    ) -> None:
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if len(table) != vectors.shape[0]:
            raise ValueError(
                f"table has {len(table)} rows but got {vectors.shape[0]} vectors"
            )
        self.store = VectorStore.from_array(vectors, metric=metric)
        self.table = table

    def __len__(self) -> int:
        return len(self.store)

    def search(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        ef_search: int = 64,
    ) -> SearchResult:
        """Exact K nearest passing neighbors (perfect recall).

        ``ef_search`` is validated like every searcher's and otherwise
        ignored: the scan is exhaustive whatever the effort.
        """
        check_search_args(k, ef_search)
        compiled = self._compile(predicate)
        computer = self.store.computer()
        ids, dists = exact_top_k(computer, computer.set_query(query),
                                 compiled.passing_ids, k)
        return SearchResult(ids=ids, distances=dists,
                            distance_computations=computer.count)

    def nbytes(self) -> int:
        """Flat-index footprint: just the vector payload (Table 5)."""
        return self.store.nbytes()
