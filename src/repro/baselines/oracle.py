"""The oracle partition index (paper §4).

The theoretically ideal hybrid-search strategy: if every query
predicate were known at construction time, one HNSW index could be
built per predicate over exactly ``X_p``, giving ``O(s(log(sn) + K))``
search.  It is impractical for real predicate sets (unbounded
cardinality, one full index per predicate), but it is the upper bound
ACORN's predicate subgraphs are designed to emulate, and the paper
benchmarks it on the LCPS datasets (Figures 7, 13; Table 3).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable

import numpy as np

from repro.attributes.table import AttributeTable
from repro.core.searcher import Searcher, check_search_args
from repro.hnsw.hnsw import HnswIndex, SearchResult
from repro.predicates.base import CompiledPredicate, Predicate
from repro.vectors.distance import Metric


def _default_key(predicate: Predicate) -> Hashable:
    """Key predicates by repr — stable for this library's predicates."""
    return repr(predicate)


class OraclePartitionIndex(Searcher):
    """One HNSW partition per known query predicate.

    Args:
        vectors: full base matrix (n, d).
        table: attributes aligned with ``vectors``.
        predicates: the full (finite!) predicate set, known a priori.
        m / ef_construction / metric / seed: HNSW parameters shared by
            every partition (the paper uses the post-filter baseline's
            parameters).
        key_fn: maps a predicate to a hashable partition key; defaults
            to ``repr``.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        table: AttributeTable,
        predicates: Iterable[Predicate],
        m: int = 32,
        ef_construction: int = 40,
        metric: "Metric | str" = Metric.L2,
        seed: int | np.random.Generator | None = None,
        key_fn: Callable[[Predicate], Hashable] = _default_key,
    ) -> None:
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        self.table = table
        self._key_fn = key_fn
        self._partitions: dict[Hashable, tuple[HnswIndex, np.ndarray]] = {}
        for predicate in predicates:
            key = key_fn(predicate)
            if key in self._partitions:
                continue
            ids = np.flatnonzero(predicate.mask(table))
            index = HnswIndex(
                vectors.shape[1], m=m, ef_construction=ef_construction,
                metric=metric, seed=seed,
            )
            for node in ids:
                index.add(vectors[node])
            self._partitions[key] = (index, ids)

    @property
    def num_partitions(self) -> int:
        """Number of per-predicate partitions built."""
        return len(self._partitions)

    def partition_for(self, predicate: Predicate) -> HnswIndex:
        """The HNSW partition serving ``predicate`` (KeyError if unknown)."""
        return self._partitions[self._require(predicate)][0]

    def _require(self, predicate: Predicate) -> Hashable:
        key = self._key_fn(predicate)
        if key not in self._partitions:
            raise KeyError(
                f"predicate {predicate!r} was not in the construction-time "
                "predicate set; the oracle method cannot serve it"
            )
        return key

    def search(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        ef_search: int = 64,
    ) -> SearchResult:
        """Search the partition matching ``predicate`` exactly."""
        check_search_args(k, ef_search)
        if isinstance(predicate, CompiledPredicate):
            predicate = predicate.predicate
        index, ids = self._partitions[self._require(predicate)]
        result = index.search(query, k, ef_search=ef_search)
        # Translate partition-local ids back to global entity ids.
        return SearchResult(
            ids=ids[result.ids].astype(np.intp),
            distances=result.distances,
            distance_computations=result.distance_computations,
        )

    def nbytes(self) -> int:
        """Total footprint across all partitions."""
        return sum(index.nbytes() for index, _ in self._partitions.values())
