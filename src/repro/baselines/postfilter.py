"""HNSW post-filtering: over-search, then drop failing results.

The second predominant baseline (paper §3.2): run unfiltered ANN search
over the full dataset, then discard results failing the predicate.
Following the paper's strengthened implementation (§7.2), the search
gathers ``K/s`` candidates — not just K, as some prior work did — where
``s`` is the query's predicate selectivity.  Performance degrades with
low selectivity and especially with *negative query correlation*: when
passing vectors sit far from the query, the ef expansion burns distance
computations on nodes that will be thrown away.
"""

from __future__ import annotations

import math

import numpy as np

from repro.attributes.table import AttributeTable
from repro.engine.batching import BatchSearchMixin
from repro.hnsw.hnsw import HnswIndex, SearchResult
from repro.predicates.base import CompiledPredicate, Predicate


class PostFilterSearcher(BatchSearchMixin):
    """Post-filtering over an unfiltered HNSW index.

    Args:
        index: a built :class:`HnswIndex` over the full dataset.
        table: attribute table aligned with the index's node ids.
        max_oversearch: hard cap on the candidate budget, as a fraction
            of the dataset (guards ``K/s`` blow-up at tiny selectivity).
    """

    def __init__(
        self,
        index: HnswIndex,
        table: AttributeTable,
        max_oversearch: float = 1.0,
    ) -> None:
        if len(index) != len(table):
            raise ValueError(
                f"index has {len(index)} nodes but table has {len(table)} rows"
            )
        self.index = index
        self.table = table
        self.max_oversearch = max_oversearch

    def __len__(self) -> int:
        return len(self.index)

    def candidate_budget(self, k: int, selectivity: float, ef_search: int) -> int:
        """``max(ef_search, K/s)`` capped at ``max_oversearch * n``."""
        if selectivity <= 0.0:
            budget = len(self.index)
        else:
            budget = max(ef_search, math.ceil(k / selectivity))
        return int(min(budget, self.max_oversearch * len(self.index)))

    def search(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        ef_search: int = 64,
    ) -> SearchResult:
        """K nearest passing neighbors via over-search + filter."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        compiled = (
            predicate
            if isinstance(predicate, CompiledPredicate)
            else predicate.compile(self.table)
        )
        budget = self.candidate_budget(k, compiled.selectivity, ef_search)
        candidates, ncomp = self.index.search_candidates(query, max(budget, k))
        mask = compiled.mask
        passing = [(dist, nid) for dist, nid in candidates if mask[nid]][:k]
        return SearchResult.from_pairs(passing, distance_computations=ncomp)

    def freeze(self):
        """Freeze the wrapped HNSW's CSR snapshot (batch-engine hook).

        Without this the engine's worker threads would race to build the
        lazy snapshot on the first batch after construction.
        """
        return self.index.freeze()

    def nbytes(self) -> int:
        """Footprint of the wrapped HNSW index."""
        return self.index.nbytes()
