"""Uniform ``search_batch`` mixin for every searcher in the library.

Indexes and baselines inherit :class:`BatchSearchMixin` so they all
expose the same batched entry point, routed through the
:class:`~repro.engine.engine.SearchEngine`.  The default return value
stays ``list[SearchResult]`` for compatibility with the pre-engine
batch API; pass ``with_stats=True`` for the full instrumented
:class:`~repro.engine.engine.BatchResult`.
"""

from __future__ import annotations


class BatchSearchMixin:
    """Adds an engine-backed ``search_batch`` to a ``search``-able class.

    Host classes must expose ``search(query, predicate, k,
    ef_search=...) -> SearchResult`` and (for raw-predicate input) an
    attribute table reachable as ``self.table`` or ``self.index.table``.
    """

    def search_batch(
        self,
        queries,
        predicates,
        k: int,
        ef_search: int = 64,
        with_stats: bool = False,
    ):
        """Answer many hybrid queries through the batch engine.

        Args:
            queries: (q, dim) query matrix (or a single vector).
            predicates: one predicate per query, or a single predicate
                shared by all queries (its mask is materialized once).
            k: neighbors per query.
            ef_search: search-effort knob forwarded to each search.
            with_stats: when True, return the engine's
                :class:`~repro.engine.engine.BatchResult` (per-query
                :class:`~repro.engine.instrumentation.QueryStats`,
                latency percentiles) instead of the bare result list.

        The batch runs inline on the calling thread; process fan-out
        belongs to a long-lived :class:`~repro.engine.engine.SearchEngine`
        (``executor="process"``), which keeps its shared-memory arena
        and warm workers across batches.

        Returns:
            ``list[SearchResult]`` in query order, or a ``BatchResult``
            when ``with_stats`` is set.
        """
        from repro.engine.engine import QueryBatch, SearchEngine

        batch = QueryBatch.build(queries, predicates, k=k, ef_search=ef_search)
        with SearchEngine(self) as engine:
            result = engine.search_batch(batch)
        return result if with_stats else result.results
