"""Batched, concurrent query execution with per-query instrumentation.

The serving layer over the reproduction's index structures: freeze an
index snapshot once, then answer batches of (vector, predicate) queries
inline — or in chunks on worker processes with ``executor="process"`` —
with deterministic result ordering, an LRU cache for compiled-predicate
bitmasks, and per-query distance/hop/latency telemetry aggregated into
p50/p95/p99 summaries.

Quickstart::

    from repro.engine import QueryBatch, SearchEngine

    engine = SearchEngine(index)  # or executor="process", num_workers=2
    batch = QueryBatch.build(queries, Equals("label", 3), k=10)
    result = engine.search_batch(batch)
    result.results[0].ids          # same as index.search(queries[0], ...)
    result.stats[0].distance_computations
    result.summary()["latency_s"]["p95"]
"""

from repro.engine.cache import CacheInfo, PredicateCache
from repro.engine.engine import BatchResult, QueryBatch, SearchEngine
from repro.engine.instrumentation import QueryStats

__all__ = [
    "BatchResult",
    "CacheInfo",
    "PredicateCache",
    "QueryBatch",
    "QueryStats",
    "SearchEngine",
]
