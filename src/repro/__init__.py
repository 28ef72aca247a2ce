"""ACORN: performant, predicate-agnostic hybrid search (SIGMOD 2024).

A from-scratch Python reproduction of *ACORN: Performant and
Predicate-Agnostic Search Over Vector Embeddings and Structured Data*
(Patel, Kraft, Guestrin, Zaharia), including the HNSW substrate, the
ACORN-gamma and ACORN-1 indices, every baseline the paper benchmarks,
the four evaluation-dataset surrogates, and the measurement harness.

Quickstart::

    import numpy as np
    from repro import AcornIndex, AcornParams, AttributeTable, Equals

    vectors = np.random.rand(1000, 64).astype("float32")
    table = AttributeTable(1000)
    table.add_int_column("price", np.random.randint(10, 500, size=1000))

    index = AcornIndex.build(
        vectors, table, params=AcornParams(m=16, gamma=8, m_beta=32)
    )
    result = index.search(vectors[0], Equals("price", 42), k=10)

    # Batched execution with per-query instrumentation:
    batch = index.search_batch(
        vectors[:8], [Equals("price", 42)] * 8, 10, with_stats=True,
    )
"""

from repro.attributes import AttributeTable, Bitset, InvertedIndex
from repro.core import (
    AcornIndex,
    AcornOneIndex,
    AcornParams,
    FlatAcornIndex,
)
from repro.core.params import PruningStrategy
from repro.engine import (
    BatchResult,
    PredicateCache,
    QueryBatch,
    QueryStats,
    SearchEngine,
)
from repro.datasets import (
    HybridDataset,
    HybridQuery,
    make_laion_like,
    make_paper_like,
    make_sift1m_like,
    make_tripclick_like,
)
from repro.hnsw import HnswIndex
from repro.lifecycle import (
    BackgroundCompactor,
    EpochSnapshot,
    LifecycleConfig,
    LifecycleIndex,
)
from repro.persistence import ArchiveError, load_index, save_index
from repro.predicates import (
    And,
    Between,
    ContainsAll,
    ContainsAny,
    Equals,
    Not,
    OneOf,
    Or,
    Predicate,
    RegexMatch,
    TruePredicate,
)
from repro.routing import RoutePlanner
from repro.serving import (
    AcornService,
    ServedResponse,
    ServingConfig,
    TenantQuota,
)
from repro.shard import (
    AttributeRangePartitioner,
    HashPartitioner,
    ShardedAcornIndex,
)
from repro.telemetry import SearchResult
from repro.vectors import Metric, VectorStore

__version__ = "1.0.0"

__all__ = [
    "AcornIndex",
    "AcornOneIndex",
    "AcornParams",
    "AcornService",
    "ArchiveError",
    "And",
    "AttributeRangePartitioner",
    "AttributeTable",
    "BackgroundCompactor",
    "BatchResult",
    "Between",
    "Bitset",
    "ContainsAll",
    "ContainsAny",
    "EpochSnapshot",
    "Equals",
    "FlatAcornIndex",
    "HashPartitioner",
    "HnswIndex",
    "HybridDataset",
    "HybridQuery",
    "InvertedIndex",
    "LifecycleConfig",
    "LifecycleIndex",
    "Metric",
    "Not",
    "OneOf",
    "Or",
    "Predicate",
    "PredicateCache",
    "PruningStrategy",
    "QueryBatch",
    "QueryStats",
    "RegexMatch",
    "RoutePlanner",
    "SearchEngine",
    "SearchResult",
    "ServedResponse",
    "ServingConfig",
    "ShardedAcornIndex",
    "TenantQuota",
    "TruePredicate",
    "VectorStore",
    "__version__",
    "load_index",
    "make_laion_like",
    "make_paper_like",
    "make_sift1m_like",
    "make_tripclick_like",
    "save_index",
]
