"""Sharded ACORN: partitioned indexes with predicate-aware routing.

The serving-scale layer above a single ACORN index: partition the base
vectors and their :class:`~repro.attributes.table.AttributeTable` across
N shards, build one frozen-CSR ACORN index per shard, and answer hybrid
queries by scatter-gather with an array top-k merge.  A
:class:`ShardRouter` consults per-shard attribute summaries (numeric
min/max, exact small-domain value counts, keyword Bloom digests,
equi-width histograms) to skip shards whose predicate mask is provably
empty and to scale per-shard search effort by estimated local
selectivity.  Pruning is *sound*: a shard is only skipped when no row in
it can pass the predicate, so sharded results match the per-shard
exhaustive union exactly.

Quickstart::

    from repro.shard import AttributeRangePartitioner, ShardedAcornIndex

    sharded = ShardedAcornIndex.build(
        vectors, table,
        partitioner=AttributeRangePartitioner("year", n_shards=4),
    )
    result = sharded.search(query, Between("year", 2001, 2004), k=10)
    result.shards_pruned, result.shards_probed   # routing visibility

Shards are probed one after another on the calling thread.  An
exception raised inside a shard's search reaches the caller of
:meth:`ShardedAcornIndex.search` unchanged — there is no partial
answer.

See ``docs/sharding.md`` for partitioner choice, routing rules, merge
semantics, and the stats contract.
"""

from repro.shard.partition import (
    AttributeRangePartitioner,
    HashPartitioner,
    Partitioner,
    ShardAssignment,
    partitioner_from_spec,
    subset_table,
)
from repro.shard.router import ShardDecision, ShardPlan, ShardRouter
from repro.shard.sharded import (
    ShardedAcornIndex,
    merge_topk,
)
from repro.shard.summary import (
    KeywordDigest,
    KeywordSummary,
    NumericSummary,
    ShardSummary,
    summarize_table,
)

__all__ = [
    "AttributeRangePartitioner",
    "HashPartitioner",
    "KeywordDigest",
    "KeywordSummary",
    "NumericSummary",
    "Partitioner",
    "ShardAssignment",
    "ShardDecision",
    "ShardPlan",
    "ShardRouter",
    "ShardSummary",
    "ShardedAcornIndex",
    "merge_topk",
    "partitioner_from_spec",
    "subset_table",
]
