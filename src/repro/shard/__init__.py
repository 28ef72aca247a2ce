"""Sharded ACORN: partitioned indexes with mask-driven shard pruning.

The serving-scale layer above a single ACORN index: partition the base
vectors and their :class:`~repro.attributes.table.AttributeTable` across
N shards, build one frozen-CSR ACORN index per shard, and answer hybrid
queries by scatter-gather with an array top-k merge.  The query
predicate compiles once into a mask over the global table; one pass
over it counts each shard's passing rows, and a shard is skipped
exactly when it has none.  Pruning reads the mask, not a summary, so it
holds for every predicate shape (regexes included) and sharded results
match the per-shard exhaustive union exactly.

Quickstart::

    from repro.shard import AttributeRangePartitioner, ShardedAcornIndex

    sharded = ShardedAcornIndex.build(
        vectors, table,
        partitioner=AttributeRangePartitioner("year", n_shards=4),
    )
    result = sharded.search(query, Between("year", 2001, 2004), k=10)
    result.shards_pruned, result.shards_probed   # pruning visibility

Shards are probed one after another on the calling thread.  An
exception raised inside a shard's search reaches the caller of
:meth:`ShardedAcornIndex.search` unchanged — there is no partial
answer.

See ``docs/sharding.md`` for partitioner choice, the pruning rule,
merge semantics, and the stats contract.
"""

from repro.shard.partition import (
    AttributeRangePartitioner,
    HashPartitioner,
    Partitioner,
    ShardAssignment,
    partitioner_from_spec,
    subset_table,
)
from repro.shard.sharded import (
    ShardDecision,
    ShardedAcornIndex,
    ShardPlan,
    merge_topk,
)

__all__ = [
    "AttributeRangePartitioner",
    "HashPartitioner",
    "Partitioner",
    "ShardAssignment",
    "ShardDecision",
    "ShardPlan",
    "ShardedAcornIndex",
    "merge_topk",
    "partitioner_from_spec",
    "subset_table",
]
