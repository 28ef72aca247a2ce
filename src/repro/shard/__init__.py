"""Sharded ACORN: partitioned indexes with predicate-aware routing.

The serving-scale layer above a single ACORN index: partition the base
vectors and their :class:`~repro.attributes.table.AttributeTable` across
N shards, build one frozen-CSR ACORN index per shard, and answer hybrid
queries by scatter-gather with a streaming top-k merge.  A
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

With a :class:`ResiliencePolicy`, probed shards run under per-shard
deadlines, bounded retries, and circuit breakers; failed shards drop
out and the query returns a degraded partial top-k with exact
accounting (``shards_failed``, ``shards_timed_out``, ``degraded``,
``recall_ceiling``).  The deterministic chaos harness
(:class:`FaultPlan` / :class:`FaultInjector`) wraps any shard set with
seeded, wall-clock-free faults for testing.

See ``docs/sharding.md`` for partitioner choice, routing rules, merge
semantics, and the stats contract, and ``docs/resilience.md`` for the
failure model.
"""

from repro.shard.faults import (
    Fault,
    FaultInjector,
    FaultPlan,
    FaultyShard,
    ShardFault,
)
from repro.shard.partition import (
    AttributeRangePartitioner,
    HashPartitioner,
    Partitioner,
    ShardAssignment,
    partitioner_from_spec,
    subset_table,
)
from repro.shard.persistence import ShardLoadError, load_sharded, save_sharded
from repro.shard.resilience import (
    BreakerState,
    CircuitBreaker,
    ProbeOutcome,
    ResiliencePolicy,
    recall_ceiling,
    resilient_probe,
    validate_shard_result,
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
    "BreakerState",
    "CircuitBreaker",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "FaultyShard",
    "HashPartitioner",
    "KeywordDigest",
    "KeywordSummary",
    "NumericSummary",
    "Partitioner",
    "ProbeOutcome",
    "ResiliencePolicy",
    "ShardAssignment",
    "ShardDecision",
    "ShardFault",
    "ShardLoadError",
    "ShardPlan",
    "ShardRouter",
    "ShardSummary",
    "ShardedAcornIndex",
    "load_sharded",
    "merge_topk",
    "partitioner_from_spec",
    "recall_ceiling",
    "resilient_probe",
    "save_sharded",
    "subset_table",
    "validate_shard_result",
]
