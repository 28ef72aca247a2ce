"""The per-query record, declared once: telemetry fields and how they combine.

Every layer that answers a query — kernel, baseline, route planner,
scatter-gather, lifecycle snapshot, batch engine, serving — reports on
one record.  :class:`QueryStats` declares each telemetry field once,
with the two rules every other enumeration is derived from: ``fold``
(how a composite combines the field across the child results it
gathered — ``sum``/``any``/``min``/``max``, or ``own``: not folded, the
default unless the owning layer sets it) and ``summary`` (the
``{key: rule}`` rows it feeds into ``BatchResult.summary()``).
:class:`SearchResult` is the same record plus the answer, so a counter
a kernel sets reads the same on a sharded, routed or lifecycle result,
on the engine's ``QueryStats`` and in a batch summary.  The field table
and the "adding a field" recipe are in ``docs/engine.md``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

_FOLD_RULES = {"sum": sum, "any": any, "min": min, "max": max}


def _telemetry(default, fold: str = "own", **summary: str):
    """One telemetry field: default, fold rule, ``key=rule`` summary rows."""
    return dataclasses.field(
        default=default, metadata={"fold": fold, "summary": summary}
    )


@dataclasses.dataclass(frozen=True, init=False)
class QueryStats:
    """Telemetry for one query, as set by whichever layers answered it.

    Construction is keyword-only and *sparse*: a record stores just the
    fields its caller names; the rest read their default from the class
    attribute the dataclass machinery leaves behind.  (A record is built
    at every layer of every query; the generated frozen ``__init__``
    pays one ``object.__setattr__`` per declared field, ~4 µs of a
    ~100 µs pre-filtered query.)  ``fields()``, ``asdict()``,
    ``replace()``, equality, pickling and frozen-ness are unaffected.

    Attributes:
        query_index: position of the query in its batch (results and
            stats lists are both ordered by this index).
        distance_computations: *exact float32* distances evaluated
            answering this query, the paper's hardware-independent cost
            measure (Table 3) — equal to the delta of the global
            distance tally for a lone query.  On the quantized path
            this counts the descent plus the rerank tail only.
        hops: graph nodes expanded during traversal (0 for flat scans).
        visited_nodes: visited-set insertions during traversal (0 for
            flat scans).
        predicate_cache_hit: True when the query's predicate mask came
            from the engine's LRU cache (or was supplied pre-compiled);
            False when the engine had to materialize the mask.
        wall_time_s: wall-clock seconds spent inside the underlying
            ``search`` call, measured on the worker thread.
        shards_probed: shards that executed a search for this query
            (0 for unsharded searchers).
        shards_pruned: shards the router proved empty and skipped
            (0 for unsharded searchers).  For a sharded searcher
            ``shards_probed + shards_pruned`` equals its shard count —
            the accounting invariant the shard test suite pins.
        shards_failed: probed shards that exhausted their resilience
            retry budget on exceptions, invalid payloads, or open
            circuit breakers (0 without a resilience policy).
        shards_timed_out: probed shards dropped for exceeding their
            per-shard deadline; disjoint from ``shards_failed``, and
            ``shards_failed + shards_timed_out <= shards_probed``.
        degraded: True when this query returned a partial top-k over
            surviving shards rather than the full scatter-gather.
        recall_ceiling: estimated upper bound on this query's recall
            given shard failures (1.0 when not degraded), from the
            router's per-shard selectivity estimates.
        route_chosen: the route that produced this query's final
            results (``""`` for searchers without a route planner;
            ``"pre-filter"`` after a mid-search fallback; the majority
            route across probed shards under per-shard routing).
        route_reason: the planner's decision rationale, the walk
            monitor's abort reason after a fallback, or the per-shard
            route tally (``""`` when unrouted).
        fallback_triggered: True when a monitored graph walk was
            abandoned mid-search and the results come from the
            pre-filter fallback.
        estimator_error: signed selectivity-estimation error
            (``estimate - exact``) of the routing decision — the mean
            across probed shards under per-shard routing (0.0 when
            unrouted).
        quantized_distances: approximate distances evaluated on the
            quantized (int8/PQ) hot path for this query — disjoint
            from ``distance_computations``, which stays exact-float32
            only (0 for unquantized searchers).
        rerank_distances: exact float32 distances spent re-scoring the
            quantized candidate head (a subset of
            ``distance_computations``; 0 when unquantized).
        rerank_factor: the rerank budget multiplier in effect
            (``rerank_factor * k`` candidates re-scored; 0.0 when
            unquantized).
        queue_wait_ms: milliseconds between the serving layer admitting
            the query and its batch starting on the dispatch thread —
            coalescing buffer plus any wait behind an earlier batch
            (0.0 for direct engine calls).
        batch_size_served: size of the coalesced GEMM batch the query
            rode in (0 for direct engine calls).
        tenant_id: submitting tenant in the serving layer (``""`` for
            direct engine calls).
        epoch: lifecycle epoch snapshot that answered the query (0 for
            searchers without a streaming lifecycle).  Every query in a
            batch reports the same epoch — the engine pins one snapshot
            per :class:`~repro.engine.engine.QueryBatch`.
    """

    query_index: int = _telemetry(0)
    distance_computations: int = _telemetry(
        0, "sum", distance_computations="percentiles",
        total_distance_computations="sum",
    )
    hops: int = _telemetry(0, "sum")
    visited_nodes: int = _telemetry(0, "sum")
    predicate_cache_hit: bool = _telemetry(
        False, cache_hits="count", cache_misses="count_false"
    )
    wall_time_s: float = _telemetry(0.0, latency_s="percentiles")
    shards_probed: int = _telemetry(0, "sum", shards_probed="sum")
    shards_pruned: int = _telemetry(0, "sum", shards_pruned="sum")
    shards_failed: int = _telemetry(0, "sum", shards_failed="sum")
    shards_timed_out: int = _telemetry(0, "sum", shards_timed_out="sum")
    degraded: bool = _telemetry(False, "any", degraded_queries="count")
    recall_ceiling: float = _telemetry(1.0, "min", min_recall_ceiling="min")
    route_chosen: str = _telemetry("", route_counts="tally")
    route_reason: str = _telemetry("")
    fallback_triggered: bool = _telemetry(
        False, "any", fallbacks_triggered="count"
    )
    estimator_error: float = _telemetry(
        0.0, mean_abs_estimator_error="mean_abs"
    )
    quantized_distances: int = _telemetry(
        0, "sum", total_quantized_distances="sum"
    )
    rerank_distances: int = _telemetry(0, "sum", total_rerank_distances="sum")
    rerank_factor: float = _telemetry(0.0, "max")
    queue_wait_ms: float = _telemetry(0.0, mean_queue_wait_ms="mean")
    batch_size_served: int = _telemetry(0, mean_batch_size_served="mean")
    tenant_id: str = _telemetry("", tenant_counts="tally")
    epoch: int = _telemetry(0, "max", max_epoch="max")

    _required = frozenset()  # fields without a default (see SearchResult)

    def __init__(self, **values) -> None:
        declared = self.__dataclass_fields__.keys()
        if not self._required <= values.keys() <= declared:
            raise TypeError(
                f"{type(self).__name__} needs {sorted(self._required)} and "
                f"has no field(s) {sorted(values.keys() - declared)}"
            )
        self.__dict__.update(values)

    def to_dict(self) -> dict:
        """The record as a plain JSON-serializable dict."""
        return dataclasses.asdict(self)

    def stamped(self, **owned) -> "QueryStats":
        """This record's telemetry as a plain :class:`QueryStats`, with
        the caller's own fields (``owned``) set — one construction, no
        per-field copying."""
        values = {
            name: value for name, value in self.__dict__.items()
            if name in QueryStats.__dataclass_fields__
        }
        values.update(owned)
        return QueryStats(**values)


_FOLDED = {
    f.name: _FOLD_RULES[f.metadata["fold"]]
    for f in dataclasses.fields(QueryStats) if f.metadata["fold"] != "own"
}


def fold_telemetry(children, **owned) -> dict:
    """Telemetry keyword arguments for a composite searcher's result.

    Every folded field is combined across ``children`` (the
    :class:`QueryStats`/:class:`SearchResult` records the composite
    gathered) by its declared rule; ``owned`` then sets the fields the
    composite is itself the source of.  Only the fields a child stored
    are visited — each default is its rule's identity, so an unset
    field cannot change a fold — and the rules are associative, so the
    running pairwise fold equals the rule over all children.
    """
    folded: dict = {}
    for child in children:
        for name, value in child.__dict__.items():
            if name in _FOLDED:
                folded[name] = (
                    _FOLDED[name]((folded[name], value))
                    if name in folded else value
                )
    folded.update(owned)
    return folded


@dataclasses.dataclass(frozen=True, init=False, eq=False)
class SearchResult(QueryStats):
    """Outcome of one (possibly hybrid) search: the answer and its record.

    Every searcher returns this class; layers that have nothing to say
    about a field leave its default.

    Attributes:
        ids: result ids, ascending distance, length <= K.
        distances: matching distances (rank-preserving metric values).
        per_shard: scatter-gather only — one dict per shard (plan order)
            with the routing decision and, for probed shards, the local
            search's counters plus resilience accounting
            (``status``/``attempts``/``failure``).
        est_selectivity: route planner only — the selectivity estimate
            the routing decision used.
        delta_candidates: lifecycle only — delta entries that passed
            the predicate and were scored exactly.
        base_candidates: lifecycle only — results the base graph search
            contributed before the merge.
    """

    ids: np.ndarray
    distances: np.ndarray
    per_shard: tuple = ()
    est_selectivity: float = 0.0
    delta_candidates: int = 0
    base_candidates: int = 0

    _required = frozenset({"ids", "distances"})

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @classmethod
    def from_pairs(cls, pairs, **values) -> "SearchResult":
        """A result from ascending ``(distance, id)`` pairs — what the
        beam kernels and the streaming merge hand back."""
        return cls(
            ids=np.asarray([i for _, i in pairs], dtype=np.intp),
            distances=np.asarray([d for d, _ in pairs], dtype=np.float32),
            **values,
        )

    @classmethod
    def empty(cls, distance_computations: int = 0) -> "SearchResult":
        """The no-neighbours result (empty index, empty predicate)."""
        return cls(
            ids=np.empty(0, dtype=np.intp),
            distances=np.empty(0, dtype=np.float32),
            distance_computations=distance_computations,
        )
