"""The per-query record, declared once: telemetry fields and how they combine.

Every layer that answers a query — kernel, baseline, route planner,
scatter-gather, lifecycle snapshot, batch engine, serving — reports on
one record.  :class:`QueryStats` declares each telemetry field once,
with the two rules every other enumeration is derived from: ``fold``
(how a composite combines the field across the child results it
gathered — ``sum``/``any``/``max``, or ``own``: not folded, the
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

_FOLD_RULES = {"sum": sum, "any": any, "max": max}


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
            distance tally for a lone query.
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
        shards_pruned: shards without a passing row, skipped
            (0 for unsharded searchers).  For a sharded searcher
            ``shards_probed + shards_pruned`` equals its shard count —
            the accounting invariant the shard test suite pins.
        route_chosen: ``"acorn-gamma"`` on a result a
            :class:`~repro.routing.RoutePlanner` stamped (``""`` for
            every other searcher).
        route_reason: the planner's stamp: whether the index scanned
            or walked (``""`` when unrouted).
        fallback_triggered: always False: no layer abandons a walk any
            more.  The field stays only because the benchmark's
            ``workloads.py`` reads it.
        estimator_error: always 0.0: the planner stamps the compiled
            predicate's exact selectivity, so there is no estimate to
            miss.  The field stays only because the benchmark's
            ``workloads.py`` reads it.
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
    route_chosen: str = _telemetry("", route_counts="tally")
    route_reason: str = _telemetry("")
    fallback_triggered: bool = _telemetry(
        False, "any", fallbacks_triggered="count"
    )
    estimator_error: float = _telemetry(
        0.0, mean_abs_estimator_error="mean_abs"
    )
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
            search's counters.
        est_selectivity: route planner only — the compiled predicate's
            exact selectivity.
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
        beam kernels hand back."""
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
