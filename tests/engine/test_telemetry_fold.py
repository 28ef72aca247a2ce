"""One accounting invariant across every composite searcher.

Each composite (route planner, scatter-gather, lifecycle snapshot,
sharded lifecycle) builds its result with
:func:`repro.telemetry.fold_telemetry`.  For every case below the test
re-runs the *children* the composite searched, directly, and checks

- every folded field of the composite result equals its declared rule
  (``sum``/``any``/``min``/``max``) over those child results, apart from
  the fields that composite owns;
- the ``QueryStats`` the batch engine returns equals the result's
  telemetry apart from the three fields the engine stamps.

Plus the schema guards: ``SearchResult`` is the only result class, no
other dataclass re-declares a telemetry field, and the field table in
``docs/engine.md`` matches the metadata.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import (
    AcornIndex,
    AcornParams,
    AttributeTable,
    HashPartitioner,
    LifecycleIndex,
    OneOf,
    RoutePlanner,
    RoutingFeedback,
    SearchEngine,
    ShardedAcornIndex,
    ShardedLifecycleIndex,
    WalkBudget,
)
from repro.engine import resolve_table
from repro.predicates.base import CompiledPredicate
from repro.shard import Fault, FaultInjector, FaultPlan, ResiliencePolicy
from repro.telemetry import QueryStats, SearchResult, fold_telemetry
from repro.utils.clock import FakeClock

# EF keeps the scan cutoff, max(EF, K)·M/2 = 24, below the ≈ 53 rows
# PREDICATE passes per shard of three, so every child walks.
N, DIM, K, EF = 240, 8, 5, 8
PARAMS = AcornParams(m=6, gamma=4, m_beta=10, ef_construction=16)
PREDICATE = OneOf("label", (0, 1, 2, 3))
RULES = {"sum": sum, "any": any, "min": min, "max": max}
FOLDED = {
    f.name: RULES[f.metadata["fold"]]
    for f in dataclasses.fields(QueryStats) if f.metadata["fold"] != "own"
}
ENGINE_STAMPED = {"query_index", "predicate_cache_hit", "wall_time_s"}
ROUTE_FIELDS = {
    "route_chosen", "route_reason", "fallback_triggered", "estimator_error",
}
SHARD_FIELDS = {
    "shards_probed", "shards_pruned", "shards_failed", "shards_timed_out",
    "degraded", "recall_ceiling",
}


def _world():
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((N, DIM)).astype(np.float32)
    table = AttributeTable(N)
    table.add_int_column("label", rng.integers(0, 6, size=N))
    table.add_int_column("year", rng.integers(2000, 2012, size=N))
    return vectors, table


VECTORS, TABLE = _world()
QUERY = np.random.default_rng(4).standard_normal(DIM).astype(np.float32)


def _index(vectors, table, quantization):
    return AcornIndex.build(vectors, table, params=PARAMS, seed=1,
                            quantization=quantization)


# ----------------------------------------------------------------------
# Cases: each returns (composite, children(result) -> child records,
# fields the composite owns).
# ----------------------------------------------------------------------

def _planner_static(quantization):
    planner = RoutePlanner(_index(VECTORS, TABLE, quantization),
                           policy="static")

    def children(result):
        assert result.route_chosen == "acorn-gamma"
        return [planner.index.search(QUERY, PREDICATE, K, ef_search=EF)]

    return planner, children, ROUTE_FIELDS


def _planner_fallback(quantization):
    def make():
        # An optimistic graph scale forces a graph attempt; a one-hop
        # budget guarantees the walk aborts.
        return RoutePlanner(
            _index(VECTORS, TABLE, quantization), policy="adaptive",
            feedback=RoutingFeedback(initial_scales={"acorn-gamma": 1e-6}),
            walk_budget=WalkBudget(hop_budget=1),
        )

    planner = make()

    def children(result):
        assert result.fallback_triggered
        assert result.route_chosen == "pre-filter"
        twin = make()
        walk = twin.index.search(
            QUERY, PREDICATE, K, ef_search=EF,
            monitor=twin._make_monitor(K, EF, twin.index),
        )
        return [walk, twin.prefilter.search(QUERY, PREDICATE, K)]

    return planner, children, ROUTE_FIELDS


def _sharded(n_shards, fail_shard=None):
    def case(quantization):
        clock = FakeClock()
        index = ShardedAcornIndex.build(
            VECTORS, TABLE, HashPartitioner(n_shards),
            build_shard=lambda v, t: _index(v, t, quantization),
            resilience=(
                None if fail_shard is None else ResiliencePolicy(
                    shard_deadline_s=1.0, max_retries=0,
                    breaker_threshold=100, clock=clock,
                )
            ),
        )
        healthy = index
        if fail_shard is not None:
            plan = FaultPlan({fail_shard: (Fault(kind="error"),)})
            index = index.with_faults(FaultInjector(plan, clock=clock))

        def children(result):
            compiled = PREDICATE.compile(TABLE)
            found = []
            for record in result.per_shard:
                if record["pruned"] or record["status"] != "ok":
                    continue
                gids = healthy.assignment.global_ids[record["shard"]]
                local = CompiledPredicate(PREDICATE, compiled.mask[gids])
                found.append(healthy.shards[record["shard"]].search(
                    QUERY, local, K, ef_search=record["ef_search"]
                ))
            assert len(found) == n_shards - (fail_shard is not None)
            assert result.shards_probed == n_shards
            assert result.shards_failed == (fail_shard is not None)
            assert result.degraded == (fail_shard is not None)
            return found

        return index, children, SHARD_FIELDS

    return case


def _lifecycle(churn):
    def case(quantization):
        lc = LifecycleIndex.build(VECTORS, TABLE, params=PARAMS, seed=1,
                                  quantization=quantization)
        if churn:
            rng = np.random.default_rng(9)
            for _ in range(12):
                lc.insert(rng.standard_normal(DIM).astype(np.float32),
                          {"label": 1, "year": 2005})
            for external_id in (3, 17, N + 2):
                assert lc.delete(external_id)

        def children(result):
            snap = lc._published
            mask = np.asarray(PREDICATE.mask(snap.base.table), dtype=bool)
            found = [snap.base.search(
                QUERY, CompiledPredicate(PREDICATE, mask & snap._base_alive),
                K, ef_search=EF,
            )]
            for view in snap.deltas:
                _, scored = view.topk(QUERY, PREDICATE, K, snap.tombstones)
                found.append(QueryStats(distance_computations=scored))
            assert len(found) == 1 + churn
            assert result.epoch == lc.current_epoch
            return found

        return lc, children, {"epoch"}

    return case


def _sharded_lifecycle(quantization):
    sharded = ShardedLifecycleIndex.build(
        VECTORS, TABLE, "year", n_shards=3, params=PARAMS, seed=1,
    )
    if quantization is not None:
        # No quantization knob on the sharded lifecycle: re-wrap each
        # shard's base, rebuilt quantized over the same rows.
        for s, shard in enumerate(sharded.shards):
            base = shard._published.base
            sharded.shards[s] = LifecycleIndex(
                _index(base.store.vectors, base.table, quantization),
                config=sharded.config,
            )
    rng = np.random.default_rng(10)
    for _ in range(6):
        sharded.insert(rng.standard_normal(DIM).astype(np.float32),
                       {"label": 2, "year": int(rng.integers(2000, 2012))})

    def children(result):
        return [shard.search(QUERY, PREDICATE, K, ef_search=EF)
                for shard in sharded.shards]

    return sharded, children, {"epoch"}


CASES = {
    "planner-static": _planner_static,
    "planner-fallback": _planner_fallback,
    "sharded-1": _sharded(1),
    "sharded-3": _sharded(3),
    "sharded-3-one-failed": _sharded(3, fail_shard=1),
    "lifecycle-base-only": _lifecycle(churn=False),
    "lifecycle-delta-tombstones": _lifecycle(churn=True),
    "sharded-lifecycle": _sharded_lifecycle,
}


@pytest.mark.parametrize("quantization", [None, "sq8"],
                         ids=["float32", "sq8"])
@pytest.mark.parametrize("case", CASES)
def test_composite_folds_its_children(case, quantization):
    composite, children_of, owned = CASES[case](quantization)
    result = composite.search(QUERY, PREDICATE, K, ef_search=EF)
    children = children_of(result)
    assert isinstance(result, SearchResult)
    for name, rule in FOLDED.items():
        if name in owned:
            continue
        want = rule([getattr(child, name) for child in children])
        assert getattr(result, name) == want, name
        assert type(getattr(result, name)) is type(want), name
    if quantization is not None:
        assert result.quantized_distances > 0
        assert result.rerank_distances > 0
        assert result.rerank_factor > 0
    assert result.distance_computations > 0


@pytest.mark.parametrize("quantization", [None, "sq8"],
                         ids=["float32", "sq8"])
@pytest.mark.parametrize("case", CASES)
def test_engine_stats_equal_result_telemetry(case, quantization):
    direct = CASES[case](quantization)[0].search(
        QUERY, PREDICATE, K, ef_search=EF
    )
    composite = CASES[case](quantization)[0]
    # The sharded lifecycle exposes no table of its own; the engine then
    # compiles against the global one and each shard recompiles locally.
    table = None if resolve_table(composite) is not None else TABLE
    with SearchEngine(composite, table=table) as engine:
        outcome = engine.search_batch(QUERY[None], [PREDICATE], k=K,
                                      ef_search=EF)
    stats, result = outcome.stats[0], outcome.results[0]
    assert type(stats) is QueryStats
    for f in dataclasses.fields(QueryStats):
        if f.name in ENGINE_STAMPED:
            continue
        assert getattr(stats, f.name) == getattr(result, f.name), f.name
        assert getattr(stats, f.name) == getattr(direct, f.name), f.name
    summary = outcome.summary()
    assert summary["total_distance_computations"] == (
        result.distance_computations)
    assert summary["total_quantized_distances"] == result.quantized_distances
    assert summary["total_rerank_distances"] == result.rerank_distances


def test_fold_with_no_children_keeps_defaults():
    assert fold_telemetry([]) == {}
    assert fold_telemetry([], epoch=3) == {"epoch": 3}
    result = SearchResult.empty()
    assert result.recall_ceiling == 1.0 and not result.degraded


def test_default_is_each_fold_rules_identity():
    """``fold_telemetry`` skips fields no child stored; that is only
    sound while folding defaults reproduces the default."""
    for f in dataclasses.fields(QueryStats):
        if f.name in FOLDED:
            assert FOLDED[f.name]([f.default, f.default]) == f.default


# ----------------------------------------------------------------------
# Schema guards
# ----------------------------------------------------------------------

def _import_all():
    for _, name, _ in pkgutil.walk_packages(repro.__path__, "repro."):
        if not name.endswith("__main__"):
            importlib.import_module(name)


def test_search_result_is_the_only_result_class():
    _import_all()
    assert SearchResult.__subclasses__() == []
    assert QueryStats.__subclasses__() == [SearchResult]


def test_no_other_dataclass_redeclares_a_telemetry_field():
    """Telemetry is enumerated on the one record and nowhere else.

    A lone shared word is a different concept, not a second record
    (``TraversalStats.hops`` is the kernel's own tally,
    ``QuantizationConfig.rerank_factor`` the knob the counter reports,
    ``BatchResult.wall_time_s`` the whole batch's clock), and
    ``tenant_id``/``epoch`` are identities that request/response
    envelopes legitimately carry — so the guard is: no other dataclass
    declares two or more telemetry fields.
    """
    _import_all()
    import gc

    telemetry = {f.name for f in dataclasses.fields(QueryStats)}
    telemetry -= {"tenant_id", "epoch"}
    offenders = {}
    for cls in gc.get_objects():
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            continue
        if not cls.__module__.startswith("repro."):
            continue
        if issubclass(cls, QueryStats):
            continue
        clash = telemetry & {f.name for f in dataclasses.fields(cls)}
        if len(clash) > 1:
            offenders[f"{cls.__module__}.{cls.__name__}"] = sorted(clash)
    assert offenders == {}


def test_docs_field_table_matches_the_metadata():
    """docs/engine.md holds the one written-out field table: field ·
    who sets it · fold rule · summary key(s)."""
    text = (Path(__file__).parents[2] / "docs" / "engine.md").read_text()
    rows = re.findall(
        r"^\| `(\w+)` \| [^|]+ \| (\w+) \| ([^|]*) \|$", text, re.M
    )
    documented = {
        name: (fold, sorted(re.findall(r"`(\w+)`", keys)))
        for name, fold, keys in rows
    }
    declared = {
        f.name: (f.metadata["fold"], sorted(f.metadata["summary"]))
        for f in dataclasses.fields(QueryStats)
    }
    assert documented == declared
    assert [name for name, _, _ in rows] == list(declared)
