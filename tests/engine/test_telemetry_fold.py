"""One accounting invariant across every composite searcher.

Each composite (scatter-gather, lifecycle snapshot) builds its result
with :func:`repro.telemetry.fold_telemetry`; the route planner copies
its one child's record and stamps its route fields.  For every case
below the test re-runs the *children* the composite searched, directly,
and checks

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
    SearchEngine,
    ShardedAcornIndex,
)
from repro.baselines.prefilter import PreFilterSearcher
from repro.predicates.base import CompiledPredicate
from repro.telemetry import QueryStats, SearchResult, fold_telemetry

# EF keeps the scan cutoff, max(EF, K)·M/2 = 24, below the ≈ 53 rows
# PREDICATE passes per shard of three, so every child walks.
N, DIM, K, EF = 240, 8, 5, 8
PARAMS = AcornParams(m=6, gamma=4, m_beta=10, ef_construction=16)
PREDICATE = OneOf("label", (0, 1, 2, 3))
RULES = {"sum": sum, "any": any, "max": max}
FOLDED = {
    f.name: RULES[f.metadata["fold"]]
    for f in dataclasses.fields(QueryStats) if f.metadata["fold"] != "own"
}
ENGINE_STAMPED = {"query_index", "predicate_cache_hit", "wall_time_s"}
ROUTE_FIELDS = {
    "route_chosen", "route_reason", "fallback_triggered", "estimator_error",
}
SHARD_FIELDS = {"shards_probed", "shards_pruned"}


def _world():
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((N, DIM)).astype(np.float32)
    table = AttributeTable(N)
    table.add_int_column("label", rng.integers(0, 6, size=N))
    table.add_int_column("year", rng.integers(2000, 2012, size=N))
    return vectors, table


VECTORS, TABLE = _world()
QUERY = np.random.default_rng(4).standard_normal(DIM).astype(np.float32)


def _index(vectors, table):
    return AcornIndex.build(vectors, table, params=PARAMS, seed=1)


# ----------------------------------------------------------------------
# Cases: each returns (composite, children(result) -> child records,
# fields the composite owns).
# ----------------------------------------------------------------------

def _planner_single_route():
    planner = RoutePlanner(_index(VECTORS, TABLE))

    def children(result):
        assert result.route_chosen == "acorn-gamma"
        return [planner.index.search(QUERY, PREDICATE, K, ef_search=EF)]

    return planner, children, ROUTE_FIELDS


def _sharded(n_shards):
    def case():
        index = ShardedAcornIndex.build(
            VECTORS, TABLE, HashPartitioner(n_shards), build_shard=_index,
        )

        def children(result):
            compiled = PREDICATE.compile(TABLE)
            found = []
            for record in result.per_shard:
                if record["pruned"]:
                    continue
                gids = index.assignment.global_ids[record["shard"]]
                local = CompiledPredicate(PREDICATE, compiled.mask[gids])
                found.append(index.shards[record["shard"]].search(
                    QUERY, local, K, ef_search=record["ef_search"]
                ))
            assert len(found) == n_shards
            assert result.shards_probed == n_shards
            return found

        return index, children, SHARD_FIELDS

    return case


def _lifecycle(churn):
    def case():
        lc = LifecycleIndex.build(VECTORS, TABLE, params=PARAMS, seed=1)
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
            for view, alive in zip(snap.deltas, snap._delta_alive):
                _, _, scored = view.topk(QUERY, PREDICATE, K, alive)
                found.append(QueryStats(distance_computations=scored))
            assert len(found) == 1 + churn
            assert result.epoch == lc.current_epoch
            return found

        return lc, children, {"epoch"}

    return case


# "planner-static" keeps its id: the planner runs the index, whose §5.2
# rule is its only route.
CASES = {
    "planner-static": _planner_single_route,
    "sharded-1": _sharded(1),
    "sharded-3": _sharded(3),
    "lifecycle-base-only": _lifecycle(churn=False),
    "lifecycle-delta-tombstones": _lifecycle(churn=True),
}


# The "float32" tag keeps the ids these tests had beside an sq8 arm.
@pytest.mark.parametrize("vectors", ["float32"])
@pytest.mark.parametrize("case", CASES)
def test_composite_folds_its_children(case, vectors):
    composite, children_of, owned = CASES[case]()
    result = composite.search(QUERY, PREDICATE, K, ef_search=EF)
    children = children_of(result)
    assert isinstance(result, SearchResult)
    for name, rule in FOLDED.items():
        if name in owned:
            continue
        want = rule([getattr(child, name) for child in children])
        assert getattr(result, name) == want, name
        assert type(getattr(result, name)) is type(want), name
    assert result.distance_computations > 0


@pytest.mark.parametrize("vectors", ["float32"])
@pytest.mark.parametrize("case", CASES)
def test_engine_stats_equal_result_telemetry(case, vectors):
    direct = CASES[case]()[0].search(QUERY, PREDICATE, K, ef_search=EF)
    composite = CASES[case]()[0]
    with SearchEngine(composite) as engine:
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


def _churned_lifecycle(index):
    """A lifecycle over ``index`` with a delta segment and tombstones."""
    lc = LifecycleIndex(index)
    rng = np.random.default_rng(9)
    for _ in range(12):
        lc.insert(rng.standard_normal(DIM).astype(np.float32),
                  {"label": 1, "year": 2005})
    for external_id in (3, 17, N + 2):
        assert lc.delete(external_id)
    return lc


#: Every kind of searcher the engine serves (the index, the planner and
#: the lifecycle over one built index; the others over the same rows).
SEARCHERS = {
    "index": lambda index: index,
    "planner": RoutePlanner,
    "sharded": lambda _: ShardedAcornIndex.build(
        VECTORS, TABLE, HashPartitioner(3), build_shard=_index),
    "lifecycle": _churned_lifecycle,
    "prefilter": lambda _: PreFilterSearcher(VECTORS, TABLE),
}
#: The route fields only the planner stamps.
ROUTED = {"planner": "acorn-gamma"}


# The process executor ships only plain ACORN indexes to its workers.
@pytest.mark.parametrize("searcher, executor", [
    ("planner", "sync"), ("index", "sync"), ("index", "process"),
    ("sharded", "sync"), ("lifecycle", "sync"), ("prefilter", "sync"),
])
def test_engine_record_is_result_telemetry_plus_engine_fields(
    searcher, executor
):
    """Each ``stats[i]`` is a plain ``QueryStats`` equal to the record
    built field by field: the result's telemetry plus ``query_index``,
    ``predicate_cache_hit`` and ``wall_time_s``."""
    target = SEARCHERS[searcher](_index(VECTORS, TABLE))
    queries = np.stack([QUERY, VECTORS[5], VECTORS[9], QUERY])
    predicates = [PREDICATE, OneOf("label", (0,)), PREDICATE,
                  OneOf("label", (5,))]
    with SearchEngine(target, executor=executor, num_workers=2) as engine:
        outcome = engine.search_batch(queries, predicates, k=K, ef_search=EF)
        assert engine.process_fallbacks == 0
    assert outcome.num_workers == (2 if executor == "process" else 1)
    hits = [False, False, True, False]
    for i, (result, stats) in enumerate(zip(outcome.results, outcome.stats)):
        assert type(stats) is QueryStats
        want = {f.name: getattr(result, f.name)
                for f in dataclasses.fields(QueryStats)}
        want.update(query_index=i, predicate_cache_hit=hits[i],
                    wall_time_s=stats.wall_time_s)
        assert stats.to_dict() == want
        # Nothing only a result has rides along unseen.
        assert vars(stats).keys() <= want.keys()
        assert stats.wall_time_s > 0
        assert stats.distance_computations == result.distance_computations > 0
    assert {s.route_chosen for s in outcome.stats} == {
        ROUTED.get(searcher, "")}


def test_fold_with_no_children_keeps_defaults():
    assert fold_telemetry([]) == {}
    assert fold_telemetry([], epoch=3) == {"epoch": 3}
    result = SearchResult.empty()
    assert result.shards_probed == 0 and not result.fallback_triggered


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
