"""The route stamp's contracts.

- ``RoutePlanner(index)`` is byte-identical to the paper's §5.2
  threshold rule written out by hand (results and counters) — the rule
  is the index's own, so there is nothing left to decide;
- at exhaustive ``ef_search`` it returns the brute-force top-k;
- the route stamp threads through the batch engine into ``QueryStats``
  and ``BatchResult.summary()``; unrouted searchers leave it empty.
"""

import numpy as np
import pytest

from repro.baselines.prefilter import PreFilterSearcher
from repro.engine import QueryBatch, SearchEngine
from repro.predicates import Equals, OneOf, TruePredicate
from repro.predicates.base import CompiledPredicate
from repro.routing import ROUTE_ACORN_GAMMA, RoutePlanner
from repro.routing.planner import REASON_SCANS, REASON_WALKS
from repro.telemetry import SearchResult
from tests.conftest import assert_results_identical


def _query_stream(rng, n_queries, dim=16):
    return [rng.standard_normal(dim).astype(np.float32)
            for _ in range(n_queries)]


def _predicate_stream(n_queries):
    preds = []
    for i in range(n_queries):
        if i % 2:
            preds.append(Equals("label", i % 6))
        else:
            preds.append(OneOf("label", ((i % 6), (i + 1) % 6, (i + 3) % 6)))
    return preds


class TestConstruction:
    def test_rejects_unknown_policy(self, acorn_index):
        with pytest.raises(ValueError):
            RoutePlanner(acorn_index, policy="greedy")

    def test_rejects_nonpositive_k(self, acorn_index):
        with pytest.raises(ValueError):
            RoutePlanner(acorn_index).search(
                np.zeros(16, dtype=np.float32), Equals("label", 0), 0
            )


class TestStaticByteCompat:
    def test_matches_hybrid_searcher_exactly(self, acorn_index,
                                             small_vectors):
        """The §5.2 rule the deleted ``HybridSearcher`` implemented,
        written out: pre-filter at or below ``s_min`` of the live rows
        or the count cutoff (tombstones composed into the mask),
        ``index.search`` otherwise."""
        from repro.attributes import AttributeTable
        from repro.core import AcornIndex, AcornParams

        table = AttributeTable(300)
        table.add_int_column(
            "label", np.random.default_rng(8).integers(0, 6, size=300)
        )
        tombstoned = AcornIndex.build(
            small_vectors[0][:300], table, seed=5,
            params=AcornParams(m=8, gamma=6, m_beta=16, ef_construction=24),
        )
        for node in range(0, 300, 7):
            tombstoned.mark_deleted(node)

        for index in (acorn_index, tombstoned):
            prefilter = PreFilterSearcher(
                index.store.vectors, index.table, metric=index.metric
            )
            n_live = len(index) - index.num_deleted
            cutoff = 16 * index.params.m // 2
            scans = 0

            def rule(query, pred):
                compiled = pred.compile(index.table)
                mask = index._effective_mask(compiled.mask)
                count = int(mask.sum())
                if count * index.params.gamma > n_live and count > cutoff:
                    return index.search(query, pred, 10, ef_search=16)
                return prefilter.search(
                    query, CompiledPredicate(compiled.predicate, mask), 10
                )

            planner = RoutePlanner(index)
            rng = np.random.default_rng(11)
            for query, pred in zip(_query_stream(rng, 24),
                                   _predicate_stream(24)):
                a = rule(query, pred)
                b = planner.search(query, pred, 10, ef_search=16)
                assert b.route_chosen == "acorn-gamma"
                assert_results_identical(a, b, counters=a.hops > 0)
                scans += b.hops == 0
            assert 0 < scans < 24

    def test_static_route_matches_threshold_rule(self, acorn_index):
        """The index scans exactly the queries the rule sends to
        pre-filter; the route is ACORN-γ either way."""
        planner = RoutePlanner(acorn_index)
        rng = np.random.default_rng(12)
        query = rng.standard_normal(16).astype(np.float32)
        for pred in _predicate_stream(12):
            result = planner.search(query, pred, 5, ef_search=16)
            count = pred.compile(acorn_index.table).cardinality
            below = (count <= len(acorn_index) * acorn_index.params.s_min
                     or count <= 16 * acorn_index.params.m // 2)
            assert result.route_chosen == "acorn-gamma"
            assert (result.hops == 0) is below
            assert ("scans" in result.route_reason) is below

class TestAdaptive:
    def test_exhaustive_ef_matches_ground_truth(self, acorn_index):
        """At ef >= n every route is exhaustive over the passing set, so
        the planner must return exactly the brute-force top-k whatever
        route it picks."""
        n = len(acorn_index)
        pre = PreFilterSearcher(
            acorn_index.store.vectors, acorn_index.table,
            metric=acorn_index.metric,
        )
        planner = RoutePlanner(acorn_index, policy="adaptive")
        rng = np.random.default_rng(21)
        for query, pred in zip(_query_stream(rng, 16),
                               _predicate_stream(16)):
            compiled = pred.compile(acorn_index.table)
            expected = pre.search(query, compiled, 10)
            got = planner.search(query, pred, 10, ef_search=n)
            assert np.array_equal(got.ids, expected.ids)
            assert np.allclose(got.distances, expected.distances)

    def test_returns_routed_result_with_telemetry(self, acorn_index):
        planner = RoutePlanner(acorn_index, policy="adaptive")
        result = planner.search(
            np.zeros(16, dtype=np.float32), Equals("label", 2), 5
        )
        assert isinstance(result, SearchResult)
        assert result.route_chosen == ROUTE_ACORN_GAMMA
        assert "adaptive" in result.route_reason
        # The stamp carries the exact selectivity: nothing to misestimate.
        assert result.estimator_error == 0.0
        assert not result.fallback_triggered
        assert result.est_selectivity == pytest.approx(
            Equals("label", 2).compile(acorn_index.table).selectivity
        )

class TestStamp:
    """The stamped result is the index's record plus the planner's
    three route fields: ids, distance bytes and every counter are the
    index's own."""

    ROUTE_FIELDS = {"route_chosen", "route_reason", "est_selectivity"}

    @pytest.mark.parametrize("route", ["scans", "walks"])
    def test_index_record_plus_route_fields(self, acorn_index, route):
        rng = np.random.default_rng(5)
        query = rng.standard_normal(16).astype(np.float32)
        table = acorn_index.table
        if route == "scans":
            mask = np.zeros(len(table), dtype=bool)
            mask[rng.choice(len(table), size=20, replace=False)] = True
            pred = CompiledPredicate(TruePredicate(), mask, table=table)
            want_reason = REASON_SCANS
        else:
            pred = OneOf("label", (0, 1, 2))
            want_reason = REASON_WALKS
        direct = acorn_index.search(query, pred, 5, ef_search=16)
        stamped = RoutePlanner(acorn_index).search(query, pred, 5,
                                                   ef_search=16)
        assert (direct.hops > 0) is (route == "walks")
        assert direct.distance_computations > 0
        assert stamped.ids.tobytes() == direct.ids.tobytes()
        assert stamped.distances.tobytes() == direct.distances.tobytes()

        def record(result):
            return {name: value for name, value in result.to_dict().items()
                    if name not in self.ROUTE_FIELDS | {"ids", "distances"}}

        assert record(stamped) == record(direct)
        assert stamped.route_chosen == ROUTE_ACORN_GAMMA
        assert stamped.route_reason == want_reason
        compiled = pred if route == "scans" else pred.compile(table)
        assert stamped.est_selectivity == int(compiled.mask.sum()) / len(table)


class TestEngineIntegration:
    def test_stats_carry_routing_fields(self, acorn_index):
        planner = RoutePlanner(acorn_index, policy="adaptive")
        rng = np.random.default_rng(41)
        queries = np.stack(_query_stream(rng, 12))
        preds = _predicate_stream(12)
        batch = QueryBatch.build(queries, preds, k=5, ef_search=32)
        with SearchEngine(planner, num_workers=1) as engine:
            outcome = engine.search_batch(batch)
        assert all(s.route_chosen == ROUTE_ACORN_GAMMA
                   for s in outcome.stats)
        assert all(s.route_reason for s in outcome.stats)
        summary = outcome.summary()
        assert summary["route_counts"] == {ROUTE_ACORN_GAMMA: len(batch)}
        assert summary["fallbacks_triggered"] == 0

    def test_unrouted_searcher_stats_stay_empty(self, acorn_index):
        rng = np.random.default_rng(43)
        queries = np.stack(_query_stream(rng, 4))
        batch = QueryBatch.build(
            queries, _predicate_stream(4), k=5, ef_search=32
        )
        with SearchEngine(acorn_index, num_workers=1) as engine:
            outcome = engine.search_batch(batch)
        assert all(s.route_chosen == "" for s in outcome.stats)
        assert outcome.summary()["route_counts"] == {}


class TestShardedRouting:
    def test_plain_sharded_keeps_empty_route_fields(self, small_vectors,
                                                    labeled_table):
        from repro.core.params import AcornParams
        from repro.shard import HashPartitioner, ShardedAcornIndex

        plain = ShardedAcornIndex.build(
            small_vectors[0], labeled_table,
            partitioner=HashPartitioner(n_shards=3),
            params=AcornParams(m=8, gamma=6, m_beta=16, ef_construction=32),
            seed=2,
        )
        result = plain.search(
            np.zeros(16, dtype=np.float32), Equals("label", 1), 5,
        )
        assert result.route_chosen == ""
        assert result.fallback_triggered is False
        assert all(
            "route_chosen" not in r for r in result.per_shard
        )

    def test_route_policy_is_gone(self, small_vectors, labeled_table):
        from repro.shard import HashPartitioner, ShardedAcornIndex

        with pytest.raises(TypeError):
            ShardedAcornIndex.build(
                small_vectors[0], labeled_table,
                partitioner=HashPartitioner(n_shards=2),
                route_policy="adaptive",
            )
