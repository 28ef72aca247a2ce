"""Routing-correctness harness for the cost-based planner.

Pins the PR's core contracts:

- ``policy="static"`` is byte-identical to the paper's §5.2 threshold
  rule written out by hand (routes, results, and counters);
- the adaptive planner's routing decisions are deterministic
  run-to-run;
- a monitored walk that aborts falls back to results identical to the
  pre-filter baseline;
- routing telemetry threads through the batch engine into
  ``QueryStats`` and ``BatchResult.summary()``;
- the sharded index's per-shard routing preserves results and
  surfaces aggregated route telemetry.
"""

import numpy as np
import pytest

from repro.baselines.prefilter import PreFilterSearcher
from repro.engine import QueryBatch, SearchEngine
from repro.eval import mean_recall_at_k
from repro.predicates import Equals, OneOf
from repro.predicates.base import CompiledPredicate
from repro.routing import (
    RoutePlanner,
    RoutingFeedback,
    WalkBudget,
)
from repro.routing.cost import ALL_ROUTES, ROUTE_PRE_FILTER
from repro.telemetry import SearchResult


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

    def test_rejects_bad_walk_budget(self, acorn_index):
        with pytest.raises(TypeError):
            RoutePlanner(acorn_index, walk_budget=42)

    def test_routes_follow_availability(self, acorn_index, acorn_one_index):
        base = RoutePlanner(acorn_index)
        assert base.routes() == ("pre-filter", "acorn-gamma")
        full = RoutePlanner(acorn_index, acorn_one=acorn_one_index,
                            postfilter=object())
        assert full.routes() == ALL_ROUTES

    def test_rejects_nonpositive_k(self, acorn_index):
        with pytest.raises(ValueError):
            RoutePlanner(acorn_index).search(
                np.zeros(16, dtype=np.float32), Equals("label", 0), 0
            )


class TestStaticByteCompat:
    def test_matches_hybrid_searcher_exactly(self, acorn_index,
                                             small_vectors):
        """The §5.2 rule the deleted ``HybridSearcher`` implemented,
        written out: pre-filter below ``s_min`` (tombstones composed
        into the mask), ``index.search`` otherwise."""
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

            def rule(query, pred):
                compiled = pred.compile(index.table)
                if compiled.selectivity >= index.params.s_min:
                    return index.search(query, pred, 10, ef_search=48)
                mask = index._effective_mask(compiled.mask)
                return prefilter.search(
                    query, CompiledPredicate(compiled.predicate, mask), 10
                )

            static = RoutePlanner(index, policy="static")
            rng = np.random.default_rng(11)
            for query, pred in zip(_query_stream(rng, 24),
                                   _predicate_stream(24)):
                a = rule(query, pred)
                b = static.search(query, pred, 10, ef_search=48)
                assert a.ids.tobytes() == b.ids.tobytes()
                assert a.distances.tobytes() == b.distances.tobytes()
                assert a.distance_computations == b.distance_computations
                assert (a.hops, a.visited_nodes) == (b.hops, b.visited_nodes)

    def test_static_route_matches_threshold_rule(self, acorn_index):
        static = RoutePlanner(acorn_index, policy="static")
        rng = np.random.default_rng(12)
        query = rng.standard_normal(16).astype(np.float32)
        for pred in _predicate_stream(12):
            result = static.search(query, pred, 5)
            s = pred.compile(acorn_index.table).selectivity
            expected = ("pre-filter" if s < acorn_index.params.s_min
                        else "acorn-gamma")
            assert result.route_chosen == expected
            assert "static" in result.route_reason

    def test_static_never_uses_monitor(self, acorn_index):
        # Static must not attach a monitor (the §5.2 rule never aborts
        # a walk).
        static = RoutePlanner(
            acorn_index, policy="static",
            walk_budget=WalkBudget(hop_budget=1),
        )
        rng = np.random.default_rng(13)
        query = rng.standard_normal(16).astype(np.float32)
        result = static.search(query, OneOf("label", (0, 1, 2, 3)), 5)
        assert result.fallback_triggered is False


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

    def test_recall_not_below_static_below_exhaustive_ef(self, acorn_index):
        """Where routes are approximate (ef << n) the cost-based choice
        may move work between routes but must not buy it with recall:
        adaptive stays within 0.01 of the static threshold rule."""
        pre = PreFilterSearcher(
            acorn_index.store.vectors, acorn_index.table,
            metric=acorn_index.metric,
        )
        queries = _query_stream(np.random.default_rng(23), 24)
        preds = _predicate_stream(24)
        truth = [pre.search(q, p.compile(acorn_index.table), 10).ids
                 for q, p in zip(queries, preds)]

        def recall(policy):
            planner = RoutePlanner(acorn_index, policy=policy)
            return mean_recall_at_k(
                [planner.search(q, p, 10, ef_search=16).ids
                 for q, p in zip(queries, preds)],
                truth, 10,
            )

        assert recall("adaptive") >= recall("static") - 0.01

    def test_decisions_deterministic_across_fresh_planners(
        self, acorn_index
    ):
        rng = np.random.default_rng(22)
        queries = _query_stream(rng, 20)
        preds = _predicate_stream(20)

        def decisions():
            planner = RoutePlanner(acorn_index, policy="adaptive")
            return [
                planner.search(q, p, 10, ef_search=32).route_chosen
                for q, p in zip(queries, preds)
            ]

        assert decisions() == decisions()

    def test_returns_routed_result_with_telemetry(self, acorn_index):
        planner = RoutePlanner(acorn_index, policy="adaptive")
        result = planner.search(
            np.zeros(16, dtype=np.float32), Equals("label", 2), 5
        )
        assert isinstance(result, SearchResult)
        assert result.route_chosen in ALL_ROUTES
        assert "adaptive" in result.route_reason
        # Exact estimator: zero estimation error.
        assert result.estimator_error == pytest.approx(0.0)
        assert result.est_selectivity == pytest.approx(
            Equals("label", 2).compile(acorn_index.table).selectivity
        )

    def test_feedback_learns_and_redirects(self, acorn_index):
        """Once a route's observed cost is recorded, a signature whose
        model guess was wrong must flip to the truly-cheaper route."""
        feedback = RoutingFeedback()
        planner = RoutePlanner(
            acorn_index, policy="adaptive", feedback=feedback,
        )
        rng = np.random.default_rng(23)
        query = rng.standard_normal(16).astype(np.float32)
        pred = OneOf("label", (0, 1, 2, 3, 4))
        first = planner.search(query, pred, 10, ef_search=64)
        second = planner.search(query, pred, 10, ef_search=64)
        sig = pred.fingerprint()
        # The attempted route was billed.
        assert feedback.observation(sig, first.route_chosen) is not None
        # With the observation in place, the second decision predicts
        # from observed cost; whatever it picks must be the argmin of
        # the recorded predictions.
        plan = planner.last_plan
        assert second.route_chosen == min(
            plan.predicted_costs, key=plan.predicted_costs.__getitem__
        )

    def test_selectivity_hint_overrides_estimator(self, acorn_index):
        planner = RoutePlanner(acorn_index, policy="adaptive")
        query = np.zeros(16, dtype=np.float32)
        pred = Equals("label", 1)
        result = planner.search(query, pred, 5, selectivity_hint=0.9)
        assert result.est_selectivity == pytest.approx(0.9)
        exact = pred.compile(acorn_index.table).selectivity
        assert result.estimator_error == pytest.approx(0.9 - exact)

    def test_correlation_signal_charges_no_search_counters(
        self, acorn_index
    ):
        """The correlation probe's distances are planning overhead, not
        search work — the result's counters must not include them."""
        plain = RoutePlanner(acorn_index, policy="adaptive")
        probing = RoutePlanner(
            acorn_index, policy="adaptive", correlation_samples=16,
        )
        query = np.zeros(16, dtype=np.float32)
        pred = Equals("label", 3)
        a = plain.search(query, pred, 5)
        b = probing.search(query, pred, 5)
        if a.route_chosen == b.route_chosen:
            assert a.distance_computations == b.distance_computations


class TestFallback:
    def _fallback_planner(self, acorn_index):
        # Optimistic graph scale forces a graph attempt; a one-hop
        # budget guarantees the walk aborts.
        return RoutePlanner(
            acorn_index,
            policy="adaptive",
            feedback=RoutingFeedback(
                initial_scales={"acorn-gamma": 1e-6}
            ),
            walk_budget=WalkBudget(hop_budget=1),
        )

    def test_fallback_identical_to_prefilter(self, acorn_index):
        planner = self._fallback_planner(acorn_index)
        pre = PreFilterSearcher(
            acorn_index.store.vectors, acorn_index.table,
            metric=acorn_index.metric,
        )
        rng = np.random.default_rng(31)
        triggered = 0
        for query, pred in zip(_query_stream(rng, 12),
                               _predicate_stream(12)):
            result = planner.search(query, pred, 10, ef_search=32)
            if result.fallback_triggered:
                triggered += 1
                expected = pre.search(
                    query, pred.compile(acorn_index.table), 10
                )
                assert np.array_equal(result.ids, expected.ids)
                assert np.allclose(result.distances, expected.distances)
                assert result.route_chosen == ROUTE_PRE_FILTER
                assert "fallback from" in result.route_reason
        assert triggered > 0

    def test_fallback_bills_walk_cost_to_query(self, acorn_index):
        planner = self._fallback_planner(acorn_index)
        pre = PreFilterSearcher(
            acorn_index.store.vectors, acorn_index.table,
            metric=acorn_index.metric,
        )
        rng = np.random.default_rng(32)
        query = rng.standard_normal(16).astype(np.float32)
        pred = OneOf("label", (0, 1, 2))
        result = planner.search(query, pred, 10, ef_search=32)
        assert result.fallback_triggered
        scan = pre.search(query, pred.compile(acorn_index.table), 10)
        # Total includes the aborted walk on top of the fallback scan.
        assert result.distance_computations > scan.distance_computations

    def test_walk_budget_none_disables_fallback(self, acorn_index):
        planner = RoutePlanner(
            acorn_index,
            policy="adaptive",
            feedback=RoutingFeedback(
                initial_scales={"acorn-gamma": 1e-6}
            ),
            walk_budget=None,
        )
        rng = np.random.default_rng(33)
        for query, pred in zip(_query_stream(rng, 8),
                               _predicate_stream(8)):
            assert not planner.search(query, pred, 5).fallback_triggered


class TestEngineIntegration:
    def test_stats_carry_routing_fields(self, acorn_index):
        planner = RoutePlanner(acorn_index, policy="adaptive")
        rng = np.random.default_rng(41)
        queries = np.stack(_query_stream(rng, 12))
        preds = _predicate_stream(12)
        batch = QueryBatch.build(queries, preds, k=5, ef_search=32)
        with SearchEngine(planner, num_workers=1) as engine:
            outcome = engine.search_batch(batch)
        assert all(s.route_chosen in ALL_ROUTES for s in outcome.stats)
        assert all(s.route_reason for s in outcome.stats)
        summary = outcome.summary()
        assert sum(summary["route_counts"].values()) == len(batch)
        assert summary["fallbacks_triggered"] == sum(
            1 for s in outcome.stats if s.fallback_triggered
        )

    def test_engine_calls_begin_batch(self, acorn_index):
        planner = RoutePlanner(acorn_index, policy="adaptive")
        rng = np.random.default_rng(42)
        queries = np.stack(_query_stream(rng, 4))
        batch = QueryBatch.build(
            queries, _predicate_stream(4), k=5, ef_search=32
        )
        with SearchEngine(planner, num_workers=1) as engine:
            engine.search_batch(batch)
            engine.search_batch(batch)
        assert planner.feedback.batches_started == 2

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


class TestPlanExplain:
    def test_plan_without_executing(self, acorn_index):
        planner = RoutePlanner(acorn_index, policy="adaptive")
        plan = planner.plan(Equals("label", 0), k=10)
        assert plan.route in planner.routes()
        assert set(plan.predicted_costs) == set(planner.routes())

    def test_static_plan_has_no_costs(self, acorn_index):
        planner = RoutePlanner(acorn_index, policy="static")
        plan = planner.plan(Equals("label", 0), k=10)
        assert plan.predicted_costs == {}
        assert plan.policy == "static"


class TestShardedRouting:
    @pytest.fixture(scope="class")
    def sharded_pair(self, small_vectors, labeled_table):
        from repro.core.params import AcornParams
        from repro.shard import HashPartitioner, ShardedAcornIndex

        params = AcornParams(m=8, gamma=6, m_beta=16, ef_construction=32)
        kwargs = dict(
            partitioner=HashPartitioner(n_shards=3),
            params=params, seed=2,
        )
        plain = ShardedAcornIndex.build(
            small_vectors[0], labeled_table, **kwargs
        )
        routed = ShardedAcornIndex.build(
            small_vectors[0], labeled_table, route_policy="adaptive",
            **kwargs
        )
        return plain, routed

    def test_routed_results_match_plain_at_exhaustive_ef(
        self, sharded_pair, small_vectors
    ):
        plain, routed = sharded_pair
        n = len(plain)
        rng = np.random.default_rng(51)
        for query, pred in zip(_query_stream(rng, 8),
                               _predicate_stream(8)):
            a = plain.search(query, pred, 10, ef_search=n)
            b = routed.search(query, pred, 10, ef_search=n)
            assert np.array_equal(a.ids, b.ids)
            assert np.allclose(a.distances, b.distances)

    def test_route_telemetry_aggregates(self, sharded_pair):
        _, routed = sharded_pair
        result = routed.search(
            np.zeros(16, dtype=np.float32), Equals("label", 1), 5,
        )
        assert result.route_chosen in ALL_ROUTES
        assert result.route_reason.startswith("shards:")
        probed_records = [
            r for r in result.per_shard if not r["pruned"]
        ]
        assert all("route_chosen" in r for r in probed_records)

    def test_plain_sharded_keeps_empty_route_fields(self, sharded_pair):
        plain, _ = sharded_pair
        result = plain.search(
            np.zeros(16, dtype=np.float32), Equals("label", 1), 5,
        )
        assert result.route_chosen == ""
        assert result.fallback_triggered is False
        assert all(
            "route_chosen" not in r for r in result.per_shard
        )

    def test_begin_batch_reaches_shard_planners(self, sharded_pair):
        _, routed = sharded_pair
        before = [p.feedback.batches_started
                  for p in routed._shard_planners]
        routed.begin_batch()
        after = [p.feedback.batches_started
                 for p in routed._shard_planners]
        assert after == [b + 1 for b in before]

    def test_rejects_unknown_route_policy(self, small_vectors,
                                          labeled_table):
        from repro.core.params import AcornParams
        from repro.shard import HashPartitioner, ShardedAcornIndex

        with pytest.raises(ValueError):
            ShardedAcornIndex.build(
                small_vectors[0], labeled_table,
                partitioner=HashPartitioner(n_shards=2),
                params=AcornParams(m=8, gamma=6, m_beta=16,
                                   ef_construction=32),
                seed=2, route_policy="wat",
            )


class TestQuantizedRouting:
    """The planner's cost model knows when a route runs on codes."""

    @pytest.fixture
    def quant_world(self):
        gen = np.random.default_rng(21)
        vectors = gen.standard_normal((300, 16)).astype(np.float32)
        from repro.attributes import AttributeTable

        table = AttributeTable(300)
        table.add_int_column("label", gen.integers(0, 3, size=300))
        from repro.core import AcornIndex, AcornParams

        params = AcornParams(m=6, gamma=6, m_beta=12, ef_construction=24)
        index = AcornIndex.build(vectors, table, params=params, seed=0,
                                 quantization="sq8")
        return vectors, table, index

    def test_default_cost_model_marks_quantized_routes(self, quant_world,
                                                       acorn_index):
        _, _, index = quant_world
        from repro.routing.cost import ROUTE_ACORN_GAMMA

        planner = RoutePlanner(index)
        assert ROUTE_ACORN_GAMMA in planner.cost_model.quantized_routes
        # An unquantized index keeps the undiscounted model.
        plain = RoutePlanner(acorn_index)
        assert not plain.cost_model.quantized_routes

    def test_quantized_counters_thread_through(self, quant_world):
        vectors, _, index = quant_world
        planner = RoutePlanner(index, policy="static")
        seen_quantized = False
        # ef 16 keeps the scan cutoff (48) below each label's ≈ 100 rows.
        for i in range(10):
            res = planner.search(vectors[i], Equals("label", i % 3), 5,
                                 ef_search=16)
            assert isinstance(res, SearchResult)
            if res.route_chosen != ROUTE_PRE_FILTER:
                assert res.quantized_distances > 0
                assert res.rerank_distances > 0
                assert res.rerank_factor > 0
                seen_quantized = True
        assert seen_quantized

    def test_quantized_counters_reach_engine_summary(self, quant_world):
        vectors, _, index = quant_world
        planner = RoutePlanner(index, policy="static")
        batch = QueryBatch.build(
            np.stack([vectors[i] for i in range(8)]),
            [Equals("label", i % 3) for i in range(8)],
            k=5, ef_search=32,
        )
        with SearchEngine(planner, num_workers=1) as engine:
            outcome = engine.search_batch(batch)
        summary = outcome.summary()
        assert summary["total_quantized_distances"] > 0
        assert summary["total_rerank_distances"] > 0
        assert any(s.quantized_distances > 0 for s in outcome.stats)
