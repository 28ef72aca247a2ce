"""Deliberate-misroute regressions: wrong estimates cost counters, not recall.

The planner's core safety claim is that a bad selectivity estimate (or
a bad cost prediction) changes *which* route answers a query — and
therefore how many distance computations it spends — but never the
quality of the answer.  These tests feed the planner estimators that
lie in both directions and pin recall@10 against a truthful planner.
"""

import numpy as np
import pytest

from repro.baselines.prefilter import PreFilterSearcher
from repro.eval.metrics import recall_at_k
from repro.predicates import Equals, OneOf
from repro.predicates.selectivity import SelectivityEstimator
from repro.routing import CostModel, RoutePlanner, RoutingFeedback, WalkBudget


class EstimateDrivenModel(CostModel):
    """A cost model whose route choice hinges *only* on the estimate.

    On a 600-vector fixture the real model's vectorized-scan discount
    makes pre-filter the argmin for any estimate at any ef, so a lying
    estimator could never flip a route.  This stub makes the graph win
    exactly when the (possibly lying) estimate is high, letting the
    tests misroute on purpose while executing at exhaustive ef — where
    every route is exact and recall differences isolate the planner.
    """

    def units(self, route, selectivity, k, ef_search, correlation=0.0):
        s = min(max(float(selectivity), self.s_floor), 1.0)
        if route == "pre-filter":
            return s * self.n + k
        if route == "acorn-gamma":
            return (1.0 - s) * self.n + k
        return super().units(route, selectivity, k, ef_search, correlation)


def _estimate_driven_model(acorn_index):
    return EstimateDrivenModel(
        n=len(acorn_index),
        m=acorn_index.params.m,
        gamma=acorn_index.params.gamma,
    )


class OverEstimator(SelectivityEstimator):
    """Claims every predicate passes nearly everything (pushes the
    planner toward graph routes)."""

    def estimate(self, predicate) -> float:
        return 0.95


class UnderEstimator(SelectivityEstimator):
    """Claims every predicate passes almost nothing (pushes the planner
    toward pre-filter)."""

    def estimate(self, predicate) -> float:
        return 0.001


def _workload(rng, n_queries=16):
    queries = [rng.standard_normal(16).astype(np.float32)
               for _ in range(n_queries)]
    preds = []
    for i in range(n_queries):
        if i % 2:
            preds.append(Equals("label", i % 6))
        else:
            preds.append(OneOf("label", (i % 6, (i + 2) % 6)))
    return queries, preds


def _ground_truth(acorn_index, queries, preds, k=10):
    pre = PreFilterSearcher(
        acorn_index.store.vectors, acorn_index.table,
        metric=acorn_index.metric,
    )
    return [
        pre.search(q, p.compile(acorn_index.table), k)
        for q, p in zip(queries, preds)
    ]


def _run(planner, queries, preds, k=10, ef=64):
    return [planner.search(q, p, k, ef_search=ef)
            for q, p in zip(queries, preds)]


def _mean_recall(results, truth, k=10):
    return float(np.mean([
        recall_at_k(r.ids, t.ids, k) for r, t in zip(results, truth)
    ]))


@pytest.fixture(scope="module")
def workload(acorn_index):
    rng = np.random.default_rng(77)
    queries, preds = _workload(rng)
    return queries, preds, _ground_truth(acorn_index, queries, preds)


class TestLyingEstimators:
    def test_overestimate_misroutes_but_keeps_recall(
        self, acorn_index, workload
    ):
        queries, preds, truth = workload
        n = len(acorn_index)
        model = _estimate_driven_model(acorn_index)
        truthful = RoutePlanner(
            acorn_index, policy="adaptive", cost_model=model,
        )
        lying = RoutePlanner(
            acorn_index, policy="adaptive", estimator=OverEstimator(),
            cost_model=model,
        )
        honest = _run(truthful, queries, preds, ef=n)
        routed = _run(lying, queries, preds, ef=n)
        # The lie is visible in the telemetry...
        assert any(r.estimator_error > 0.1 for r in routed)
        assert all(r.est_selectivity == pytest.approx(0.95)
                   for r in routed)
        # ...and the misroute actually happened for at least one query
        # (0.95 >> every true selectivity here, so the liar graphs
        # where the truthful planner pre-filters)...
        assert any(a.route_chosen != b.route_chosen
                   for a, b in zip(honest, routed))
        # ...but recall@10 does not degrade: at exhaustive ef every
        # route is exact, so the misroute can only move cost counters.
        assert _mean_recall(routed, truth) >= _mean_recall(honest, truth)

    def test_underestimate_forces_prefilter_and_exact_results(
        self, acorn_index, workload
    ):
        queries, preds, truth = workload
        lying = RoutePlanner(
            acorn_index, policy="adaptive", estimator=UnderEstimator(),
        )
        routed = _run(lying, queries, preds)
        # 0.001 selectivity makes pre-filter the predicted argmin for
        # every query — and pre-filter is exact, whatever the estimate.
        assert all(r.route_chosen == "pre-filter" for r in routed)
        for r, t in zip(routed, truth):
            assert np.array_equal(r.ids, t.ids)
            assert np.allclose(r.distances, t.distances)
        assert all(r.estimator_error < 0 for r in routed)

    def test_misroute_moves_cost_counters_only(self, acorn_index, workload):
        """Same query, same answer quality, different bill."""
        queries, preds, truth = workload
        n = len(acorn_index)
        model = _estimate_driven_model(acorn_index)
        over = _run(
            RoutePlanner(acorn_index, policy="adaptive",
                         estimator=OverEstimator(), cost_model=model),
            queries, preds, ef=n,
        )
        under = _run(
            RoutePlanner(acorn_index, policy="adaptive",
                         estimator=UnderEstimator(), cost_model=model),
            queries, preds, ef=n,
        )
        assert _mean_recall(over, truth) == pytest.approx(1.0)
        assert _mean_recall(under, truth) == pytest.approx(1.0)
        # At exhaustive ef the graph route scans the passing set (the
        # ef·M/2 cutoff covers every predicate), so the lie is free.
        assert ([r.distance_computations for r in over]
                == [r.distance_computations for r in under])
        # Below the cutoff (16·M/2 = 64 < every passing count) the graph
        # route walks, and the two lies produce different cost profiles.
        over = _run(
            RoutePlanner(acorn_index, policy="adaptive",
                         estimator=OverEstimator(), cost_model=model),
            queries, preds, ef=16,
        )
        under = _run(
            RoutePlanner(acorn_index, policy="adaptive",
                         estimator=UnderEstimator(), cost_model=model),
            queries, preds, ef=16,
        )
        assert all(r.hops > 0 for r in over)
        assert (
            sum(r.distance_computations for r in over)
            != sum(r.distance_computations for r in under)
        )

    def test_feedback_recovers_from_lying_estimator(self, acorn_index):
        """Repeating a misrouted signature lets observed cost override
        the lie: the planner converges to the cheaper route."""
        feedback = RoutingFeedback()
        lying = RoutePlanner(
            acorn_index, policy="adaptive", estimator=OverEstimator(),
            feedback=feedback,
        )
        rng = np.random.default_rng(78)
        query = rng.standard_normal(16).astype(np.float32)
        pred = Equals("label", 3)  # truly selective: graph is the lie
        for _ in range(3):
            last = lying.search(query, pred, 10, ef_search=64)
        plan = lying.last_plan
        # After observations, the prediction for the converged route is
        # observation-driven, not model-driven.
        assert last.route_chosen == min(
            plan.predicted_costs, key=plan.predicted_costs.__getitem__
        )
        assert feedback.queries_recorded >= 3


class TestFallbackSafetyNet:
    def test_fallback_equals_prefilter_baseline(self, acorn_index):
        """Even with a hostile estimator AND a starved hop budget, an
        aborted walk answers byte-identically to pre-filter."""
        planner = RoutePlanner(
            acorn_index,
            policy="adaptive",
            estimator=OverEstimator(),
            feedback=RoutingFeedback(initial_scales={"acorn-gamma": 1e-6}),
            walk_budget=WalkBudget(hop_budget=1),
        )
        pre = PreFilterSearcher(
            acorn_index.store.vectors, acorn_index.table,
            metric=acorn_index.metric,
        )
        rng = np.random.default_rng(79)
        queries, preds = _workload(rng, n_queries=10)
        fallbacks = 0
        for query, pred in zip(queries, preds):
            result = planner.search(query, pred, 10, ef_search=48)
            expected = pre.search(query, pred.compile(acorn_index.table), 10)
            assert np.array_equal(result.ids, expected.ids)
            assert np.allclose(result.distances, expected.distances)
            fallbacks += result.fallback_triggered
        assert fallbacks > 0
