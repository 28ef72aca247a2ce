"""Unit tests for the §5.2 selectivity-threshold router
(``RoutePlanner(policy="static")``)."""

import numpy as np
import pytest

from repro.predicates import Equals, OneOf
from repro.predicates.selectivity import SelectivityEstimator
from repro.routing import RoutePlanner


class FixedEstimator(SelectivityEstimator):
    """Test double returning a canned selectivity."""

    def __init__(self, value: float) -> None:
        self.value = value

    def estimate(self, predicate) -> float:
        return self.value


def _static(index, **kwargs):
    return RoutePlanner(index, policy="static", **kwargs)


class TestRouting:
    def test_low_selectivity_prefilters(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        searcher = _static(acorn_index, estimator=FixedEstimator(0.01))
        searcher.search(vectors[0], Equals("label", 2), 5)
        assert searcher.last_plan.route == "pre-filter"

    def test_high_selectivity_uses_graph(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        searcher = _static(acorn_index, estimator=FixedEstimator(0.5))
        searcher.search(vectors[0], Equals("label", 2), 5)
        assert searcher.last_plan.route == "acorn-gamma"

    def test_s_min_defaults_to_index(self, acorn_index):
        searcher = _static(acorn_index)
        assert searcher.s_min == pytest.approx(acorn_index.params.s_min)

    def test_compiled_predicate_uses_exact_selectivity(
        self, acorn_index, small_vectors
    ):
        vectors, _ = small_vectors
        compiled = Equals("label", 2).compile(acorn_index.table)
        searcher = _static(acorn_index, estimator=FixedEstimator(0.0))
        searcher.search(vectors[0], compiled, 5)
        # Compiled predicates carry exact selectivity; estimator ignored.
        assert searcher.last_plan.estimated_selectivity == pytest.approx(
            compiled.selectivity
        )

    def test_prefilter_route_has_perfect_results(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        predicate = Equals("label", 3)
        compiled = predicate.compile(acorn_index.table)
        searcher = _static(acorn_index, s_min=1.1)  # force prefilter
        result = searcher.search(vectors[0], predicate, 5)
        assert searcher.last_plan.route == "pre-filter"
        assert compiled.passes_many(result.ids).all()
        assert (np.diff(result.distances) >= 0).all()

    def test_misestimate_degrades_only_efficiency(
        self, acorn_index, small_vectors
    ):
        """Paper §5.2: a wrong route still returns valid passing results."""
        vectors, _ = small_vectors
        predicate = OneOf("label", [0, 1, 2])  # actually high selectivity
        compiled = predicate.compile(acorn_index.table)
        wrong = _static(acorn_index, estimator=FixedEstimator(0.001))
        result = wrong.search(vectors[0], predicate, 5)
        assert wrong.last_plan.route == "pre-filter"
        assert compiled.passes_many(result.ids).all()
        assert len(result) == 5


class TestExplain:
    def test_prefilter_plan(self, acorn_index):
        searcher = _static(acorn_index, estimator=FixedEstimator(0.01))
        plan = searcher.plan(Equals("label", 2), 5)
        assert plan.route == "pre-filter"
        assert plan.estimated_selectivity == pytest.approx(0.01)
        assert "< s_min" in plan.reason

    def test_graph_plan(self, acorn_index):
        searcher = _static(acorn_index, estimator=FixedEstimator(0.5))
        plan = searcher.plan(Equals("label", 2), 5)
        assert plan.route == "acorn-gamma"
        assert ">= s_min" in plan.reason
        # The static rule never costs routes.
        assert plan.predicted_costs == {}

    def test_compiled_predicate_uses_exact(self, acorn_index):
        compiled = Equals("label", 2).compile(acorn_index.table)
        searcher = _static(acorn_index, estimator=FixedEstimator(0.0))
        plan = searcher.plan(compiled, 5)
        assert plan.estimated_selectivity == pytest.approx(compiled.selectivity)


class TestStats:
    def test_stats_fields(self, acorn_index):
        stats = acorn_index.stats()
        assert stats["num_vectors"] == len(acorn_index)
        assert stats["levels"] == acorn_index.graph.max_level + 1
        assert stats["params"]["gamma"] == acorn_index.params.gamma
        assert stats["level_population"][0] == len(acorn_index)
        assert stats["nbytes"] > 0


class TestRouterBatch:
    def test_shared_predicate(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        searcher = _static(acorn_index)
        results = searcher.search_batch(vectors[:4], Equals("label", 1), k=3)
        assert len(results) == 4
        compiled = Equals("label", 1).compile(acorn_index.table)
        for result in results:
            assert compiled.passes_many(result.ids).all()

    def test_length_mismatch(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        searcher = _static(acorn_index)
        with pytest.raises(ValueError, match="predicates"):
            searcher.search_batch(vectors[:3], [Equals("label", 1)], k=3)
