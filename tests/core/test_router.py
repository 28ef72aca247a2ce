"""The paper's §5.2 selectivity rule through ``RoutePlanner(index)``.

The rule — rank a passing set below ``s_min = 1/γ`` exactly instead of
walking it — is ``AcornIndex.search``'s own (``AcornIndex.scans``).  A
planner over ACORN-γ alone has nothing left to decide: it runs the
index and stamps the route.  On the shared fixture (600 rows, γ = 6)
``s_min · n`` is 100 rows; at ``ef_search`` 16 the count cutoff is 64,
so label 3 (97 rows) scans and label 2 (101 rows) walks.
"""

import numpy as np
import pytest

from repro.baselines.prefilter import PreFilterSearcher
from repro.predicates import Equals, OneOf, TruePredicate
from repro.predicates.base import CompiledPredicate
from repro.predicates.selectivity import SelectivityEstimator
from repro.routing import RoutePlanner

EF = 16
LOW, HIGH = Equals("label", 3), Equals("label", 2)


class FixedEstimator(SelectivityEstimator):
    """Test double returning a canned selectivity."""

    def __init__(self, value: float) -> None:
        self.value = value

    def estimate(self, predicate) -> float:
        return self.value


def _exact(index, query, predicate, k):
    pre = PreFilterSearcher(index.store.vectors, index.table,
                            metric=index.metric)
    return pre.search(query, predicate, k)


def _assert_exact(result, want):
    assert result.ids.tobytes() == want.ids.tobytes()
    assert result.distances.tobytes() == want.distances.tobytes()
    assert result.distance_computations == want.distance_computations


class TestRouting:
    def test_low_selectivity_prefilters(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        # The index decides on the exact count, whatever the estimate.
        searcher = RoutePlanner(acorn_index, estimator=FixedEstimator(0.5))
        result = searcher.search(vectors[0], LOW, 5, ef_search=EF)
        assert result.hops == 0
        assert searcher.last_plan.route == "acorn-gamma"
        assert "scans" in searcher.last_plan.reason
        _assert_exact(result, _exact(acorn_index, vectors[0], LOW, 5))

    def test_high_selectivity_uses_graph(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        searcher = RoutePlanner(acorn_index, estimator=FixedEstimator(0.01))
        result = searcher.search(vectors[0], HIGH, 5, ef_search=EF)
        assert result.hops > 0
        assert searcher.last_plan.route == "acorn-gamma"
        assert "walks" in searcher.last_plan.reason

    def test_s_min_defaults_to_index(self, acorn_index, small_vectors):
        """The threshold is the index's own ``s_min · n``: 100 passing
        rows scan, 101 walk."""
        vectors, _ = small_vectors
        assert len(acorn_index) * acorn_index.params.s_min == pytest.approx(
            100)
        searcher = RoutePlanner(acorn_index)
        for count, scans in ((100, True), (101, False)):
            mask = np.zeros(len(acorn_index), dtype=bool)
            mask[np.random.default_rng(count).choice(
                len(acorn_index), size=count, replace=False)] = True
            pred = CompiledPredicate(TruePredicate(), mask,
                                     table=acorn_index.table)
            result = searcher.search(vectors[1], pred, 5, ef_search=EF)
            assert (result.hops == 0) is scans
            if scans:
                assert result.distance_computations == count

    def test_compiled_predicate_uses_exact_selectivity(
        self, acorn_index, small_vectors
    ):
        vectors, _ = small_vectors
        compiled = LOW.compile(acorn_index.table)
        searcher = RoutePlanner(acorn_index)
        searcher.search(vectors[0], compiled, 5, ef_search=EF)
        # Compiled predicates carry exact selectivity.
        assert searcher.last_plan.estimated_selectivity == pytest.approx(
            compiled.selectivity
        )
        # A lying estimator shows in the telemetry, not in the decision.
        liar = RoutePlanner(acorn_index, estimator=FixedEstimator(0.9))
        result = liar.search(vectors[0], compiled, 5, ef_search=EF)
        assert result.hops == 0
        assert result.estimator_error == pytest.approx(
            0.9 - compiled.selectivity)

    def test_prefilter_route_has_perfect_results(self, acorn_index,
                                                 small_vectors):
        vectors, _ = small_vectors
        searcher = RoutePlanner(acorn_index)
        compiled = LOW.compile(acorn_index.table)
        for query in vectors[:8]:
            result = searcher.search(query, LOW, 5, ef_search=EF)
            assert compiled.passes_many(result.ids).all()
            assert (np.diff(result.distances) >= 0).all()
            _assert_exact(result, _exact(acorn_index, query, LOW, 5))

    def test_misestimate_degrades_only_efficiency(
        self, acorn_index, small_vectors
    ):
        """Paper §5.2: a wrong estimate still returns valid passing results."""
        vectors, _ = small_vectors
        predicate = OneOf("label", [0, 1, 2])  # actually high selectivity
        compiled = predicate.compile(acorn_index.table)
        wrong = RoutePlanner(acorn_index, estimator=FixedEstimator(0.001))
        result = wrong.search(vectors[0], predicate, 5, ef_search=EF)
        assert wrong.last_plan.route == "acorn-gamma"
        assert result.hops > 0
        assert result.estimator_error < 0
        assert compiled.passes_many(result.ids).all()
        assert len(result) == 5


class TestExplain:
    def test_prefilter_plan(self, acorn_index):
        searcher = RoutePlanner(acorn_index, estimator=FixedEstimator(0.01))
        plan = searcher.plan(LOW, 5, ef_search=EF)
        assert plan.route == "acorn-gamma"
        assert plan.estimated_selectivity == pytest.approx(0.01)
        assert "scans" in plan.reason

    def test_graph_plan(self, acorn_index):
        searcher = RoutePlanner(acorn_index, estimator=FixedEstimator(0.5))
        plan = searcher.plan(HIGH, 5, ef_search=EF)
        assert plan.route == "acorn-gamma"
        assert "walks" in plan.reason
        # A single route is never costed.
        assert plan.predicted_costs == {}

    def test_compiled_predicate_uses_exact(self, acorn_index):
        compiled = Equals("label", 2).compile(acorn_index.table)
        searcher = RoutePlanner(acorn_index, estimator=FixedEstimator(0.0))
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
        searcher = RoutePlanner(acorn_index)
        results = searcher.search_batch(vectors[:4], Equals("label", 1), k=3)
        assert len(results) == 4
        compiled = Equals("label", 1).compile(acorn_index.table)
        for result in results:
            assert compiled.passes_many(result.ids).all()

    def test_length_mismatch(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        searcher = RoutePlanner(acorn_index)
        with pytest.raises(ValueError, match="predicates"):
            searcher.search_batch(vectors[:3], [Equals("label", 1)], k=3)
