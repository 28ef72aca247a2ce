"""The paper's §5.2 selectivity rule through ``RoutePlanner(index)``.

The rule — rank a passing set below ``s_min = 1/γ`` exactly instead of
walking it — is ``AcornIndex.search``'s own (``AcornIndex.scans``).  The
planner runs the index and stamps the route: its answer and counters are
the index's, byte for byte, in both regimes and over every index family.
On the shared fixture (600 rows, γ = 6) ``s_min · n`` is 100 rows; at
``ef_search`` 16 the count cutoff is 64, so label 3 (97 rows) scans and
label 2 (101 rows) walks.
"""

import numpy as np
import pytest

from repro.attributes import AttributeTable
from repro.baselines.prefilter import PreFilterSearcher
from repro.core import AcornIndex, AcornOneIndex, AcornParams, FlatAcornIndex
from repro.predicates import Equals, TruePredicate
from repro.predicates.base import CompiledPredicate
from repro.routing import RoutePlanner

EF = 16
LOW, HIGH = Equals("label", 3), Equals("label", 2)


def _exact(index, query, predicate, k):
    pre = PreFilterSearcher(index.store.vectors, index.table,
                            metric=index.metric)
    return pre.search(query, predicate, k)


def _assert_exact(result, want):
    assert result.ids.tobytes() == want.ids.tobytes()
    assert result.distances.tobytes() == want.distances.tobytes()
    assert result.distance_computations == want.distance_computations


@pytest.fixture(scope="module")
def world():
    gen = np.random.default_rng(81)
    n = 300
    vectors = gen.standard_normal((n, 10)).astype(np.float32)
    table = AttributeTable(n)
    table.add_int_column("label", gen.integers(0, 3, size=n))
    return vectors, table


@pytest.fixture(scope="module")
def families(world):
    """ACORN-γ, ACORN-1 and flat over the same 300 rows."""
    vectors, table = world
    params = AcornParams(m=8, gamma=6, m_beta=12, ef_construction=24)
    return {
        "acorn-gamma": AcornIndex.build(vectors, table, params=params,
                                        seed=0),
        "acorn-1": AcornOneIndex.build(vectors, table, m=12,
                                       ef_construction=24, seed=0),
        "flat": FlatAcornIndex.build(vectors, table, params=params, seed=0),
    }


def _predicate(table, regime):
    """20 passing rows (under every family's count cutoff at ef 8: 32
    for M = 8, 48 for ACORN-1's M = 12) scan; label 1 (≈ 100 rows, above
    s_min · n = 50 and the cutoffs, n = 300 above ef · Mβ = 96) walks."""
    if regime == "walk":
        return Equals("label", 1).compile(table)
    mask = np.zeros(len(table), dtype=bool)
    mask[np.random.default_rng(3).choice(len(table), 20, replace=False)] = 1
    return CompiledPredicate(TruePredicate(), mask, table=table)


class TestPlannerIsTheIndex:
    @pytest.mark.parametrize("regime", ["scan", "walk"])
    @pytest.mark.parametrize("family", ["acorn-gamma", "acorn-1", "flat"])
    def test_same_answer_and_counters(self, world, families, family, regime):
        vectors, table = world
        index = families[family]
        planner = RoutePlanner(index)
        compiled = _predicate(table, regime)
        for query in vectors[:6] + 0.05:
            want = index.search(query, compiled, 5, ef_search=8)
            got = planner.search(query, compiled, 5, ef_search=8)
            assert (want.hops == 0) is (regime == "scan")
            assert got.ids.tobytes() == want.ids.tobytes()
            assert got.distances.tobytes() == want.distances.tobytes()
            assert (got.distance_computations, got.hops,
                    got.visited_nodes) == (want.distance_computations,
                                           want.hops, want.visited_nodes)
            assert got.route_chosen == "acorn-gamma"
            assert got.route_reason.endswith(
                "scans" if regime == "scan" else "walks")
            assert got.est_selectivity == compiled.selectivity
            assert got.estimator_error == 0.0
            assert got.fallback_triggered is False

    @pytest.mark.parametrize("regime", ["scan", "walk"])
    def test_record_is_the_index_record_plus_the_stamp(
        self, world, families, regime
    ):
        """The planner stamps the record the index built for this very
        query: every other field — answer bytes, counters, anything a
        deeper layer set — is the index's, and a bare search afterwards
        carries no stamp."""
        vectors, table = world
        index = families["acorn-gamma"]
        compiled = _predicate(table, regime)
        got = RoutePlanner(index).search(vectors[1], compiled, 5, ef_search=8)
        want = index.search(vectors[1], compiled, 5, ef_search=8)
        stamp = {"est_selectivity", "route_chosen", "route_reason"}
        assert vars(got).keys() - stamp == vars(want).keys()
        for name, value in vars(want).items():
            if isinstance(value, np.ndarray):
                assert getattr(got, name).tobytes() == value.tobytes(), name
            else:
                assert getattr(got, name) == value, name
        assert (want.route_chosen, want.route_reason) == ("", "")
        assert want.est_selectivity == 0.0

    def test_raw_predicate_compiles_against_the_table(self, world, families):
        vectors, table = world
        index = families["acorn-gamma"]
        got = RoutePlanner(index).search(vectors[0], Equals("label", 1), 5,
                                         ef_search=8)
        want = index.search(vectors[0], Equals("label", 1), 5, ef_search=8)
        assert got.ids.tobytes() == want.ids.tobytes()
        assert got.est_selectivity == Equals("label", 1).compile(
            table).selectivity

    def test_freeze_forwards_to_the_index(self, world):
        vectors, table = world
        index = AcornIndex.build(vectors[:50], AttributeTable(50), seed=0,
                                 params=AcornParams(m=4, gamma=2, m_beta=8))
        assert index._frozen is None
        RoutePlanner(index).freeze()
        assert index._frozen is not None

    def test_rejects_any_other_keyword(self, families):
        with pytest.raises(TypeError):
            RoutePlanner(families["acorn-gamma"], acorn_one=None)


class TestRouting:
    def test_low_selectivity_prefilters(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        result = RoutePlanner(acorn_index).search(vectors[0], LOW, 5,
                                                  ef_search=EF)
        assert result.hops == 0
        assert result.route_chosen == "acorn-gamma"
        assert "scans" in result.route_reason
        _assert_exact(result, _exact(acorn_index, vectors[0], LOW, 5))

    def test_high_selectivity_uses_graph(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        result = RoutePlanner(acorn_index).search(vectors[0], HIGH, 5,
                                                  ef_search=EF)
        assert result.hops > 0
        assert result.route_chosen == "acorn-gamma"
        assert "walks" in result.route_reason

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
        result = RoutePlanner(acorn_index).search(vectors[0], compiled, 5,
                                                  ef_search=EF)
        assert result.est_selectivity == compiled.selectivity
        assert result.estimator_error == 0.0

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
