"""End-to-end pipeline tests: dataset → index → sweep → report."""

import pytest

from repro.core import AcornIndex, AcornOneIndex, AcornParams
from repro.datasets import make_laion_like, make_tripclick_like
from repro.eval import SweepRunner, render_sweeps
from repro.routing import RoutePlanner


class TestSiftPipeline:
    @pytest.fixture(scope="class")
    def pieces(self, sift_tiny):
        params = AcornParams(m=8, gamma=12, m_beta=16, ef_construction=32)
        index = AcornIndex.build(
            sift_tiny.vectors, sift_tiny.table, params=params, seed=0
        )
        return sift_tiny, index

    def test_acorn_reaches_high_recall(self, pieces):
        dataset, index = pieces
        runner = SweepRunner(dataset, k=10)
        sweep = runner.sweep("acorn", index, efforts=[16, 64, 128])
        assert sweep.max_recall() > 0.9

    def test_report_renders(self, pieces):
        dataset, index = pieces
        runner = SweepRunner(dataset, k=10)
        sweep = runner.sweep("acorn", index, efforts=[32])
        out = render_sweeps([sweep], recall_target=0.5)
        assert "acorn" in out


class TestRouterPipeline:
    def test_router_serves_mixed_selectivity(self, sift_tiny):
        params = AcornParams(m=8, gamma=4, m_beta=16, ef_construction=32)
        index = AcornIndex.build(
            sift_tiny.vectors, sift_tiny.table, params=params, seed=0
        )
        searcher = RoutePlanner(index)
        scanned = set()
        for query, compiled in zip(
            sift_tiny.queries, sift_tiny.compiled_predicates()
        ):
            result = searcher.search(query.vector, compiled, 10,
                                     ef_search=48)
            assert result.route_chosen == "acorn-gamma"
            scanned.add(result.hops == 0)
        # s_min = 0.25 > label selectivity 1/12: the index pre-filters
        # every query.
        assert scanned == {True}

    def test_router_uses_graph_when_selective_enough(self, sift_tiny):
        params = AcornParams(m=8, gamma=24, m_beta=16, ef_construction=32)
        index = AcornIndex.build(
            sift_tiny.vectors, sift_tiny.table, params=params, seed=0
        )
        searcher = RoutePlanner(index)
        compiled = sift_tiny.compiled_predicates()[0]
        result = searcher.search(
            sift_tiny.queries[0].vector, compiled, 5, ef_search=5,
        )
        assert result.route_chosen == "acorn-gamma"
        # s_min = 1/24 < label selectivity 1/12, and the passing count
        # exceeds the cutoff of 5·8/2 = 20: the index walks.
        assert compiled.cardinality > max(20, len(index) / 24)
        assert result.hops > 0


class TestTripclickPipeline:
    def test_contains_predicates_end_to_end(self):
        dataset = make_tripclick_like(
            n=400, dim=16, n_queries=25, workload="areas", seed=2
        )
        params = AcornParams(m=8, gamma=6, m_beta=16, ef_construction=32)
        index = AcornIndex.build(
            dataset.vectors, dataset.table, params=params, seed=1
        )
        runner = SweepRunner(dataset, k=10)
        sweep = runner.sweep("acorn", index, efforts=[64])
        assert sweep.max_recall() > 0.8

    def test_between_predicates_end_to_end(self):
        dataset = make_tripclick_like(
            n=400, dim=16, n_queries=25, workload="dates", seed=2
        )
        index = AcornOneIndex.build(
            dataset.vectors, dataset.table, m=16, ef_construction=48, seed=1
        )
        runner = SweepRunner(dataset, k=10)
        sweep = runner.sweep("acorn-1", index, efforts=[64])
        assert sweep.max_recall() > 0.75


class TestRegexPipeline:
    def test_regex_predicates_end_to_end(self):
        dataset = make_laion_like(
            n=400, dim=16, n_queries=20, workload="regex", seed=3
        )
        params = AcornParams(m=8, gamma=8, m_beta=16, ef_construction=32)
        index = AcornIndex.build(
            dataset.vectors, dataset.table, params=params, seed=1
        )
        searcher = RoutePlanner(index)
        runner = SweepRunner(dataset, k=10)
        sweep = runner.sweep("acorn+router", searcher, efforts=[64])
        assert sweep.max_recall() > 0.8
