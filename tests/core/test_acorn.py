"""Behavioural tests for the ACORN-γ index."""

import numpy as np
import pytest

from repro.attributes import AttributeTable
from repro.core import AcornIndex, AcornParams
from repro.datasets.ground_truth import filtered_knn
from repro.predicates import CompiledPredicate, Equals, TruePredicate
from tests.conftest import assert_results_identical, reference_search


class TestConstruction:
    def test_graph_invariants(self, acorn_index):
        acorn_index.graph.validate()

    def test_level_zero_lists_bounded_by_trigger(self, acorn_index):
        cap = acorn_index._cap0
        graph = acorn_index.graph
        for node in graph.nodes_at_level(0):
            assert len(graph.neighbors(node, 0)) <= cap

    def test_upper_levels_bounded_by_max_degree(self, acorn_index):
        graph = acorn_index.graph
        budget = acorn_index.params.max_degree
        for level in range(1, graph.max_level + 1):
            for node in graph.nodes_at_level(level):
                assert len(graph.neighbors(node, level)) <= budget

    def test_upper_levels_denser_than_m(self, acorn_index):
        # Neighbor expansion must produce lists beyond M on level 1.
        graph = acorn_index.graph
        avg = graph.average_out_degree(1)
        assert avg > acorn_index.params.m

    def test_edge_distance_lists_aligned(self, acorn_index):
        graph = acorn_index.graph
        for level in range(graph.max_level + 1):
            for node in graph.nodes_at_level(level):
                ids = graph.neighbors(node, level)
                dists = acorn_index._edge_dists[level][node]
                assert len(ids) == len(dists)
                assert dists == sorted(dists)

    def test_undersized_table_rejected(self, small_vectors):
        vectors, _ = small_vectors
        tiny = AttributeTable(3)
        tiny.add_int_column("label", [1, 2, 3])
        with pytest.raises(ValueError, match="rows"):
            AcornIndex.build(vectors[:10], tiny)

    def test_oversized_table_allowed_for_later_inserts(
        self, small_vectors, labeled_table
    ):
        vectors, _ = small_vectors
        index = AcornIndex.build(
            vectors[:20], labeled_table,
            params=AcornParams(m=4, gamma=2, ef_construction=12), seed=0,
        )
        assert len(index) == 20
        assert index.add(vectors[20]) == 20

    def test_add_without_attribute_row_rejected(self):
        table = AttributeTable(1)
        table.add_int_column("label", [0])
        index = AcornIndex(4, table, params=AcornParams(m=4, gamma=2))
        index.add(np.zeros(4))
        with pytest.raises(ValueError, match="attribute row"):
            index.add(np.ones(4))

    def test_metadata_pruning_requires_labels(self, labeled_table):
        with pytest.raises(ValueError, match="labels"):
            AcornIndex(
                4, labeled_table,
                params=AcornParams(m=4, gamma=2, pruning="rng-metadata"),
            )

    def test_pruning_stats_populated(self, acorn_index):
        assert acorn_index.pruning_stats.nodes_pruned > 0


class TestHybridSearch:
    @pytest.fixture(scope="class")
    def workload(self, small_vectors, labeled_table):
        vectors, _ = small_vectors
        gen = np.random.default_rng(11)
        queries = vectors[gen.integers(0, len(vectors), 40)] + 0.05
        labels = gen.integers(0, 6, size=40)
        masks = [Equals("label", int(l)).mask(labeled_table) for l in labels]
        gt = filtered_knn(vectors, list(queries), masks, k=10)
        return queries, labels, gt

    def test_recall_above_threshold(self, acorn_index, workload):
        queries, labels, gt = workload
        recalls = []
        for q, label, g in zip(queries, labels, gt):
            result = acorn_index.search(q, Equals("label", int(label)), 10,
                                        ef_search=64)
            recalls.append(
                len(set(result.ids.tolist()) & set(g.tolist())) / len(g)
            )
        assert np.mean(recalls) > 0.85

    def test_all_results_pass_predicate(self, acorn_index, workload):
        queries, labels, _ = workload
        for q, label in zip(queries, labels):
            predicate = Equals("label", int(label))
            compiled = predicate.compile(acorn_index.table)
            result = acorn_index.search(q, predicate, 10, ef_search=32)
            assert compiled.passes_many(result.ids).all()

    def test_results_sorted_by_distance(self, acorn_index, workload):
        queries, labels, _ = workload
        result = acorn_index.search(
            queries[0], Equals("label", int(labels[0])), 10, ef_search=32
        )
        assert (np.diff(result.distances) >= 0).all()

    def test_true_predicate_is_plain_ann(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        result = acorn_index.search(vectors[7], TruePredicate(), 1, ef_search=32)
        assert result.ids[0] == 7

    def test_empty_predicate_returns_empty(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        result = acorn_index.search(vectors[0], Equals("label", 999), 5)
        assert len(result) == 0

    def test_accepts_precompiled_predicate(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        compiled = Equals("label", 3).compile(acorn_index.table)
        result = acorn_index.search(vectors[0], compiled, 5, ef_search=32)
        assert compiled.passes_many(result.ids).all()

    def test_rejects_foreign_compiled_predicate(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        other = AttributeTable(3)
        other.add_int_column("label", [1, 2, 3])
        compiled = Equals("label", 1).compile(other)
        # A mask carrying its table is recompiled against this index's
        # own; stripped of the table, nothing says which rows it names.
        assert acorn_index._compile(compiled).table is acorn_index.table
        ad_hoc = CompiledPredicate(compiled.predicate, compiled.mask)
        with pytest.raises(ValueError, match="entities"):
            acorn_index.search(vectors[0], ad_hoc, 5)

    def test_rejects_non_positive_k(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        with pytest.raises(ValueError, match="k"):
            acorn_index.search(vectors[0], TruePredicate(), 0)

    def test_distance_computations_counted(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        result = acorn_index.search(vectors[0], Equals("label", 2), 5,
                                    ef_search=32)
        assert result.distance_computations > 0


class TestIntrospection:
    def test_out_degree_by_level(self, acorn_index):
        degrees = acorn_index.out_degree_by_level()
        assert degrees[0] > 0

    def test_nbytes_exceeds_vectors(self, acorn_index, small_vectors):
        vectors, _ = small_vectors
        assert acorn_index.nbytes() > vectors.nbytes

    def test_compressed_level0_smaller_than_uncompressed(
        self, small_vectors, labeled_table
    ):
        vectors, _ = small_vectors
        compressed = AcornIndex.build(
            vectors[:300], _subtable(labeled_table, 300),
            params=AcornParams(m=8, gamma=6, m_beta=8, ef_construction=32),
            seed=4,
        )
        uncompressed = AcornIndex.build(
            vectors[:300], _subtable(labeled_table, 300),
            params=AcornParams(
                m=8, gamma=6, m_beta=48, ef_construction=32, pruning="none"
            ),
            seed=4,
        )
        assert (
            compressed.graph.average_out_degree(0)
            < uncompressed.graph.average_out_degree(0)
        )


class TestFloatPathUnchanged:
    def test_acorn_results_and_counters_pinned(self):
        """Two builds from one seed answer byte for byte, counters
        included, and both equal the reference driver — walked (ef 16:
        cutoff 48, and n/γ = 60, under each label's ≥ 74 rows) and
        scanned (ef 48)."""
        gen = np.random.default_rng(11)
        vectors = gen.standard_normal((240, 12)).astype(np.float32)
        table = AttributeTable(240)
        table.add_int_column("label", gen.integers(0, 3, size=240))
        queries = vectors[gen.choice(240, size=20, replace=False)] + 0.05
        params = AcornParams(m=6, gamma=4, m_beta=12, ef_construction=32)
        first, second = (AcornIndex.build(vectors, table, params=params,
                                          seed=0) for _ in range(2))
        for i, query in enumerate(queries):
            for ef in (16, 48):
                predicate = Equals("label", i % 3)
                got = first.search(query, predicate, 5, ef_search=ef)
                assert (got.hops > 0) == (ef == 16)
                assert_results_identical(
                    got, second.search(query, predicate, 5, ef_search=ef))
                assert_results_identical(
                    got, reference_search(first, query, predicate, 5,
                                          ef_search=ef))


def _subtable(table: AttributeTable, n: int) -> AttributeTable:
    sub = AttributeTable(n)
    sub.add_int_column("label", np.asarray(table.column("label"))[:n])
    return sub
