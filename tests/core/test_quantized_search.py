"""End-to-end tests for the quantized traversal hot path.

Two invariants anchor the whole feature:

1. **Recall parity tripwire** — at matched effort, the quantized path
   (codes rank the walk, float32 reranks the tail) must stay within a
   small recall delta of the float32 path on every index family.  A
   codec or kernel regression shows up here before it shows up in a
   benchmark.
2. **``quantization=None`` is byte-identical** — the default search
   path must not change at all: same ids, same distances, same
   counters, zero quantized evaluations.
"""

import numpy as np
import pytest

from repro.attributes import AttributeTable
from repro.baselines.prefilter import PreFilterSearcher
from repro.core import AcornIndex, AcornOneIndex, AcornParams
from repro.hnsw import HnswIndex
from repro.predicates import Equals


N, DIM, K = 240, 12, 5


@pytest.fixture(scope="module")
def world():
    gen = np.random.default_rng(11)
    vectors = gen.standard_normal((N, DIM)).astype(np.float32)
    table = AttributeTable(N)
    table.add_int_column("label", gen.integers(0, 3, size=N))
    queries = vectors[gen.choice(N, size=20, replace=False)] + 0.05
    predicates = [Equals("label", int(i % 3)) for i in range(20)]
    return vectors, table, queries, predicates


@pytest.fixture(scope="module")
def acorn_params():
    return AcornParams(m=6, gamma=3, m_beta=12, ef_construction=32)


def mean_recall(results, truths):
    return float(np.mean([
        len(set(r.ids.tolist()) & set(t.tolist())) / max(len(t), 1)
        for r, t in zip(results, truths)
    ]))


class TestRecallParityTripwire:
    """Quantized recall tracks float32 recall on every index family."""

    @pytest.mark.parametrize("kind", ["sq8", "pq"])
    def test_acorn_gamma(self, world, acorn_params, kind):
        vectors, table, queries, predicates = world
        index = AcornIndex.build(vectors, table, params=acorn_params, seed=0)
        pre = PreFilterSearcher(vectors, table)
        truths = [pre.search(q, p, K).ids
                  for q, p in zip(queries, predicates)]
        base = mean_recall(
            [index.search(q, p, K, ef_search=48)
             for q, p in zip(queries, predicates)], truths)
        index.enable_quantization(
            {"kind": kind, "pq_subspaces": 4, "pq_centroids": 64}
        )
        quant = mean_recall(
            [index.search(q, p, K, ef_search=48)
             for q, p in zip(queries, predicates)], truths)
        assert quant >= base - 0.1

    def test_acorn_one(self, world):
        vectors, table, queries, predicates = world
        index = AcornOneIndex.build(vectors, table, m=8,
                                    ef_construction=32, seed=0)
        pre = PreFilterSearcher(vectors, table)
        truths = [pre.search(q, p, K).ids
                  for q, p in zip(queries, predicates)]
        base = mean_recall(
            [index.search(q, p, K, ef_search=48)
             for q, p in zip(queries, predicates)], truths)
        index.enable_quantization("sq8")
        quant = mean_recall(
            [index.search(q, p, K, ef_search=48)
             for q, p in zip(queries, predicates)], truths)
        assert quant >= base - 0.1

    def test_hnsw(self, world):
        vectors, _, queries, _ = world
        index = HnswIndex.build(vectors, m=8, ef_construction=32, seed=0)
        truths = [
            np.argsort(((vectors - q) ** 2).sum(axis=1))[:K]
            for q in queries
        ]
        base = mean_recall(
            [index.search(q, K, ef_search=48) for q in queries], truths)
        index.enable_quantization("sq8")
        quant = mean_recall(
            [index.search(q, K, ef_search=48) for q in queries], truths)
        assert quant >= base - 0.1


class TestFloatPathUnchanged:
    """``quantization=None`` must leave the default path byte-identical."""

    def test_acorn_results_and_counters_pinned(self, world, acorn_params):
        vectors, table, queries, predicates = world
        default = AcornIndex.build(vectors, table, params=acorn_params,
                                   seed=0)
        explicit = AcornIndex.build(vectors, table, params=acorn_params,
                                    seed=0, quantization=None)
        for q, p in zip(queries, predicates):
            a = default.search(q, p, K, ef_search=32)
            b = explicit.search(q, p, K, ef_search=32)
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.distances, b.distances)
            assert a.distance_computations == b.distance_computations
            assert a.hops == b.hops
            assert a.visited_nodes == b.visited_nodes
            assert a.quantized_distances == 0
            assert a.rerank_distances == 0
            assert a.rerank_factor == 0.0

    def test_disable_restores_float_results(self, world, acorn_params):
        vectors, table, queries, predicates = world
        index = AcornIndex.build(vectors, table, params=acorn_params, seed=0)
        before = [index.search(q, p, K, ef_search=32)
                  for q, p in zip(queries, predicates)]
        index.enable_quantization("sq8")
        index.enable_quantization(None)
        after = [index.search(q, p, K, ef_search=32)
                 for q, p in zip(queries, predicates)]
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a.ids, b.ids)
            assert a.distance_computations == b.distance_computations


class TestQuantizedCounters:
    def test_counter_discipline(self, world, acorn_params):
        """Quantized and exact evaluations are disjoint counters; the
        rerank tail is bounded by its budget and bills as exact."""
        vectors, table, queries, predicates = world
        index = AcornIndex.build(vectors, table, params=acorn_params, seed=0)
        # ef 16: the scan cutoff (16·M/2 = 48) sits below each label's
        # ≈ 80 passing rows, so these searches walk.
        float_dc = [index.search(q, p, K, ef_search=16).distance_computations
                    for q, p in zip(queries, predicates)]
        index.enable_quantization({"kind": "sq8", "rerank_factor": 2.0})
        for (q, p), fdc in zip(zip(queries, predicates), float_dc):
            res = index.search(q, p, K, ef_search=16)
            assert res.quantized_distances > 0
            assert res.rerank_factor == 2.0
            assert 0 < res.rerank_distances <= 2.0 * K
            # Exact evaluations = descent + rerank tail only.
            assert res.rerank_distances <= res.distance_computations < fdc

    def test_deterministic_across_runs(self, world, acorn_params):
        vectors, table, queries, predicates = world
        index = AcornIndex.build(vectors, table, params=acorn_params, seed=0,
                                 quantization="sq8")
        for q, p in zip(queries, predicates):
            a = index.search(q, p, K, ef_search=48)
            b = index.search(q, p, K, ef_search=48)
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.distances, b.distances)
            assert a.quantized_distances == b.quantized_distances


class TestQuantizedMaintenance:
    def test_tombstones_respected(self, world, acorn_params):
        vectors, table, queries, predicates = world
        index = AcornIndex.build(vectors, table, params=acorn_params, seed=0,
                                 quantization="sq8")
        victim = int(index.search(queries[0], predicates[0], K,
                                  ef_search=48).ids[0])
        index.mark_deleted(victim)
        res = index.search(queries[0], predicates[0], K, ef_search=48)
        assert victim not in res.ids

    def test_monitor_early_stop(self, world, acorn_params):
        vectors, table, queries, predicates = world
        index = AcornIndex.build(vectors, table, params=acorn_params, seed=0,
                                 quantization="sq8")

        class Budget:
            def __init__(self, hops):
                self.left = hops

            def observe(self, _n):
                self.left -= 1
                return self.left > 0

        full = index.search(queries[0], predicates[0], K, ef_search=48)
        capped = index.search(queries[0], predicates[0], K, ef_search=48,
                              monitor=Budget(2))
        assert capped.quantized_distances <= full.quantized_distances
        assert len(capped.ids) <= K

    def test_incremental_insert_syncs_codes(self, world, acorn_params):
        """Rows added after quantization are encoded with the frozen
        codec at the next search — and are findable."""
        vectors, table, queries, predicates = world
        labels = np.asarray(table.column("label"))
        small = AttributeTable(200)
        small.add_int_column("label", labels[:200])
        index = AcornIndex.build(vectors[:200], small,
                                 params=acorn_params, seed=0,
                                 quantization="sq8")
        grown = AttributeTable(220)
        grown.add_int_column("label", labels[:220])
        index.table = grown
        for i in range(200, 220):
            index.add(vectors[i])
        target = vectors[205]
        res = index.search(target, Equals("label", int(labels[205])), K,
                           ef_search=64)
        assert 205 in res.ids
