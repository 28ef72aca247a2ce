"""Unit tests for distance kernels and the computation counter."""

import numpy as np
import pytest

from repro.vectors.distance import (
    DistanceComputer,
    Metric,
    pairwise_distances,
    resolve_metric,
)


@pytest.fixture
def base():
    gen = np.random.default_rng(0)
    return gen.standard_normal((50, 8)).astype(np.float32)


class TestResolveMetric:
    def test_accepts_enum(self):
        assert resolve_metric(Metric.L2) is Metric.L2

    def test_accepts_string(self):
        assert resolve_metric("cosine") is Metric.COSINE

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown metric"):
            resolve_metric("manhattan")


class TestPairwiseDistances:
    def test_l2_matches_naive(self, base):
        queries = base[:3] + 0.1
        got = pairwise_distances(base, queries, metric="l2")
        want = ((queries[:, None, :] - base[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_l2_non_negative(self, base):
        got = pairwise_distances(base, base)
        assert (got >= 0).all()

    def test_l2_self_distance_zero(self, base):
        got = pairwise_distances(base, base)
        np.testing.assert_allclose(np.diag(got), 0.0, atol=1e-3)

    def test_inner_product_matches_naive(self, base):
        queries = base[:3]
        got = pairwise_distances(base, queries, metric="ip")
        np.testing.assert_allclose(got, -(queries @ base.T), rtol=1e-5)

    def test_cosine_range(self, base):
        got = pairwise_distances(base, base[:5], metric="cosine")
        assert (got >= -1e-5).all() and (got <= 2 + 1e-5).all()

    def test_cosine_self_distance_zero(self, base):
        got = pairwise_distances(base, base[:5], metric="cosine")
        np.testing.assert_allclose(np.diag(got[:, :5]), 0.0, atol=1e-5)

    def test_single_query_promoted(self, base):
        got = pairwise_distances(base, base[0])
        assert got.shape == (1, len(base))


class TestDistanceComputer:
    def test_rejects_non_2d_base(self):
        with pytest.raises(ValueError, match="2-D"):
            DistanceComputer(np.zeros(5, dtype=np.float32))

    def test_counts_batched(self, base):
        computer = DistanceComputer(base)
        computer.distances_to(base[0], np.arange(7))
        assert computer.count == 7

    def test_counts_single(self, base):
        computer = DistanceComputer(base)
        computer.distance_one(base[0], 3)
        computer.distance_one(base[0], 4)
        assert computer.count == 2

    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    def test_single_out_of_range_is_an_index_error(self, base, metric):
        """Never an empty slice ("index 0 ... with size 0" downstream)."""
        computer = DistanceComputer(base, metric)
        bad = len(base) + 5
        with pytest.raises(IndexError, match=f"index {bad} is out of bounds"):
            computer.distance_one(base[0], bad)

    def test_counts_all(self, base):
        computer = DistanceComputer(base)
        computer.distances_to_all(base[0])
        assert computer.count == len(base)

    def test_reset(self, base):
        computer = DistanceComputer(base)
        computer.distances_to_all(base[0])
        computer.reset()
        assert computer.count == 0

    def test_distances_match_pairwise(self, base):
        computer = DistanceComputer(base)
        ids = np.array([1, 5, 9])
        got = computer.distances_to(base[0], ids)
        want = pairwise_distances(base, base[0])[0][ids]
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_set_query_validates_dim(self, base):
        computer = DistanceComputer(base)
        with pytest.raises(ValueError, match="dim"):
            computer.set_query(np.zeros(3))

    def test_nearest_neighbor_order_preserved_cosine(self, base):
        # Rank-preserving variants must sort identically to true metric.
        computer = DistanceComputer(base, metric="cosine")
        query = base[0]
        got = computer.distances_to(query, np.arange(len(base)))
        true = np.array([
            1 - (query @ b) / (np.linalg.norm(query) * np.linalg.norm(b))
            for b in base
        ])
        np.testing.assert_array_equal(np.argsort(got), np.argsort(true))

    def test_dim_and_len(self, base):
        computer = DistanceComputer(base)
        assert computer.dim == 8
        assert len(computer) == 50


class TestPrecomputedCosineNorms:
    @pytest.fixture
    def base(self):
        gen = np.random.default_rng(77)
        return gen.standard_normal((40, 8)).astype(np.float32)

    def test_matches_naive_kernel_bitwise(self, base):
        # The norm-cached path must reproduce the naive kernel exactly:
        # same multiply order, same float32 promotion.
        query = base[3] * 1.7
        cached = DistanceComputer(base, metric="cosine")
        naive = pairwise_distances(base, query, metric="cosine")[0]
        got = cached.distances_to(query, np.arange(len(base)))
        np.testing.assert_allclose(got, naive, rtol=1e-6, atol=1e-7)

    def test_accepts_external_norms(self, base):
        norms = np.linalg.norm(base, axis=1)
        computer = DistanceComputer(base, metric="cosine", base_norms=norms)
        a = computer.distances_to(base[0], np.arange(10))
        b = DistanceComputer(base, metric="cosine").distances_to(
            base[0], np.arange(10)
        )
        np.testing.assert_array_equal(a, b)

    def test_rejects_misaligned_norms(self, base):
        with pytest.raises(ValueError, match="norms"):
            DistanceComputer(base, metric="cosine",
                             base_norms=np.ones(3, dtype=np.float32))

    def test_norms_ignored_for_l2(self, base):
        computer = DistanceComputer(base, metric="l2",
                                    base_norms=np.ones(3))
        assert computer._base_norms is None

    def test_zero_vector_guard(self, base):
        padded = np.vstack([base, np.zeros((1, 8), dtype=np.float32)])
        computer = DistanceComputer(padded, metric="cosine")
        got = computer.distances_to(padded[0], np.array([len(padded) - 1]))
        assert np.isfinite(got).all()
