"""Unit tests for the quantized code mirror (`repro.vectors.quantized_store`).

The decode-free distance identities are the load-bearing part: every
metric's quantized distance must agree with the naive
decode-then-measure reference, or traversal ranks silently diverge from
what the rerank tail assumes.
"""

import numpy as np
import pytest

from repro.vectors.distance import Metric
from repro.vectors.quantized_store import (
    DEFAULT_RERANK_FACTOR,
    QuantizationConfig,
    QuantizedStore,
    codes_checksum,
    rerank_budget,
    resolve_quantization,
)
from repro.vectors.store import VectorStore


@pytest.fixture(scope="module")
def vectors():
    gen = np.random.default_rng(7)
    return (gen.standard_normal((300, 16)) * 2.0).astype(np.float32)


def make_store(vectors, kind, metric):
    store = VectorStore.from_array(vectors, metric=metric)
    config = QuantizationConfig(kind=kind, pq_subspaces=4, pq_centroids=64)
    qs = QuantizedStore(config, metric)
    qs.train(store.vectors)
    qs.sync(store)
    return store, qs


class TestConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            QuantizationConfig(kind="int4")

    def test_rerank_factor_floor(self):
        with pytest.raises(ValueError, match="rerank_factor"):
            QuantizationConfig(rerank_factor=0.5)
        QuantizationConfig(rerank_factor=1.0)  # boundary is legal

    def test_json_roundtrip(self):
        config = QuantizationConfig(kind="pq", rerank_factor=2.5,
                                    pq_subspaces=4, pq_centroids=32)
        assert QuantizationConfig.from_json(config.to_json()) == config

    def test_resolve_forms(self):
        assert resolve_quantization(None) is None
        assert resolve_quantization("pq").kind == "pq"
        assert resolve_quantization({"kind": "sq8", "rerank_factor": 2.0}
                                    ).rerank_factor == 2.0
        config = QuantizationConfig()
        assert resolve_quantization(config) is config
        with pytest.raises(TypeError):
            resolve_quantization(42)

    def test_rerank_budget(self):
        assert rerank_budget(10, DEFAULT_RERANK_FACTOR) == 30
        assert rerank_budget(10, 1.0) == 10
        assert rerank_budget(3, 1.5) == 5  # ceil(4.5)


class TestChecksum:
    def test_sensitive_to_content_and_shape(self):
        codes = np.arange(12, dtype=np.uint8).reshape(3, 4)
        base = codes_checksum(codes)
        assert base == codes_checksum(codes.copy())
        tampered = codes.copy()
        tampered[1, 2] ^= 0xFF
        assert codes_checksum(tampered) != base
        assert codes_checksum(codes.reshape(4, 3)) != base


class TestQuantizedStore:
    @pytest.mark.parametrize("kind", ["sq8", "pq"])
    @pytest.mark.parametrize(
        "metric", [Metric.L2, Metric.INNER_PRODUCT, Metric.COSINE]
    )
    def test_distances_match_decoded_reference(self, vectors, kind, metric):
        """Decode-free distances == decode-then-measure, per metric."""
        _, qs = make_store(vectors, kind, metric)
        decoded = qs.codec.decode(qs.codes)
        query = vectors[3] + 0.1
        ids = np.arange(0, 300, 7)
        comp = qs.computer()
        comp.set_query(query)
        got = comp.distances(ids)
        rows = decoded[ids]
        if metric is Metric.L2:
            want = ((rows - query) ** 2).sum(axis=1)
        elif metric is Metric.INNER_PRODUCT:
            want = -(rows @ query)
        else:
            want = 1.0 - (rows @ query) / (
                np.linalg.norm(rows, axis=1) * np.linalg.norm(query)
            )
        np.testing.assert_allclose(got, want, rtol=2e-4, atol=2e-4)

    @pytest.mark.parametrize("kind", ["sq8", "pq"])
    @pytest.mark.parametrize(
        "metric", [Metric.L2, Metric.INNER_PRODUCT, Metric.COSINE]
    )
    def test_batched_matches_per_query(self, vectors, kind, metric):
        """The lockstep entry point agrees with the per-query computer."""
        _, qs = make_store(vectors, kind, metric)
        gen = np.random.default_rng(1)
        queries = vectors[:5] + 0.05
        qidx = gen.integers(0, 5, size=40)
        ids = gen.integers(0, 300, size=40)
        batched = qs.batched_distances(queries, qidx, ids)
        for q in range(5):
            sel = qidx == q
            comp = qs.computer()
            comp.set_query(queries[q])
            np.testing.assert_allclose(
                batched[sel], comp.distances(ids[sel]), rtol=1e-4, atol=1e-4
            )

    def test_batched_empty(self, vectors):
        _, qs = make_store(vectors, "sq8", Metric.L2)
        out = qs.batched_distances(vectors[:2], np.empty(0, dtype=np.int64),
                                   np.empty(0, dtype=np.int64))
        assert out.size == 0

    def test_computer_counts_evaluations(self, vectors):
        _, qs = make_store(vectors, "sq8", Metric.L2)
        comp = qs.computer()
        comp.set_query(vectors[0])
        comp.distances(np.arange(10))
        comp.distances(np.arange(5))
        assert comp.count == 15

    def test_sync_is_incremental(self, vectors):
        store, qs = make_store(vectors[:200], "sq8", Metric.L2)
        assert len(qs) == 200
        first_codes = qs.codes.copy()
        for vector in vectors[200:]:
            store.add(vector)
        qs.sync(store)
        assert len(qs) == 300
        # Already-encoded rows never shift under the frozen codec.
        np.testing.assert_array_equal(qs.codes[:200], first_codes)

    def test_sync_before_train_raises(self, vectors):
        store = VectorStore.from_array(vectors, metric=Metric.L2)
        qs = QuantizedStore(QuantizationConfig(), Metric.L2)
        with pytest.raises(RuntimeError, match="train"):
            qs.sync(store)

    def test_computer_without_codes_raises(self):
        qs = QuantizedStore(QuantizationConfig(), Metric.L2)
        with pytest.raises(RuntimeError):
            qs.computer()

    def test_nbytes_compression(self, vectors):
        store, qs = make_store(vectors, "sq8", Metric.L2)
        assert qs.nbytes() == store.vectors.nbytes // 4

    @pytest.mark.parametrize("kind", ["sq8", "pq"])
    def test_state_roundtrip_exact(self, vectors, kind):
        _, qs = make_store(vectors, kind, Metric.L2)
        restored = QuantizedStore.from_state(
            qs.config, Metric.L2, qs.state_arrays()
        )
        np.testing.assert_array_equal(restored.codes, qs.codes)
        assert restored.checksum() == qs.checksum()
        query = vectors[9]
        a = qs.computer()
        a.set_query(query)
        b = restored.computer()
        b.set_query(query)
        ids = np.arange(50)
        np.testing.assert_array_equal(a.distances(ids), b.distances(ids))
