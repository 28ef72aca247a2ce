"""End-to-end hybrid search under inner-product and cosine metrics."""

import numpy as np
import pytest

from repro.attributes import AttributeTable
from repro.core import AcornIndex, AcornParams
from repro.predicates import Equals
from repro.vectors.distance import pairwise_distances


def _world(metric, seed=61):
    gen = np.random.default_rng(seed)
    n = 400
    vectors = gen.standard_normal((n, 12)).astype(np.float32)
    if metric == "ip":
        # Inner-product search is only well-posed on non-degenerate
        # norms; keep vectors away from zero.
        vectors += np.sign(vectors) * 0.1
    table = AttributeTable(n)
    table.add_int_column("label", gen.integers(0, 3, size=n))
    return vectors, table


@pytest.mark.parametrize("metric", ["ip", "cosine"])
class TestAlternativeMetrics:
    def test_recall_against_bruteforce(self, metric):
        vectors, table = _world(metric)
        index = AcornIndex.build(
            vectors, table,
            params=AcornParams(m=8, gamma=6, m_beta=16, ef_construction=32),
            metric=metric, seed=0,
        )
        gen = np.random.default_rng(5)
        recalls = []
        for _ in range(20):
            q = gen.standard_normal(12).astype(np.float32)
            label = int(gen.integers(0, 3))
            mask = Equals("label", label).mask(table)
            passing = np.flatnonzero(mask)
            dists = pairwise_distances(vectors[passing], q, metric=metric)[0]
            truth = set(passing[np.argsort(dists)[:10]].tolist())
            result = index.search(q, Equals("label", label), 10, ef_search=64)
            recalls.append(len(set(result.ids.tolist()) & truth) / 10)
        assert np.mean(recalls) > 0.8

    def test_distances_ascending(self, metric):
        vectors, table = _world(metric)
        index = AcornIndex.build(
            vectors, table,
            params=AcornParams(m=8, gamma=6, m_beta=16, ef_construction=32),
            metric=metric, seed=0,
        )
        # ef 20 · Mβ 16 < 400 rows: the walk ranks, not the scan.
        result = index.search(vectors[0], Equals("label", 1), 10, ef_search=20)
        assert result.hops > 0
        assert (np.diff(result.distances) >= -1e-6).all()
