"""The route planner over every index variant, plus metric
round-trips."""

import numpy as np
import pytest

from repro.attributes import AttributeTable
from repro.core import AcornOneIndex, AcornParams
from repro.core.flat import FlatAcornIndex
from repro.persistence import load_index, save_index
from repro.predicates import Equals
from repro.routing import RoutePlanner


@pytest.fixture(scope="module")
def world():
    gen = np.random.default_rng(81)
    n = 300
    vectors = gen.standard_normal((n, 10)).astype(np.float32)
    table = AttributeTable(n)
    table.add_int_column("label", gen.integers(0, 3, size=n))
    return vectors, table


class TestRouterOverVariants:
    def test_acorn_one(self, world):
        vectors, table = world
        index = AcornOneIndex.build(vectors, table, m=12, ef_construction=24,
                                    seed=0)
        searcher = RoutePlanner(index)
        predicate = Equals("label", 1)
        compiled = predicate.compile(table)
        result = searcher.search(vectors[0], predicate, 5, ef_search=8)
        assert compiled.passes_many(result.ids).all()
        # gamma=1 -> s_min=1.0 would scan every query, so the threshold
        # does not apply: ≈ 100 passing rows walk above the count
        # cutoff of 8·12/2 = 48.
        assert index.params.s_min == pytest.approx(1.0)
        assert result.route_chosen == "acorn-gamma"
        assert result.hops > 0

    def test_flat(self, world):
        vectors, table = world
        index = FlatAcornIndex.build(
            vectors, table,
            params=AcornParams(m=8, gamma=6, m_beta=12, ef_construction=24),
            seed=0,
        )
        searcher = RoutePlanner(index)
        predicate = Equals("label", 2)
        compiled = predicate.compile(table)
        result = searcher.search(vectors[3], predicate, 5, ef_search=8)
        assert result.route_chosen == "acorn-gamma"
        assert compiled.passes_many(result.ids).all()
        # ≈ 100 passing rows, above s_min · n = 50 and the cutoff of 32.
        assert result.hops > 0


class TestCosinePersistence:
    def test_cosine_index_roundtrip(self, world, tmp_path):
        from repro.core import AcornIndex

        vectors, table = world
        index = AcornIndex.build(
            vectors, table,
            params=AcornParams(m=8, gamma=4, m_beta=12, ef_construction=24),
            metric="cosine", seed=0,
        )
        path = tmp_path / "cosine.npz"
        save_index(index, path)
        restored = load_index(path)
        assert restored.metric.value == "cosine"
        q = vectors[9]
        a = index.search(q, Equals("label", 0), 5, ef_search=32)
        b = restored.search(q, Equals("label", 0), 5, ef_search=32)
        np.testing.assert_array_equal(a.ids, b.ids)
