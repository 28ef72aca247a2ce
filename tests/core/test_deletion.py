"""Tests for tombstone deletion."""

import numpy as np
import pytest

from repro.attributes import AttributeTable
from repro.core import AcornIndex, AcornParams
from repro.predicates import Equals, TruePredicate
from repro.routing import RoutePlanner


@pytest.fixture
def index():
    gen = np.random.default_rng(51)
    n = 300
    vectors = gen.standard_normal((n, 8)).astype(np.float32)
    table = AttributeTable(n)
    table.add_int_column("label", gen.integers(0, 3, size=n))
    idx = AcornIndex.build(
        vectors, table, params=AcornParams(m=6, gamma=4, m_beta=8,
                                           ef_construction=24),
        seed=0,
    )
    return idx, vectors


class TestTombstones:
    def test_deleted_node_never_returned(self, index):
        idx, vectors = index
        top = idx.search(vectors[42], TruePredicate(), 1, ef_search=32)
        assert top.ids[0] == 42
        idx.mark_deleted(42)
        after = idx.search(vectors[42], TruePredicate(), 5, ef_search=32)
        assert 42 not in after.ids

    def test_unmark_restores(self, index):
        idx, vectors = index
        idx.mark_deleted(42)
        idx.unmark_deleted(42)
        top = idx.search(vectors[42], TruePredicate(), 1, ef_search=32)
        assert top.ids[0] == 42

    def test_composes_with_predicates(self, index):
        idx, vectors = index
        predicate = Equals("label", 1)
        compiled = predicate.compile(idx.table)
        baseline = idx.search(vectors[0], predicate, 5, ef_search=32)
        victim = int(baseline.ids[0])
        idx.mark_deleted(victim)
        after = idx.search(vectors[0], predicate, 5, ef_search=32)
        assert victim not in after.ids
        assert compiled.passes_many(after.ids).all()
        idx.unmark_deleted(victim)

    def test_shared_compiled_mask_not_mutated(self, index):
        idx, vectors = index
        compiled = TruePredicate().compile(idx.table)
        idx.mark_deleted(10)
        idx.search(vectors[0], compiled, 5, ef_search=16)
        assert compiled.mask.all(), "search must not mutate cached masks"
        idx.unmark_deleted(10)

    def test_counters_and_bounds(self, index):
        idx, _ = index
        idx.mark_deleted(0)
        idx.mark_deleted(0)
        assert idx.num_deleted == 1
        assert idx.is_deleted(0)
        idx.unmark_deleted(0)
        assert idx.num_deleted == 0
        with pytest.raises(IndexError):
            idx.mark_deleted(10_000)

    def test_router_prefilter_path_respects_tombstones(self, index):
        idx, vectors = index
        # s_min > 1 forces the pre-filter route.
        searcher = RoutePlanner(idx, policy="static", s_min=1.1)
        top = searcher.search(vectors[7], TruePredicate(), 1)
        assert top.ids[0] == 7
        idx.mark_deleted(7)
        after = searcher.search(vectors[7], TruePredicate(), 5)
        assert searcher.last_plan.route == "pre-filter"
        assert 7 not in after.ids
        idx.unmark_deleted(7)


class TestTombstoneMaskCache:
    def test_composed_mask_reused_across_queries(self, index):
        idx, vectors = index
        idx.mark_deleted(7)
        pred = Equals("label", 1)
        compiled = pred.compile(idx.table)
        first = idx._effective_mask(compiled.mask)
        second = idx._effective_mask(compiled.mask)
        assert first is second
        assert not first.flags.writeable
        assert not first[7]

    def test_cache_invalidated_by_deletion_changes(self, index):
        idx, vectors = index
        idx.mark_deleted(7)
        compiled = Equals("label", 1).compile(idx.table)
        first = idx._effective_mask(compiled.mask)
        idx.mark_deleted(9)
        second = idx._effective_mask(compiled.mask)
        assert second is not first
        assert not second[9]
        idx.unmark_deleted(9)
        third = idx._effective_mask(compiled.mask)
        assert third is not second
        assert third[9] or not compiled.mask[9]

    def test_no_tombstones_passthrough(self, index):
        idx, vectors = index
        compiled = Equals("label", 0).compile(idx.table)
        assert idx._effective_mask(compiled.mask) is compiled.mask

    def test_source_mask_never_mutated(self, index):
        idx, vectors = index
        compiled = Equals("label", 2).compile(idx.table)
        before = compiled.mask.copy()
        idx.mark_deleted(int(np.flatnonzero(compiled.mask)[0]))
        idx._effective_mask(compiled.mask)
        np.testing.assert_array_equal(compiled.mask, before)

    def test_cache_bounded(self, index):
        idx, vectors = index
        idx.mark_deleted(3)
        masks = [np.ones(len(idx), dtype=bool) for _ in range(12)]
        for mask in masks:
            idx._effective_mask(mask)
        assert len(idx._mask_cache) <= 8
