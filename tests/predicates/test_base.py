"""Unit tests for Predicate compilation and CompiledPredicate."""

import numpy as np
import pytest

from repro.attributes.table import AttributeTable
from repro.predicates import Equals, TruePredicate


@pytest.fixture
def table():
    t = AttributeTable(10)
    t.add_int_column("label", [0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
    return t


class TestTruePredicate:
    def test_mask_all_true(self, table):
        assert TruePredicate().mask(table).all()

    def test_matches(self, table):
        assert TruePredicate().matches(table, 3)

    def test_selectivity_one(self, table):
        assert TruePredicate().compile(table).selectivity == 1.0


class TestCompiledPredicate:
    def test_passes(self, table):
        compiled = Equals("label", 0).compile(table)
        assert compiled.passes(0)
        assert not compiled.passes(1)

    def test_passes_many(self, table):
        compiled = Equals("label", 0).compile(table)
        np.testing.assert_array_equal(
            compiled.passes_many(np.array([0, 1, 3])), [True, False, True]
        )

    def test_passing_ids(self, table):
        compiled = Equals("label", 2).compile(table)
        np.testing.assert_array_equal(compiled.passing_ids, [2, 5, 8])

    def test_cardinality_and_selectivity(self, table):
        compiled = Equals("label", 0).compile(table)
        assert compiled.cardinality == 4
        assert compiled.selectivity == pytest.approx(0.4)

    @pytest.mark.parametrize("ids_first", [True, False])
    def test_cardinality_counts_the_mask_either_way(self, table, ids_first):
        """The count reads ``passing_ids``'s size once a search listed
        them, and sums the mask otherwise; both are the mask's sum."""
        for value in (0, 1, 2, 7):
            compiled = Equals("label", value).compile(table)
            if ids_first:
                compiled.passing_ids
            assert compiled.cardinality == int(compiled.mask.sum())
            assert type(compiled.cardinality) is int
            assert compiled.passing_ids.size == compiled.cardinality

    def test_len(self, table):
        assert len(Equals("label", 0).compile(table)) == 10

    def test_repr_mentions_selectivity(self, table):
        assert "selectivity" in repr(Equals("label", 0).compile(table))

    def test_empty_table_selectivity_zero(self):
        table = AttributeTable(0)
        table.add_int_column("label", [])
        assert Equals("label", 1).compile(table).selectivity == 0.0


class TestDefaultMatches:
    def test_matches_consistent_with_mask(self, table):
        predicate = Equals("label", 1)
        mask = predicate.mask(table)
        for i in range(10):
            assert predicate.matches(table, i) == bool(mask[i])
