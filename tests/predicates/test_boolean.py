"""Unit tests for boolean predicate composition."""

import numpy as np
import pytest

from repro.attributes import table as table_module
from repro.attributes.table import AttributeTable
from repro.predicates import And, Between, ContainsAny, Equals, Not, Or, RegexMatch


@pytest.fixture
def table():
    t = AttributeTable(6)
    t.add_int_column("year", [1990, 2000, 2010, 2020, 2000, 1985])
    t.add_keywords_column(
        "areas", [["a"], ["b"], ["a", "b"], ["c"], ["a"], ["b", "c"]]
    )
    return t


class TestAnd:
    def test_mask(self, table):
        pred = And(Between("year", 1990, 2010), ContainsAny("areas", ["a"]))
        np.testing.assert_array_equal(
            pred.mask(table), [True, False, True, False, True, False]
        )

    def test_three_children(self, table):
        pred = And(
            Between("year", 1980, 2020),
            ContainsAny("areas", ["a", "b"]),
            Not(Equals("year", 2000)),
        )
        assert pred.mask(table).sum() == 3

    def test_requires_two_children(self):
        with pytest.raises(ValueError):
            And(Equals("year", 1))

    def test_matches(self, table):
        pred = And(Equals("year", 2000), ContainsAny("areas", ["b"]))
        assert pred.matches(table, 1)
        assert not pred.matches(table, 4)


class TestOr:
    def test_mask(self, table):
        pred = Or(Equals("year", 1990), Equals("year", 1985))
        np.testing.assert_array_equal(
            pred.mask(table), [True, False, False, False, False, True]
        )

    def test_requires_two_children(self):
        with pytest.raises(ValueError):
            Or(Equals("year", 1))


class TestNot:
    def test_mask_complement(self, table):
        pred = Equals("year", 2000)
        np.testing.assert_array_equal(Not(pred).mask(table), ~pred.mask(table))

    def test_matches(self, table):
        assert Not(Equals("year", 2000)).matches(table, 0)


class TestOperatorSugar:
    def test_and_operator(self, table):
        combined = Equals("year", 2000) & ContainsAny("areas", ["b"])
        assert isinstance(combined, And)
        assert combined.mask(table).sum() == 1

    def test_or_operator(self, table):
        combined = Equals("year", 1990) | Equals("year", 1985)
        assert isinstance(combined, Or)
        assert combined.mask(table).sum() == 2

    def test_invert_operator(self, table):
        assert isinstance(~Equals("year", 2000), Not)


class TestBooleanLaws:
    def test_de_morgan(self, table):
        a = Equals("year", 2000)
        b = ContainsAny("areas", ["a"])
        lhs = Not(And(a, b)).mask(table)
        rhs = Or(Not(a), Not(b)).mask(table)
        np.testing.assert_array_equal(lhs, rhs)

    def test_double_negation(self, table):
        a = Between("year", 1990, 2010)
        np.testing.assert_array_equal(Not(Not(a)).mask(table), a.mask(table))


class TestRestrictedEvaluation:
    """Row-scanning children see only the rows their vectorised
    siblings left undecided, whatever the child order."""

    @pytest.fixture
    def captions(self, table):
        table.add_string_column(
            "caption", ["a dog", "a cat", "two dogs", "a bird", "dog", "cat"]
        )
        return table

    def test_row_scan_flag(self):
        regex = RegexMatch("caption", "dog")
        year = Equals("year", 2000)
        assert regex.row_scan and not year.row_scan
        assert And(year, regex).row_scan and Or(regex, year).row_scan
        assert Not(regex).row_scan and And(year, Not(Or(year, regex))).row_scan
        assert not And(year, Not(year)).row_scan

    def test_declaration_order_is_kept_for_identity(self):
        """Row scans run last, but repr and fingerprint keep the order
        the children were given in."""
        regex, year = RegexMatch("caption", "dog"), Equals("year", 2000)
        pred = And(regex, year)
        assert pred.children == (regex, year)
        assert repr(pred) == f"And({regex!r}, {year!r})"
        assert pred.fingerprint() != And(year, regex).fingerprint()

    @pytest.mark.parametrize("regex_first", [True, False])
    def test_and_scans_survivors_only(self, captions, regex_first):
        regex, year = RegexMatch("caption", "dog"), Equals("year", 2000)
        pred = And(regex, year) if regex_first else And(year, regex)
        np.testing.assert_array_equal(
            pred.mask(captions), [False, False, False, False, True, False]
        )
        assert captions.memo_info().rows_scanned == 2  # rows 1 and 4

    @pytest.mark.parametrize("regex_first", [True, False])
    def test_or_scans_rows_not_yet_passing(self, captions, regex_first):
        regex, year = RegexMatch("caption", "dog"), Between("year", 1990, 2010)
        pred = Or(regex, year) if regex_first else Or(year, regex)
        np.testing.assert_array_equal(
            pred.mask(captions), [True, True, True, False, True, False]
        )
        assert captions.memo_info().rows_scanned == 2  # rows 3 and 5

    def test_not_and_nested_junctions_forward_the_restriction(self, captions):
        pred = And(
            Not(Or(RegexMatch("caption", "dog"), Equals("year", 1985))),
            Between("year", 1985, 2000),
        )
        np.testing.assert_array_equal(
            pred.mask(captions), [False, True, False, False, False, False]
        )
        # Between keeps rows 0, 1, 4, 5; Equals(1985) decides row 5.
        assert captions.memo_info().rows_scanned == 3

    def test_two_row_scan_children_chain(self, captions):
        pred = And(RegexMatch("caption", "dog"), RegexMatch("caption", "^a"))
        np.testing.assert_array_equal(
            pred.mask(captions), [True, False, False, False, False, False]
        )
        assert captions.memo_info().rows_scanned == 6 + 3

    def test_recurring_leaf_under_unique_trees_is_scanned_once(self, captions):
        for low in (1985, 1990, 2000, 2010, 2020):
            And(RegexMatch("caption", "dog"), Between("year", low, 2020)).mask(captions)
        info = captions.memo_info()
        assert info.entries == 1 and info.rows_scanned == 6

    def test_memo_disabled_gives_identical_masks(self, captions, monkeypatch):
        preds = [
            And(RegexMatch("caption", "dog"), Between("year", low, 2020))
            for low in (1985, 2000, 2020)
        ] + [Or(RegexMatch("caption", "cat"), Not(RegexMatch("caption", "a")))]
        with_memo = [pred.mask(captions) for pred in preds]
        scanned = captions.memo_info().rows_scanned
        monkeypatch.setattr(table_module, "_ROW_MEMO_ENTRIES", 0)
        fresh = AttributeTable(6)
        fresh.add_int_column("year", captions.column("year"))
        fresh.add_string_column("caption", captions.column("caption"))
        for pred, expected in zip(preds, with_memo):
            np.testing.assert_array_equal(pred.mask(fresh), expected)
        info = fresh.memo_info()
        assert info.entries == 0 and info.rows_reused == 0
        assert info.rows_scanned > scanned  # restricted, but nothing reused

    def test_first_mask_is_not_aliased(self, captions):
        class Shared(Equals):
            cached = None

            def mask(self, table):
                if Shared.cached is None:
                    Shared.cached = super().mask(table)
                return Shared.cached

        leaf = Shared("year", 2000)
        And(leaf, Equals("year", 1990)).mask(captions)
        np.testing.assert_array_equal(
            leaf.mask(captions), [False, True, False, False, True, False]
        )
