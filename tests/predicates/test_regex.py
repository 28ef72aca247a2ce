"""Unit tests for regex predicates."""

import numpy as np
import pytest

from repro.attributes.table import AttributeTable
from repro.predicates import RegexMatch


@pytest.fixture
def table():
    t = AttributeTable(4)
    t.add_string_column(
        "caption",
        ["a photo of a dog", "two cats playing", "dog and cat", "a 1990 photo"],
    )
    t.add_int_column("year", [1, 2, 3, 4])
    return t


class TestRegexMatch:
    def test_word_match(self, table):
        np.testing.assert_array_equal(
            RegexMatch("caption", r"\bdog\b").mask(table),
            [True, False, True, False],
        )

    def test_anchored(self, table):
        got = RegexMatch("caption", r"^a ").mask(table)
        np.testing.assert_array_equal(got, [True, False, False, True])

    def test_digit_class(self, table):
        assert RegexMatch("caption", r"[0-9]{4}").mask(table).sum() == 1

    def test_alternation(self, table):
        got = RegexMatch("caption", r"(cats|1990)").mask(table)
        assert got.sum() == 2

    def test_matches_single(self, table):
        assert RegexMatch("caption", "photo").matches(table, 0)
        assert not RegexMatch("caption", "photo").matches(table, 1)

    def test_invalid_pattern(self):
        with pytest.raises(ValueError, match="invalid regex"):
            RegexMatch("caption", "[unclosed")

    def test_requires_string_column(self, table):
        with pytest.raises(ValueError, match="string column"):
            RegexMatch("year", "x").mask(table)

    def test_no_match_anywhere(self, table):
        assert RegexMatch("caption", "zebra").mask(table).sum() == 0


class TestRowMemoBacking:
    """``RegexMatch`` pays once per (pattern, row) of a table object —
    asserted through ``AttributeTable.memo_info()``, not by patching re."""

    def test_second_evaluation_of_a_seen_pattern_scans_zero_rows(self, table):
        first = RegexMatch("caption", "dog").mask(table)
        assert table.memo_info().rows_scanned == 4
        # A distinct predicate object with the same pattern reuses it.
        again = RegexMatch("caption", "dog").mask(table)
        np.testing.assert_array_equal(first, again)
        info = table.memo_info()
        assert (info.entries, info.rows_scanned, info.rows_reused) == (1, 4, 4)

    def test_mask_rows_scans_only_the_rows_asked_about(self, table):
        pred = RegexMatch("caption", "dog")
        np.testing.assert_array_equal(
            pred.mask_rows(table, np.asarray([2, 1])), [True, False]
        )
        assert table.memo_info().rows_scanned == 2
        np.testing.assert_array_equal(pred.mask(table), [True, False, True, False])
        assert table.memo_info().rows_scanned == 4  # rows 0 and 3 only

    def test_patterns_and_columns_are_separate_entries(self, table):
        table.add_string_column("alt", ["cat", "cat", "dog", "dog"])
        RegexMatch("caption", "dog").mask(table)
        RegexMatch("caption", "cat").mask(table)
        got = RegexMatch("alt", "dog").mask(table)
        np.testing.assert_array_equal(got, [False, False, True, True])
        assert table.memo_info().entries == 3

    def test_kind_check_precedes_the_memo_and_the_empty_case(self, table):
        with pytest.raises(ValueError, match="string column"):
            RegexMatch("year", "x").mask_rows(table, np.empty(0, dtype=np.intp))
        assert table.memo_info().entries == 0

    def test_eight_threads_on_one_pattern_match_the_unmemoised_mask(self):
        import re
        import threading

        n = 400
        rng = np.random.default_rng(5)
        words = ["dog", "cat", "bird", "hotdog", "dogs"]
        captions = [" ".join(rng.choice(words, size=3)) for _ in range(n)]
        t = AttributeTable(n)
        t.add_string_column("caption", captions)
        expected = np.asarray(
            [re.search(r"\bdog\b", text) is not None for text in captions]
        )
        selections = [rng.permutation(n)[: 50 * (i + 1)] for i in range(8)]
        results = [None] * 8

        def work(i):
            pred = RegexMatch("caption", r"\bdog\b")
            pred.mask_rows(t, selections[i])
            results[i] = pred.mask(t)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        assert not any(th.is_alive() for th in threads)
        for got in results:
            np.testing.assert_array_equal(got, expected)
        assert t.memo_info().rows_scanned == n
