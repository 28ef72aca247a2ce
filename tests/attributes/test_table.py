"""Unit tests for the columnar attribute table."""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.attributes import table as table_module
from repro.attributes.table import (
    AttributeTable,
    ColumnKind,
    MemoInfo,
    concat_tables,
)


@pytest.fixture
def table():
    t = AttributeTable(4)
    t.add_int_column("year", [1999, 2005, 2020, 1980])
    t.add_float_column("price", [9.5, 20.0, 3.25, 100.0])
    t.add_string_column("caption", ["a dog", "a cat", "two dogs", "a bird"])
    t.add_keywords_column("tags", [["x", "y"], ["y"], [], ["x", "z", "y"]])
    return t


class TestColumns:
    def test_kinds(self, table):
        assert table.column_kind("year") is ColumnKind.INT
        assert table.column_kind("price") is ColumnKind.FLOAT
        assert table.column_kind("caption") is ColumnKind.STRING
        assert table.column_kind("tags") is ColumnKind.KEYWORDS

    def test_column_names_ordered(self, table):
        assert table.column_names == ["year", "price", "caption", "tags"]

    def test_duplicate_name_rejected(self, table):
        with pytest.raises(ValueError, match="already exists"):
            table.add_int_column("year", [1, 2, 3, 4])

    def test_length_mismatch_rejected(self, table):
        with pytest.raises(ValueError, match="rows"):
            table.add_int_column("bad", [1, 2])

    def test_missing_column_keyerror(self, table):
        with pytest.raises(KeyError, match="available"):
            table.column("nope")

    def test_has_column(self, table):
        assert table.has_column("year")
        assert not table.has_column("nope")

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            AttributeTable(-1)


class TestRow:
    def test_row_materializes_tuple(self, table):
        row = table.row(0)
        assert row["year"] == 1999
        assert row["caption"] == "a dog"
        assert row["tags"] == ["x", "y"]

    def test_row_empty_keywords(self, table):
        assert table.row(2)["tags"] == []

    def test_row_bounds(self, table):
        with pytest.raises(IndexError):
            table.row(4)

    def test_row_over_every_row_builds_the_inverse_vocab_once(self):
        """``row_keywords`` used to rebuild the token->word dict per
        call; the lookup list is now built at construction only."""
        n = 2000
        rng = np.random.default_rng(0)
        lists = [[f"kw{t}" for t in rng.integers(0, 300, size=3)] for _ in range(n)]
        t = AttributeTable(n)
        t.add_keywords_column("tags", lists)
        col = t.column("tags")
        words = col.words
        assert words == list(col.vocab)
        assert all(col.vocab[word] == token for token, word in enumerate(words))

        class CountingVocab(dict):
            walks = 0

            def items(self):
                CountingVocab.walks += 1
                return super().items()

            __iter__ = None  # any iteration over the vocab would raise

        col.vocab = CountingVocab(col.vocab)
        assert [t.row(i)["tags"] for i in range(n)] == lists
        assert CountingVocab.walks == 0
        assert col.words is words


class TestKeywordColumn:
    def test_rows_containing(self, table):
        col = table.column("tags")
        np.testing.assert_array_equal(np.sort(col.rows_containing("y")), [0, 1, 3])

    def test_rows_containing_unknown(self, table):
        col = table.column("tags")
        assert col.rows_containing("q").size == 0

    def test_mask_containing_any(self, table):
        col = table.column("tags")
        np.testing.assert_array_equal(
            col.mask_containing_any(["z", "q"]), [False, False, False, True]
        )


class TestConcatTables:
    """``concat_tables`` slices columns and gathers keyword CSRs; the
    result must be the table the rows would make if added one by one:
    same values, keyword vocabulary re-interned in first-seen order."""

    @staticmethod
    def _by_rows(rows):
        out = AttributeTable(len(rows))
        out.add_int_column("year", [r["year"] for r in rows])
        out.add_float_column("price", [r["price"] for r in rows])
        out.add_string_column("caption", [r["caption"] for r in rows])
        out.add_keywords_column("tags", [r["tags"] for r in rows])
        return out

    @pytest.mark.parametrize("parts", [
        [[3, 0], [2, 2, 1]],
        [[], [1]],
        [[2], []],
        [[], []],
    ])
    def test_equals_the_row_by_row_table(self, table, parts):
        other = self._by_rows([
            {"year": 1, "price": 0.5, "caption": "new", "tags": ["w", "y"]},
            {"year": 2, "price": 1.5, "caption": "newer", "tags": []},
            {"year": 3, "price": 2.5, "caption": "newest", "tags": ["v", "x"]},
        ])
        sources = [(table, parts[0]), (other, parts[1])]
        got = concat_tables(sources)
        want = self._by_rows([t.row(i) for t, rows in sources for i in rows])
        assert len(got) == len(want)
        assert [got.row(i) for i in range(len(got))] == [
            want.row(i) for i in range(len(want))]
        for name in ("year", "price"):
            assert got.column(name).dtype == want.column(name).dtype
        tags, want_tags = got.column("tags"), want.column("tags")
        assert tags.words == want_tags.words
        np.testing.assert_array_equal(tags.tokens, want_tags.tokens)
        np.testing.assert_array_equal(tags.offsets, want_tags.offsets)
        for word in ("x", "y", "w", "q"):
            np.testing.assert_array_equal(tags.rows_containing(word),
                                          want_tags.rows_containing(word))


class TestRowMemo:
    """``memo_rows``: a leaf's ``scan`` sees each row at most once."""

    @staticmethod
    def even(log):
        def scan(todo):
            log.append(todo.tolist())
            return todo % 2 == 0

        return scan

    def test_scans_only_unseen_rows_and_counts_them(self, table):
        log = []
        scan = self.even(log)
        assert table.memo_info() == MemoInfo(0, 0, 0)
        rows = np.asarray([3, 1])
        np.testing.assert_array_equal(table.memo_rows("p", rows, scan), [False, False])
        assert table.memo_info() == MemoInfo(entries=1, rows_scanned=2, rows_reused=0)
        every = np.arange(4)
        np.testing.assert_array_equal(
            table.memo_rows("p", every, scan), [True, False, True, False]
        )
        assert log == [[3, 1], [0, 2]]
        assert table.memo_info() == MemoInfo(entries=1, rows_scanned=4, rows_reused=2)
        table.memo_rows("p", every, scan)
        assert len(log) == 2  # nothing left to scan: scan is not called
        assert table.memo_info() == MemoInfo(entries=1, rows_scanned=4, rows_reused=6)

    def test_empty_unsorted_and_repeated_rows(self, table):
        scan = self.even([])
        assert table.memo_rows("p", np.empty(0, dtype=np.intp), scan).shape == (0,)
        rows = np.asarray([2, 0, 2, 3, 3])
        np.testing.assert_array_equal(
            table.memo_rows("p", rows, scan), [True, True, True, False, False]
        )

    def test_keys_do_not_share_verdicts(self, table):
        every = np.arange(4)
        table.memo_rows("even", every, lambda todo: todo % 2 == 0)
        got = table.memo_rows("odd", every, lambda todo: todo % 2 == 1)
        np.testing.assert_array_equal(got, [False, True, False, True])
        assert table.memo_info().entries == 2

    def test_tables_of_equal_length_do_not_share_verdicts(self, table):
        other = AttributeTable(len(table))
        every = np.arange(4)
        table.memo_rows("p", every, lambda todo: np.ones(todo.size, dtype=bool))
        got = other.memo_rows("p", every, lambda todo: np.zeros(todo.size, dtype=bool))
        assert not got.any()
        assert other.memo_info() == MemoInfo(entries=1, rows_scanned=4, rows_reused=0)

    def test_entry_count_never_exceeds_the_bound_lru(self, table, monkeypatch):
        monkeypatch.setattr(table_module, "_ROW_MEMO_ENTRIES", 3)
        log = []
        scan = self.even(log)
        every = np.arange(4)
        for key in "abc":
            table.memo_rows(key, every, scan)
        table.memo_rows("a", every, scan)  # refresh: "b" is now the oldest
        table.memo_rows("d", every, scan)
        assert table.memo_info().entries == 3
        scans = len(log)
        table.memo_rows("a", every, scan)
        assert len(log) == scans  # kept
        table.memo_rows("b", every, scan)
        assert len(log) == scans + 1  # evicted, scanned again
        for i in range(20):
            table.memo_rows(i, every, scan)
            assert table.memo_info().entries <= 3

    def test_bound_zero_keeps_nothing_but_still_answers(self, table, monkeypatch):
        monkeypatch.setattr(table_module, "_ROW_MEMO_ENTRIES", 0)
        every = np.arange(4)
        for _ in range(2):
            np.testing.assert_array_equal(
                table.memo_rows("p", every, lambda todo: todo % 2 == 0),
                [True, False, True, False],
            )
        assert table.memo_info() == MemoInfo(entries=0, rows_scanned=8, rows_reused=0)

    def test_failed_scan_records_nothing(self, table):
        def boom(todo):
            raise RuntimeError("scan failed")

        with pytest.raises(RuntimeError):
            table.memo_rows("p", np.arange(4), boom)
        got = table.memo_rows("p", np.arange(4), lambda todo: todo > 1)
        np.testing.assert_array_equal(got, [False, False, True, True])

    def test_pickle_carries_columns_but_no_memo_and_no_lock(self, table):
        table.memo_rows("p", np.arange(4), lambda todo: todo % 2 == 0)
        assert "_row_memo" not in table.__getstate__()
        clone = pickle.loads(pickle.dumps(table))
        assert clone.memo_info() == MemoInfo(0, 0, 0)
        assert clone._row_memo is not table._row_memo
        assert clone._row_memo.lock is not table._row_memo.lock
        assert clone.row(3) == table.row(3)
        assert table.memo_info().entries == 1  # the source keeps its own

    def test_concurrent_callers_agree_and_scan_each_row_once(self):
        n = 500
        t = AttributeTable(n)
        rng = np.random.default_rng(1)
        selections = [rng.permutation(n)[:300] for _ in range(8)]
        results = [None] * 8
        seen = []

        def scan(todo):
            seen.extend(todo.tolist())
            return todo % 3 == 0

        def work(i):
            for key in range(20):  # 20 cold entries: 20 chances to race
                results[i] = t.memo_rows(key, selections[i], scan)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            assert not any(th.is_alive() for th in threads)
        finally:
            sys.setswitchinterval(interval)
        for rows, got in zip(selections, results):
            np.testing.assert_array_equal(got, rows % 3 == 0)
        info = t.memo_info()
        # A lost update would scan a row twice or miscount a call.
        assert info.rows_scanned == 20 * len(np.unique(np.concatenate(selections)))
        assert info.rows_scanned + info.rows_reused == 8 * 20 * 300
