"""Property tests for restricted evaluation and the table row memo.

Random predicate trees over every leaf kind are checked against a
row-by-row ``matches()`` oracle (which never touches the memo) at every
memo state: cold, warm, after interleaved ``mask_rows`` calls on other
trees sharing a pattern, and with the memo bound forced to 0 or 1.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes import table as table_module
from repro.attributes.table import AttributeTable
from repro.predicates import (
    And,
    Between,
    ContainsAll,
    ContainsAny,
    Equals,
    Not,
    OneOf,
    Or,
    RegexMatch,
)

WORDS = ["ab", "abc", "b", "c", "ca", "zz"]
PATTERNS = ["a", "b+", r"\bab\b", "^c", "a|c", "zz$", "q"]
KEYWORDS = ["x", "y", "z", "unseen"]


@st.composite
def tables(draw):
    n = draw(st.integers(0, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    table = AttributeTable(n)
    table.add_int_column("a", rng.integers(0, 5, size=n))
    table.add_string_column(
        "s", [" ".join(rng.choice(WORDS, size=rng.integers(0, 4))) for _ in range(n)]
    )
    table.add_keywords_column(
        "k", [list(rng.choice(KEYWORDS[:3], size=rng.integers(0, 3))) for _ in range(n)]
    )
    return table


leaves = st.one_of(
    st.integers(0, 4).map(lambda v: Equals("a", v)),
    st.lists(st.integers(0, 4), min_size=1, max_size=3).map(lambda v: OneOf("a", v)),
    st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
        lambda p: Between("a", min(p), max(p))
    ),
    st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=2).map(
        lambda kws: ContainsAny("k", kws)
    ),
    st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=2).map(
        lambda kws: ContainsAll("k", kws)
    ),
    st.sampled_from(PATTERNS).map(lambda p: RegexMatch("s", p)),
)

trees = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.lists(sub, min_size=2, max_size=3).map(lambda c: And(*c)),
        st.lists(sub, min_size=2, max_size=3).map(lambda c: Or(*c)),
        sub.map(Not),
    ),
    max_leaves=6,
)


def row_lists(table):
    """Arbitrary row selections: empty, unsorted, duplicated."""
    if len(table) == 0:
        return st.just(np.empty(0, dtype=np.int64))
    return st.lists(st.integers(0, len(table) - 1), max_size=40).map(
        lambda rows: np.asarray(rows, dtype=np.int64)
    )


def oracle(predicate, table):
    return np.asarray(
        [predicate.matches(table, i) for i in range(len(table))], dtype=bool
    )


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([0, 1, table_module._ROW_MEMO_ENTRIES]))
def test_mask_equals_oracle_at_every_memo_state(data, bound):
    table = data.draw(tables())
    tree = data.draw(trees)
    with mock.patch.object(table_module, "_ROW_MEMO_ENTRIES", bound):
        expected = oracle(tree, table)
        cold = tree.mask(table)
        assert cold.dtype == bool and cold.shape == (len(table),)
        np.testing.assert_array_equal(cold, expected)
        np.testing.assert_array_equal(tree.mask(table), expected)  # warm
        # Other trees sharing the pattern pool half-fill the memo first.
        for _ in range(data.draw(st.integers(0, 4))):
            other = data.draw(trees)
            rows = data.draw(row_lists(table))
            np.testing.assert_array_equal(
                other.mask_rows(table, rows), oracle(other, table)[rows]
            )
            np.testing.assert_array_equal(tree.mask(table), expected)
        assert table.memo_info().entries <= bound


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mask_rows_equals_mask_indexed(data):
    table = data.draw(tables())
    tree = data.draw(trees)
    rows = data.draw(row_lists(table))
    # mask_rows first, so it is the call that sees the cold memo.
    got = tree.mask_rows(table, rows)
    assert got.dtype == bool and got.shape == rows.shape
    np.testing.assert_array_equal(got, tree.mask(table)[rows])
    np.testing.assert_array_equal(got, oracle(tree, table)[rows])
    # A plain list of rows is accepted like an array.
    np.testing.assert_array_equal(tree.mask_rows(table, rows.tolist()), got)


@settings(max_examples=60, deadline=None)
@given(trees)
def test_row_scan_flag_tracks_regex_leaves(tree):
    assert tree.row_scan == ("RegexMatch(" in repr(tree))


@pytest.mark.parametrize("junction", [And, Or])
@pytest.mark.parametrize("regex_first", [True, False])
def test_kind_error_raised_even_with_no_rows_left(junction, regex_first):
    """The vectorised sibling decides every row (none survive the And,
    all already pass the Or); the regex child must still be validated."""
    table = AttributeTable(4)
    table.add_int_column("a", [0, 1, 2, 3])
    decided = Equals("a", -1) if junction is And else Between("a", 0, 3)
    bad = RegexMatch("a", "x")
    tree = junction(bad, decided) if regex_first else junction(decided, bad)
    with pytest.raises(ValueError, match="require a string column"):
        tree.mask(table)
    with pytest.raises(ValueError, match="require a string column"):
        tree.mask_rows(table, np.empty(0, dtype=np.int64))
    with pytest.raises(KeyError, match="no column"):
        junction(decided, RegexMatch("missing", "x")).mask(table)
