"""Property-based tests for the attribute table."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes.table import AttributeTable
from repro.predicates import Equals

keyword_pool = ["a", "b", "c", "d", "e"]


@st.composite
def random_table(draw):
    n = draw(st.integers(1, 60))
    table = AttributeTable(n)
    ints = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    table.add_int_column("num", ints)
    strings = draw(
        st.lists(st.sampled_from(["dog", "cat", "owl"]), min_size=n, max_size=n)
    )
    table.add_string_column("word", strings)
    lists = draw(
        st.lists(
            st.lists(st.sampled_from(keyword_pool), max_size=3, unique=True),
            min_size=n,
            max_size=n,
        )
    )
    table.add_keywords_column("tags", lists)
    return table, ints, strings, lists


@settings(max_examples=40)
@given(random_table())
def test_row_view_agrees_with_columns(world):
    table, ints, strings, lists = world
    for i in (0, len(table) // 2, len(table) - 1):
        row = table.row(i)
        assert row["num"] == ints[i]
        assert row["word"] == strings[i]
        assert row["tags"] == lists[i]


@settings(max_examples=40)
@given(random_table(), st.integers(0, 9))
def test_equals_mask_counts(world, value):
    table, ints, _, _ = world
    mask = Equals("num", value).mask(table)
    assert mask.sum() == sum(1 for v in ints if v == value)


@settings(max_examples=40)
@given(random_table(), st.sampled_from(keyword_pool))
def test_keyword_postings_consistent(world, keyword):
    table, _, _, lists = world
    column = table.column("tags")
    rows = set(column.rows_containing(keyword).tolist())
    expected = {i for i, kws in enumerate(lists) if keyword in kws}
    assert rows == expected
