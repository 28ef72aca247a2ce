"""The delta's write path: published views stay frozen, refusals change
nothing.

``DeltaIndex.freeze`` hands out read-only prefix views of growing
buffers instead of re-stacking the delta, so a view published before
later inserts must keep exactly what it held — length, vectors, ids,
table rows and its snapshot's alive mask — while the buffers grow past
it, new keywords enter the vocabulary and later deletes land.  And since
every value is coerced at ``insert``, a row its columns cannot hold is
refused before anything changes: no row, no consumed id, no epoch.
"""

import numpy as np
import pytest

from repro.attributes.table import AttributeTable
from repro.core.params import AcornParams
from repro.lifecycle import LifecycleIndex
from repro.predicates import ContainsAny, Equals, TruePredicate

pytestmark = pytest.mark.lifecycle

DIM = 8
PARAMS = AcornParams(m=8, gamma=8, m_beta=16, ef_construction=48)


def _row(i: int) -> dict:
    return {"label": i % 3, "price": 0.5 * i, "caption": f"row {i}",
            "tags": [f"t{i % 4}", f"k{i}"]}


def _lifecycle(n_base: int = 40):
    rng = np.random.default_rng(11)
    vectors = rng.standard_normal((n_base, DIM)).astype(np.float32)
    rows = [_row(i) for i in range(n_base)]
    table = AttributeTable(n_base)
    table.add_int_column("label", [r["label"] for r in rows])
    table.add_float_column("price", [r["price"] for r in rows])
    table.add_string_column("caption", [r["caption"] for r in rows])
    table.add_keywords_column("tags", [r["tags"] for r in rows])
    lc = LifecycleIndex.build(vectors, table, params=PARAMS, seed=1)
    return lc, rng


def _state(snapshot):
    """Everything a reader of ``snapshot``'s delta views can see."""
    out = []
    for view, alive in zip(snapshot.deltas, snapshot._delta_alive):
        out.append((
            len(view),
            view.vectors.tobytes(),
            view.external_ids.tobytes(),
            [view.table.row(i) for i in range(len(view))],
            alive.tobytes(),
            view.table.column("tags").words[:],
        ))
    return out


class TestPublishedViewIsFrozen:
    @pytest.mark.parametrize("before", [3, 16, 21])
    def test_later_writes_never_reach_a_published_view(self, before):
        lc, rng = _lifecycle()
        fresh = [lc.insert(rng.standard_normal(DIM), _row(100 + i))
                 for i in range(before)]
        snapshot = lc.acquire_read_snapshot()
        try:
            (view,) = snapshot.deltas
            seen = _state(snapshot)
            query = rng.standard_normal(DIM).astype(np.float32)
            answers = [
                snapshot.search(query, predicate, 5, ef_search=64)
                for predicate in (TruePredicate(), Equals("label", 1),
                                  ContainsAny("tags", ["t2", "k101"]))
            ]
            # Grow every buffer past its first doubling or two, bring in
            # keywords the view never saw, delete rows it holds.
            for i in range(40):
                lc.insert(rng.standard_normal(DIM),
                          {**_row(200 + i), "tags": [f"new{i}", "t1"]})
            for ext in fresh[::2]:
                assert lc.delete(ext)
            assert lc._delta.freeze() is not view
            assert _state(snapshot) == seen
            assert len(view) == before
            assert view.table.column("tags").vocab.get("new0") is None
            again = [
                snapshot.search(query, predicate, 5, ef_search=64)
                for predicate in (TruePredicate(), Equals("label", 1),
                                  ContainsAny("tags", ["t2", "k101"]))
            ]
            for got, want in zip(again, answers):
                assert got.ids.tobytes() == want.ids.tobytes()
                assert got.distances.tobytes() == want.distances.tobytes()
        finally:
            lc.release_read_snapshot(snapshot)

    def test_writing_through_a_view_raises(self):
        lc, rng = _lifecycle()
        for i in range(5):
            lc.insert(rng.standard_normal(DIM), _row(100 + i))
        (view,) = lc._published.deltas
        tags = view.table.column("tags")
        for array in (view.vectors, view.external_ids,
                      view.table.column("label"), view.table.column("price"),
                      view.table.column("caption"), tags.offsets,
                      tags.tokens, lc._published._delta_alive[0]):
            with pytest.raises(ValueError):
                array[0] = array[1]

    def test_a_view_is_a_prefix_not_a_copy(self):
        """O(1) publication: consecutive views share the rows they have
        in common instead of re-stacking them."""
        lc, rng = _lifecycle()
        lc.insert(rng.standard_normal(DIM), _row(100))
        (first,) = lc._published.deltas
        lc.insert(rng.standard_normal(DIM), _row(101))
        (second,) = lc._published.deltas
        assert np.shares_memory(first.vectors, second.vectors)
        assert np.shares_memory(first.external_ids, second.external_ids)


class TestRefusedInsertChangesNothing:
    """A row its columns cannot hold used to sit in the delta, consume
    its external id and break every later publish."""

    @pytest.mark.parametrize("column, value", [
        ("label", "abc"),     # bad INT
        ("price", "abc"),     # bad FLOAT
        ("tags", 5),          # keywords that are not a list
        ("label", [1, 2]),    # not a scalar
    ])
    def test_refused_then_good_insert(self, column, value):
        lc, rng = _lifecycle()
        before = (lc.next_external_id, lc.delta_size(), lc.current_epoch)
        vector = rng.standard_normal(DIM).astype(np.float32)
        with pytest.raises(ValueError, match=column):
            lc.insert(vector, {**_row(100), column: value})
        assert (lc.next_external_id, lc.delta_size(),
                lc.current_epoch) == before

        ext = lc.insert(vector, _row(100))
        assert ext == before[0]
        assert lc.delta_size() == before[1] + 1
        result = lc.search(vector, Equals("label", _row(100)["label"]), 1,
                           ef_search=64)
        assert result.ids.tolist() == [ext]
        assert lc.get_row(ext)["tags"] == _row(100)["tags"]
        lc.compact()
        assert lc.search(vector, ContainsAny("tags", ["k100"]), 1,
                         ef_search=64).ids.tolist() == [ext]
