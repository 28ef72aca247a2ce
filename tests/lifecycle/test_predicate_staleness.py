"""Regression: compiled predicate masks must not survive a base swap.

The failure mode under test: ``SearchEngine``'s LRU cache compiles a
predicate against the lifecycle's pre-compaction base table; the
lifecycle then compacts under delete+reinsert churn that leaves the new
base with *exactly the old base's length* but different rows.  A mask
validated by length alone would be silently applied to the new base —
returning ghost entities that were deleted (or never matched) and
missing live matches.  Masks are now validated by table identity at
both the cache and the epoch snapshot, so these suites pin the
end-to-end behavior through the engine and the serving layer.
"""

import numpy as np
import pytest

from repro.engine.engine import QueryBatch, SearchEngine
from repro.lifecycle import LifecycleConfig, LifecycleIndex
from repro.predicates import And, Equals, RegexMatch

from tests.lifecycle.conftest import DIM, EF_EXHAUSTIVE, PARAMS

pytestmark = pytest.mark.lifecycle

N = 16


def make_churned_lifecycle():
    """A lifecycle whose compaction swaps the base contents, not size.

    Base: 8 entities with v=1 (ids 0..7) + 8 with v=0 (ids 8..15).
    Churn: delete every v=1 entity, insert 8 new v=0 entities — after
    compaction the base again holds 16 rows, but none passes v==1.
    """
    rng = np.random.default_rng(123)
    vectors = rng.standard_normal((N, DIM)).astype(np.float32)
    from repro.attributes.table import AttributeTable

    table = AttributeTable(N)
    table.add_int_column("v", np.asarray([1] * 8 + [0] * 8))
    lc = LifecycleIndex.build(
        vectors, table, params=PARAMS, seed=0,
        config=LifecycleConfig(compact_min_delta=1),
    )
    return lc, rng


def churn(lc, rng):
    for external_id in range(8):
        assert lc.delete(external_id)
    for _ in range(8):
        lc.insert(rng.standard_normal(DIM).astype(np.float32), {"v": 0})


class TestEngineCacheAcrossCompaction:
    def test_no_ghosts_after_same_size_base_swap(self):
        lc, rng = make_churned_lifecycle()
        query = rng.standard_normal(DIM).astype(np.float32)
        pred = Equals("v", 1)
        with SearchEngine(lc, num_workers=1) as engine:
            old_table = lc.table
            before = engine.search_batch(
                QueryBatch.build(query, pred, k=8,
                                 ef_search=EF_EXHAUSTIVE)
            )
            assert sorted(before[0].ids.tolist()) == list(range(8))

            churn(lc, rng)
            report = lc.compact(seed=0)
            new_table = lc.table
            assert new_table is not old_table
            assert len(new_table) == len(old_table) == N
            assert report.n_live == N

            # Same engine, same predicate fingerprint: the cached mask
            # was compiled against the dead table and must be remade.
            after = engine.search_batch(
                QueryBatch.build(query, pred, k=8,
                                 ef_search=EF_EXHAUSTIVE)
            )
            assert after[0].ids.tolist() == []  # no v==1 rows survive
            exact = lc._published.exact_search(query, pred, 8)
            assert exact.ids.tolist() == []

    def test_matching_rows_found_after_swap(self):
        """Mirror case: the new base has matches the stale mask would
        miss (mask compiled when nothing passed)."""
        lc, rng = make_churned_lifecycle()
        query = rng.standard_normal(DIM).astype(np.float32)
        pred = Equals("v", 7)
        with SearchEngine(lc, num_workers=1) as engine:
            empty = engine.search_batch(
                QueryBatch.build(query, pred, k=8,
                                 ef_search=EF_EXHAUSTIVE)
            )
            assert empty[0].ids.tolist() == []
            for external_id in range(8):
                assert lc.delete(external_id)
            inserted = [
                lc.insert(rng.standard_normal(DIM).astype(np.float32),
                          {"v": 7})
                for _ in range(8)
            ]
            lc.compact(seed=0)
            found = engine.search_batch(
                QueryBatch.build(query, pred, k=8,
                                 ef_search=EF_EXHAUSTIVE)
            )
            assert sorted(found[0].ids.tolist()) == sorted(inserted)

    def test_engine_table_tracks_published_base(self):
        lc, rng = make_churned_lifecycle()
        engine = SearchEngine(lc, num_workers=1)
        try:
            assert engine.table is lc.table
            churn(lc, rng)
            lc.compact(seed=0)
            assert engine.table is lc.table
        finally:
            engine.close()

    def test_explicit_table_override_still_pins(self):
        lc, rng = make_churned_lifecycle()
        pinned = lc.table
        engine = SearchEngine(lc, num_workers=1, table=pinned)
        try:
            churn(lc, rng)
            lc.compact(seed=0)
            assert engine.table is pinned
        finally:
            engine.close()


class TestSnapshotMaskValidation:
    def test_snapshot_rejects_stale_mask_of_equal_length(self):
        lc, rng = make_churned_lifecycle()
        pred = Equals("v", 1)
        stale = pred.compile(lc.table)
        churn(lc, rng)
        lc.compact(seed=0)
        query = rng.standard_normal(DIM).astype(np.float32)
        res = lc.search(query, stale, 8, ef_search=EF_EXHAUSTIVE)
        assert res.ids.tolist() == []  # recompiled from the raw predicate

    def test_fresh_mask_of_current_table_is_honored(self):
        lc, rng = make_churned_lifecycle()
        query = rng.standard_normal(DIM).astype(np.float32)
        pred = Equals("v", 1)
        fresh = pred.compile(lc.table)
        res = lc.search(query, fresh, 8, ef_search=EF_EXHAUSTIVE)
        raw = lc.search(query, pred, 8, ef_search=EF_EXHAUSTIVE)
        assert res.ids.tolist() == raw.ids.tolist()
        assert sorted(res.ids.tolist()) == list(range(8))


class TestServingTableAcrossCompaction:
    def test_service_table_tracks_compaction(self):
        import asyncio

        from repro.serving import AcornService, ServingConfig
        from repro.utils.clock import FakeClock

        lc, rng = make_churned_lifecycle()
        service = AcornService(lc, ServingConfig(), clock=FakeClock())
        assert service.table is lc.table
        churn(lc, rng)
        lc.compact(seed=0)
        assert service.table is lc.table

        async def close():
            await service.aclose()

        asyncio.new_event_loop().run_until_complete(close())


class TestRowMemoAcrossCompaction:
    """The regex row memo lives on the table object, so a base swap —
    even one that keeps the length — starts from an empty memo."""

    @staticmethod
    def make():
        rng = np.random.default_rng(321)
        vectors = rng.standard_normal((N, DIM)).astype(np.float32)
        from repro.attributes.table import AttributeTable

        table = AttributeTable(N)
        table.add_int_column("v", np.asarray([1] * 8 + [0] * 8))
        table.add_string_column("caption", ["red dog"] * 8 + ["blue cat"] * 8)
        lc = LifecycleIndex.build(
            vectors, table, params=PARAMS, seed=0,
            config=LifecycleConfig(compact_min_delta=1),
        )
        return lc, rng

    def test_same_length_base_swap_does_not_reuse_verdicts(self):
        lc, rng = self.make()
        query = rng.standard_normal(DIM).astype(np.float32)
        # Unique trees around one recurring leaf: only the row memo,
        # never the whole-tree cache, can carry the regex verdicts over.
        dog = RegexMatch("caption", r"\bdog\b")
        with SearchEngine(lc, num_workers=1) as engine:
            old_table = lc.table
            before = engine.search_batch(
                QueryBatch.build(query, dog, k=8, ef_search=EF_EXHAUSTIVE)
            )
            assert sorted(before[0].ids.tolist()) == list(range(8))
            assert old_table.memo_info().rows_scanned == N

            for external_id in range(8):
                assert lc.delete(external_id)
            inserted = [
                lc.insert(rng.standard_normal(DIM).astype(np.float32),
                          {"v": 0, "caption": "green dog" if i < 3 else "green cat"})
                for i in range(8)
            ]
            lc.compact(seed=0)
            new_table = lc.table
            assert new_table is not old_table
            assert len(new_table) == len(old_table) == N
            assert new_table.memo_info().entries == 0

            after = engine.search_batch(
                QueryBatch.build(query, And(dog, Equals("v", 0)), k=8,
                                 ef_search=EF_EXHAUSTIVE)
            )
            assert sorted(after[0].ids.tolist()) == sorted(inserted[:3])
            exact = lc._published.exact_search(query, dog, 8)
            assert sorted(exact.ids.tolist()) == sorted(inserted[:3])
            assert new_table.memo_info().rows_scanned == N
            # The dead table's memo is untouched and dies with it.
            assert old_table.memo_info().rows_scanned == N

    def test_save_load_round_trip_carries_no_memo(self, tmp_path):
        from repro.persistence import load_index, save_index

        lc, _ = self.make()
        index = lc._published.base
        pred = RegexMatch("caption", "dog")
        expected = pred.mask(index.table)
        assert index.table.memo_info().entries == 1
        save_index(index, tmp_path / "base.npz")
        loaded = load_index(tmp_path / "base.npz")
        assert loaded.table is not index.table
        assert loaded.table.memo_info().entries == 0
        np.testing.assert_array_equal(pred.mask(loaded.table), expected)
        assert loaded.table.memo_info().rows_scanned == N
