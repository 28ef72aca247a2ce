"""Chaos: kill the compactor mid-merge, respawn it, verify no damage.

A compaction that dies at any stage (after the cut, during the build,
right before install) must leave the lifecycle exactly as it was:
readers keep the old epoch and still answer with full fidelity
(recall ceiling 1.0 — results equal the brute-force oracle), no
partially-installed epoch is ever visible, and a respawned compactor
completes the merge the crash abandoned.
"""

import numpy as np
import pytest

from repro.lifecycle import (
    COMPACTION_STAGES,
    BackgroundCompactor,
    CompactorFaultPlan,
    CompactorKilled,
    LifecycleConfig,
    LifecycleIndex,
)
from repro.predicates import TruePredicate
from repro.utils.clock import FakeClock

from tests.lifecycle.conftest import (
    DIM,
    EF_EXHAUSTIVE,
    PARAMS,
    RebuildOracle,
    apply_ops,
    assert_matches_oracle,
    make_world,
)
from tests.lifecycle.test_equivalence_harness import ops_tape

pytestmark = pytest.mark.lifecycle


def make_mutated(seed=71, n=20, n_ops=14):
    vectors, table, rng = make_world(seed, n)
    lc = LifecycleIndex.build(vectors, table, params=PARAMS, seed=0)
    oracle = RebuildOracle(vectors, table)
    apply_ops(lc, oracle, ops_tape(rng, n, n_ops))
    return lc, oracle, rng


class TestKillAtEveryStage:
    @pytest.mark.parametrize("stage", COMPACTION_STAGES)
    def test_crash_leaves_old_epoch_fully_intact(self, stage):
        lc, oracle, rng = make_mutated()
        queries = rng.standard_normal((2, DIM)).astype(np.float32)
        epoch_before = lc.current_epoch
        base_before = lc._base.graph.checksum()
        live_before = lc.live_ids()

        def kill(reached):
            if reached == stage:
                raise CompactorKilled(f"injected kill at {reached}")

        with pytest.raises(CompactorKilled):
            lc.compact(seed=0, on_stage=kill)

        # No partial epoch: the published snapshot is the old one (for
        # a pre-install kill) or at most re-published over identical
        # state; either way readers see exactly the old live set and
        # exact results (recall ceiling 1.0 against the oracle).
        assert lc._base.graph.checksum() == base_before
        assert np.array_equal(lc.live_ids(), live_before)
        assert lc.current_epoch >= epoch_before
        assert_matches_oracle(lc, oracle, queries,
                              [TruePredicate()])

        # Respawn: the retry re-merges everything the crash abandoned.
        report = lc.compact(seed=0)
        assert report.n_live == live_before.shape[0]
        assert lc.delta_size() == 0
        assert np.array_equal(lc.live_ids(), live_before)
        assert_matches_oracle(lc, oracle, queries, [TruePredicate()])

    def test_crash_equals_never_started(self):
        """A killed compaction then retry == a single clean compaction.

        The graph after crash+retry must be byte-identical to the graph
        a never-crashed twin produces — the cut/seal bookkeeping leaves
        no residue in the builder input.
        """
        lc_a, _, _ = make_mutated(seed=73)
        lc_b, _, _ = make_mutated(seed=73)

        def kill(reached):
            if reached == "build":
                raise CompactorKilled("injected")

        with pytest.raises(CompactorKilled):
            lc_a.compact(seed=5, on_stage=kill)
        lc_a.compact(seed=5)
        lc_b.compact(seed=5)
        assert lc_a._base.graph.checksum() == lc_b._base.graph.checksum()
        assert np.array_equal(lc_a.live_ids(), lc_b.live_ids())

    def test_epoch_is_installed_frozen(self):
        """The compactor freezes the raw CSR; the first walk to expand a
        node pays that node's candidate row, and nothing else does."""
        lc, oracle, rng = make_mutated()
        frozen_at_install = []

        def spy(reached):
            if reached == "install":
                # Nothing is published yet: readers still hold the old base.
                frozen_at_install.append(lc._published.base)

        old_base = lc._published.base
        lc.compact(seed=0, on_stage=spy)
        new_base = lc._published.base
        assert frozen_at_install == [old_base] and new_base is not old_base
        frozen = new_base._frozen
        assert frozen is not None

        def memoized():
            return sum(row is not None for level in frozen
                       for row in level.rows)

        assert memoized() == 0
        queries = rng.standard_normal((2, DIM)).astype(np.float32)
        assert_matches_oracle(lc, oracle, queries, [TruePredicate()])
        assert memoized() == 0  # these reads scan the small live set
        walk = new_base.search(queries[0], TruePredicate(), 5,
                               ef_search=EF_EXHAUSTIVE,
                               entry_point=new_base.graph.entry_point)
        assert 0 < memoized() <= walk.hops
        assert new_base._frozen is frozen  # the reads reused it


class TestSeededBackgroundChaos:
    def test_seeded_kills_then_recovery(self):
        """A seeded fault plan kills some attempts; ticks in between
        keep answering exactly; the survivors finish the merges."""
        vectors, table, rng = make_world(79, 24)
        clock = FakeClock()
        lc = LifecycleIndex.build(
            vectors, table, params=PARAMS, seed=0,
            config=LifecycleConfig(
                compact_min_delta=4, compact_delta_fraction=0.05,
            ),
            clock=clock,
        )
        oracle = RebuildOracle(vectors, table)
        plan = CompactorFaultPlan.seeded(seed=13, n_kills=2)
        compactor = BackgroundCompactor(
            lc, interval_s=0.1, fault_plan=plan, clock=clock
        )
        queries = rng.standard_normal((2, DIM)).astype(np.float32)
        for op in ops_tape(rng, 24, 40):
            apply_ops(lc, oracle, [op])
            clock.advance(0.05)
            compactor.tick()
            assert_matches_oracle(lc, oracle, queries, [TruePredicate()])
        assert compactor.crashes >= 1, "fault plan never fired"
        # Drain: past the fault plan's kill window, a few more ticks
        # must complete the pending merge.
        for _ in range(8):
            clock.advance(0.2)
            compactor.tick()
        assert compactor.compactions >= 1
        assert_matches_oracle(lc, oracle, queries, [TruePredicate()])
        stats = compactor.stats()
        assert stats["crashes"] == compactor.crashes
        assert stats["attempts"] >= stats["crashes"] + stats["compactions"]

    def test_fault_plan_seeding_is_deterministic(self):
        a = CompactorFaultPlan.seeded(seed=3, n_kills=3)
        b = CompactorFaultPlan.seeded(seed=3, n_kills=3)
        assert a.kill_attempts == b.kill_attempts
        assert all(s in COMPACTION_STAGES
                   for s in a.kill_attempts.values())

    def test_reader_holding_snapshot_across_crash(self):
        lc, oracle, rng = make_mutated(seed=83)
        q = rng.standard_normal(DIM).astype(np.float32)
        snap = lc.acquire_read_snapshot()
        want_ids = snap.search(
            q, TruePredicate(), 5, ef_search=EF_EXHAUSTIVE
        ).ids.tolist()

        def kill(reached):
            if reached == "install":
                raise CompactorKilled("injected at install")

        with pytest.raises(CompactorKilled):
            lc.compact(seed=0, on_stage=kill)
        got = snap.search(q, TruePredicate(), 5, ef_search=EF_EXHAUSTIVE)
        assert got.ids.tolist() == want_ids
        lc.release_read_snapshot(snap)


class TestCompactionContention:
    """Losing the compaction admission race is a no-op, not a failure.

    ``should_compact()`` drops the lock before ``compact()`` reacquires
    it, so two concurrent tickers can both see the policy fire; the
    loser must quietly yield instead of propagating a RuntimeError out
    of whatever host drove the tick."""

    def test_compact_raises_typed_in_progress_error(self):
        from repro.lifecycle import CompactionInProgress

        lc, _, _ = make_mutated(seed=89)
        lc._compacting = True
        try:
            with pytest.raises(CompactionInProgress):
                lc.compact(seed=0)
        finally:
            lc._compacting = False
        # still a RuntimeError for callers catching the old contract
        assert issubclass(CompactionInProgress, RuntimeError)

    def _eager_lifecycle(self, seed):
        vectors, table, rng = make_world(seed, 20)
        lc = LifecycleIndex.build(
            vectors, table, params=PARAMS, seed=0,
            config=LifecycleConfig(compact_min_delta=1),
        )
        apply_ops(lc, RebuildOracle(vectors, table), ops_tape(rng, 20, 10))
        assert lc.should_compact()
        return lc

    def test_tick_yields_when_losing_the_race(self):
        lc = self._eager_lifecycle(seed=91)
        compactor = BackgroundCompactor(lc)

        def racy_should_compact():
            # the moment between this ticker's policy check and its
            # compact() call, a concurrent compaction claims the merge
            lc._compacting = True
            return True

        lc.should_compact = racy_should_compact
        try:
            assert compactor.tick() is None
        finally:
            lc._compacting = False
            del lc.should_compact
        # nothing ran: no crash counted, and the attempt index driving
        # the seeded fault schedule was handed back
        assert compactor.attempts == 0
        assert compactor.crashes == 0
        assert compactor.compactions == 0
        # with the contention gone, the same compactor completes
        report = compactor.tick()
        assert report is not None
        assert compactor.compactions == 1

    def test_maybe_compact_yields_when_losing_the_race(self):
        lc = self._eager_lifecycle(seed=97)

        def racy_should_compact():
            lc._compacting = True
            return True

        lc.should_compact = racy_should_compact
        try:
            assert lc.maybe_compact(seed=0) is None
        finally:
            lc._compacting = False
            del lc.should_compact
        assert lc.maybe_compact(seed=0) is not None
