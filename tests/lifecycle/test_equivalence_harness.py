"""The randomized lifecycle-equivalence harness.

The streaming lifecycle (delta index + epoch snapshots + online
compaction) must be observationally identical to the naive competitor
that rebuilds from scratch after every operation:

* every epoch, search over the lifecycle returns exactly the ids the
  brute-force oracle computes over the live set;
* when online compaction rebuilds (the cut removes at least as many
  base nodes as survive) it produces byte-for-byte the graph that
  offline ``maintenance.rebuild()`` produces from a full-history index
  with the same tombstones, same seed, and same worker count —
  including the id remap; the fold it otherwise runs has its own
  contract in ``test_fold_compaction.py``;
* a published snapshot never changes, no matter what writers and the
  compactor do afterwards;
* the whole pipeline is deterministic: two replays of one op tape on a
  ``FakeClock`` agree on every read and every epoch.

Runs in the exhaustive regime (see ``conftest``), where these are
exact equalities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes.table import AttributeTable
from repro.core.acorn import AcornIndex
from repro.core.maintenance import rebuild
from repro.engine import QueryBatch, SearchEngine
from repro.lifecycle import (
    BackgroundCompactor,
    LifecycleConfig,
    LifecycleIndex,
)
from repro.predicates import Between, Equals, TruePredicate
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

pytestmark = pytest.mark.lifecycle

PREDICATES = [TruePredicate(), Equals("v", 1), Between("v", 1, 2)]


def ops_tape(rng, n_initial, n_ops, delete_fraction=0.35):
    """A seeded insert/delete tape over a growing id space."""
    ops = []
    next_id = n_initial
    for _ in range(n_ops):
        if rng.random() < delete_fraction and next_id > 0:
            ops.append(("delete", int(rng.integers(0, next_id))))
        else:
            vec = rng.standard_normal(DIM).astype(np.float32)
            ops.append(("insert", vec, {"v": int(rng.integers(0, 4))}))
            next_id += 1
    return ops


def graph_fingerprint(index):
    """Entry point, node levels, and every adjacency list."""
    g = index.graph
    edges = {
        (node, level): tuple(g.neighbors(node, level))
        for level in range(g.max_level + 1)
        for node in g.nodes_at_level(level)
    }
    levels = {node: g.node_level(node) for node in range(len(index))}
    return g.entry_point, levels, edges


class TestRandomizedEquivalence:
    """Hypothesis-driven op sequences: lifecycle == rebuild oracle."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        n_initial=st.integers(8, 24),
        n_ops=st.integers(5, 30),
        compact_at=st.lists(st.integers(0, 29), max_size=3, unique=True),
    )
    def test_every_epoch_matches_oracle(
        self, seed, n_initial, n_ops, compact_at
    ):
        vectors, table, rng = make_world(seed, n_initial)
        lc = LifecycleIndex.build(
            vectors, table, params=PARAMS, seed=seed % 97,
            config=LifecycleConfig(build_seed=seed % 97),
        )
        oracle = RebuildOracle(vectors, table)
        queries = rng.standard_normal((2, DIM)).astype(np.float32)
        ops = ops_tape(rng, n_initial, n_ops)
        compact_at = set(compact_at)
        for i, op in enumerate(ops):
            apply_ops(lc, oracle, [op])
            if i in compact_at:
                lc.compact(seed=seed % 97)
            assert_matches_oracle(lc, oracle, queries, PREDICATES)
        assert np.array_equal(lc.live_ids(), oracle.live_ids())

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16))
    def test_delete_everything_then_refill(self, seed):
        vectors, table, rng = make_world(seed, 12)
        lc = LifecycleIndex.build(vectors, table, params=PARAMS, seed=0)
        oracle = RebuildOracle(vectors, table)
        for ext in range(12):
            apply_ops(lc, oracle, [("delete", ext)])
        queries = rng.standard_normal((2, DIM)).astype(np.float32)
        assert_matches_oracle(lc, oracle, queries, PREDICATES)
        lc.compact(seed=0)
        assert lc.live_ids().shape[0] == 0
        refill = ops_tape(rng, 12, 10, delete_fraction=0.0)
        apply_ops(lc, oracle, refill)
        assert_matches_oracle(lc, oracle, queries, PREDICATES)


class TestCompactionEqualsRebuild:
    """The rebuild branch of online compaction == offline rebuild(),
    byte for byte.  (Insert-only folds are byte-identical too, and folds
    with deletes are not: ``test_fold_compaction.py``.)"""

    def test_identical_graphs_and_id_map(self):
        seed = 7
        vectors, table, rng = make_world(29, 24)
        lc = LifecycleIndex.build(vectors, table, params=PARAMS, seed=seed)
        oracle = RebuildOracle(vectors, table)
        # Half the base goes, so compact() rebuilds instead of folding.
        apply_ops(lc, oracle, [("delete", ext) for ext in range(0, 24, 2)]
                  + ops_tape(rng, 24, 20))

        # Offline arm: one full-history index with tombstones, then
        # maintenance.rebuild — the operation the lifecycle turns online.
        all_vectors = np.stack(oracle.vectors)
        history = AttributeTable(len(oracle.vectors))
        history.add_int_column(
            "v", np.asarray([r["v"] for r in oracle.rows])
        )
        offline = AcornIndex.build(
            all_vectors, history, params=PARAMS, seed=seed
        )
        for ext in sorted(oracle.deleted):
            offline.mark_deleted(ext)
        rebuilt, offline_map = rebuild(offline, seed=seed)

        report = lc.compact(seed=seed)
        assert graph_fingerprint(lc._base) == graph_fingerprint(rebuilt)
        assert np.array_equal(report.id_map, offline_map)

    def test_compaction_drops_tombstones_and_seals(self):
        vectors, table, rng = make_world(31, 16)
        lc = LifecycleIndex.build(vectors, table, params=PARAMS, seed=0)
        oracle = RebuildOracle(vectors, table)
        apply_ops(lc, oracle, ops_tape(rng, 16, 12))
        before_live = lc.live_ids()
        report = lc.compact(seed=0)
        assert lc.delta_size() == 0
        assert lc.tombstone_count() == 0
        assert np.array_equal(lc.live_ids(), before_live)
        assert report.epoch_after > report.epoch_before
        # live entities keep their external ids through the remap
        for ext in before_live.tolist():
            assert report.id_map[ext] >= 0


class TestSnapshotImmutability:
    def test_held_snapshot_survives_writes_and_compaction(self):
        vectors, table, rng = make_world(41, 20)
        lc = LifecycleIndex.build(vectors, table, params=PARAMS, seed=0)
        oracle = RebuildOracle(vectors, table)
        apply_ops(lc, oracle, ops_tape(rng, 20, 8))
        queries = rng.standard_normal((3, DIM)).astype(np.float32)

        snap = lc.acquire_read_snapshot()
        held_epoch = snap.epoch
        before = [
            (snap.search(q, p, 5, ef_search=EF_EXHAUSTIVE).ids.tolist(),
             snap.search(q, p, 5, ef_search=EF_EXHAUSTIVE)
                 .distances.tolist())
            for q in queries for p in PREDICATES
        ]
        before_live = snap.live_ids().tolist()

        # Concurrent-history mutation: more writes, then a compaction.
        apply_ops(lc, oracle, ops_tape(rng, lc.next_external_id, 10))
        lc.compact(seed=0)
        assert lc.current_epoch > held_epoch

        after = [
            (snap.search(q, p, 5, ef_search=EF_EXHAUSTIVE).ids.tolist(),
             snap.search(q, p, 5, ef_search=EF_EXHAUSTIVE)
                 .distances.tolist())
            for q in queries for p in PREDICATES
        ]
        assert before == after
        assert snap.live_ids().tolist() == before_live
        assert snap.epoch == held_epoch
        lc.release_read_snapshot(snap)

    def test_reader_refcounts(self):
        vectors, table, _ = make_world(43, 10)
        lc = LifecycleIndex.build(vectors, table, params=PARAMS, seed=0)
        snap = lc.acquire_read_snapshot()
        assert snap.readers == 1
        snap2 = lc.acquire_read_snapshot()
        assert snap2 is snap and snap.readers == 2
        lc.release_read_snapshot(snap)
        lc.release_read_snapshot(snap2)
        assert snap.readers == 0


class TestDoubleRunDeterminism:
    def _replay(self):
        vectors, table, rng = make_world(53, 24)
        clock = FakeClock()
        lc = LifecycleIndex.build(
            vectors, table, params=PARAMS, seed=3,
            config=LifecycleConfig(
                build_seed=3, compact_min_delta=4,
                compact_delta_fraction=0.05,
            ),
            clock=clock,
        )
        compactor = BackgroundCompactor(lc, interval_s=0.2, clock=clock)
        queries = rng.standard_normal((2, DIM)).astype(np.float32)
        trace = []
        for i, op in enumerate(ops_tape(rng, 24, 30)):
            if op[0] == "insert":
                lc.insert(op[1], op[2])
            else:
                lc.delete(op[1])
            clock.advance(0.05)
            compactor.tick()
            res = lc.search(queries[i % 2], PREDICATES[i % 3], 5,
                            ef_search=EF_EXHAUSTIVE)
            trace.append((res.epoch, res.ids.tolist(),
                          res.distances.tolist()))
        return trace, lc, compactor

    def test_identical_traces(self):
        trace_a, lc_a, comp_a = self._replay()
        trace_b, lc_b, comp_b = self._replay()
        assert trace_a == trace_b
        assert lc_a.current_epoch == lc_b.current_epoch
        assert comp_a.compactions == comp_b.compactions
        assert comp_a.compactions >= 1  # the tape must exercise one
        assert np.array_equal(lc_a.live_ids(), lc_b.live_ids())
        assert graph_fingerprint(lc_a._base) == graph_fingerprint(lc_b._base)


class TestEngineSnapshotPinning:
    def test_batch_pins_one_epoch(self):
        vectors, table, rng = make_world(61, 24)
        lc = LifecycleIndex.build(vectors, table, params=PARAMS, seed=0)
        for _ in range(6):
            lc.insert(rng.standard_normal(DIM).astype(np.float32),
                      {"v": 1})
        queries = rng.standard_normal((4, DIM)).astype(np.float32)
        batch = QueryBatch.build(
            queries, [TruePredicate()] * 4, k=5, ef_search=EF_EXHAUSTIVE
        )
        with SearchEngine(lc, num_workers=2) as engine:
            outcome = engine.search_batch(batch)
        epochs = {s.epoch for s in outcome.stats}
        assert epochs == {lc.current_epoch}
        assert outcome.summary()["max_epoch"] == lc.current_epoch
        assert outcome.summary()["max_epoch"] == lc.current_epoch
        assert lc._published.readers == 0  # released after the batch
