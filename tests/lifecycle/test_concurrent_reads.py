"""Reads never fail while a writer thread mutates and compacts.

The other lifecycle suites replay writes and reads on one thread.  This
one runs them on two: a writer thread applies a seeded insert/delete
tape and ticks an inline ``BackgroundCompactor`` while the main thread
reads through ``acquire_read_snapshot`` / ``release_read_snapshot``.
Every read must be answered from one consistent epoch — no exception,
no id outside its own snapshot's live set, no recall collapse — and no
published snapshot may be left pinned afterwards.

How many reads fit beside the writer is up to the scheduler (on a
two-core box anywhere from 2 to 400), so the overlap that matters is
forced: each compaction stops between building the new base and
installing it until one whole read has run against the old epoch.
"""

import sys
import threading

import numpy as np
import pytest

from repro.eval.metrics import recall_at_k
from repro.lifecycle import (
    BackgroundCompactor,
    LifecycleConfig,
    LifecycleIndex,
)
from repro.predicates import Between, Equals, TruePredicate

from tests.lifecycle.conftest import DIM, PARAMS, make_world
from tests.lifecycle.test_equivalence_harness import ops_tape

pytestmark = pytest.mark.lifecycle

N_INITIAL = 160
K = 10
EF = 32
RECALL_FLOOR = 0.5
PREDICATES = [TruePredicate(), Equals("v", 1), Between("v", 1, 2)]


class ReaderRendezvous:
    """Stands in for a ``CompactorFaultPlan``: its stage hook parks the
    compacting thread before ``"install"`` until the reader has
    finished one more read."""

    def __init__(self):
        self.reads = 0
        self._changed = threading.Condition()

    def read_finished(self):
        with self._changed:
            self.reads += 1
            self._changed.notify_all()

    def hook_for(self, _attempt):
        def on_stage(reached):
            if reached != "install":
                return
            with self._changed:
                target = self.reads + 1
                assert self._changed.wait_for(
                    lambda: self.reads >= target, timeout=10
                ), "no read completed while the compaction was in flight"
        return on_stage


def test_reads_stay_consistent_under_a_writer_with_compaction():
    vectors, table, rng = make_world(seed=71, n=N_INITIAL)
    lc = LifecycleIndex.build(
        vectors, table, params=PARAMS, seed=5,
        config=LifecycleConfig(
            build_seed=5, compact_min_delta=16, compact_delta_fraction=0.02,
        ),
    )
    rendezvous = ReaderRendezvous()
    compactor = BackgroundCompactor(lc, interval_s=0.0,
                                    fault_plan=rendezvous)
    ops = ops_tape(rng, N_INITIAL, 90, delete_fraction=0.3)
    queries = rng.standard_normal((12, DIM)).astype(np.float32)

    writer_done = threading.Event()
    writer_errors = []

    def write_stream():
        try:
            for op in ops:
                if op[0] == "insert":
                    lc.insert(op[1], op[2])
                else:
                    lc.delete(op[1])
                compactor.tick()
        except BaseException as exc:  # noqa: BLE001 — asserted empty below
            writer_errors.append(exc)
        finally:
            writer_done.set()

    writer = threading.Thread(target=write_stream, name="lifecycle-writer")
    snapshots = set()
    recalls = []
    # A short switch interval lets the two threads interleave mid-write
    # and mid-compaction instead of once per 5 ms.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        writer.start()
        while not writer_done.is_set():
            query = queries[rendezvous.reads % len(queries)]
            predicate = PREDICATES[rendezvous.reads % len(PREDICATES)]
            snap = lc.acquire_read_snapshot()
            try:
                found = snap.search(query, predicate, K, ef_search=EF)
                truth = snap.exact_search(query, predicate, K)
                live = set(snap.live_ids().tolist())
            finally:
                lc.release_read_snapshot(snap)
            snapshots.add(snap)
            assert found.epoch == snap.epoch
            assert set(found.ids.tolist()) <= live
            if len(truth.ids):
                recalls.append(recall_at_k(found.ids, truth.ids, K))
            rendezvous.read_finished()
    finally:
        sys.setswitchinterval(switch_interval)
        writer.join(timeout=60)

    assert not writer.is_alive()
    assert writer_errors == []
    assert compactor.compactions >= 2 and compactor.crashes == 0
    # One epoch per compaction, each first read while the next was built.
    assert len({snap.epoch for snap in snapshots}) >= compactor.compactions
    assert float(np.mean(recalls)) >= RECALL_FLOOR
    assert all(snap.readers == 0 for snap in snapshots)
    assert lc._published.readers == 0
