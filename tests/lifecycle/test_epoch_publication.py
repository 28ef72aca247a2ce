"""Epoch publication rebuilds only the alive masks whose inputs changed.

``EpochSnapshot`` turns the tombstone set into one alive mask per
segment when it is published.  A publish that keeps the tombstones and
the base carries the previous epoch's base mask — and the mask of every
delta view it shares — forward instead of rebuilding it, so an insert
costs O(delta), not O(base).  The masks must still be exactly the ones
a fresh build would make, whatever sequence of writes, publishes and
compactions led there.
"""

import numpy as np
import pytest

from repro.lifecycle import LifecycleIndex
from repro.lifecycle.epoch import EpochSnapshot
from repro.predicates import Equals, TruePredicate
from tests.lifecycle.conftest import DIM, PARAMS, make_world

pytestmark = pytest.mark.lifecycle


def _lifecycle(n: int = 60):
    vectors, table, rng = make_world(5, n)
    lc = LifecycleIndex.build(vectors, table, params=PARAMS, seed=1)
    return lc, rng


def _insert(lc, rng, count: int = 1) -> list[int]:
    return [lc.insert(rng.standard_normal(DIM).astype(np.float32),
                      {"v": int(rng.integers(0, 4))})
            for _ in range(count)]


def _rebuilt(snapshot):
    """The masks a snapshot of the same state builds from nothing."""
    fresh = EpochSnapshot(snapshot.epoch, snapshot.base, snapshot.base_ids,
                          snapshot.deltas, snapshot.tombstones)
    return fresh._base_alive, fresh._delta_alive


def _assert_masks_fresh(snapshot):
    base, deltas = _rebuilt(snapshot)
    assert snapshot._base_alive.tobytes() == base.tobytes()
    assert len(snapshot._delta_alive) == len(deltas) == len(snapshot.deltas)
    for got, want in zip(snapshot._delta_alive, deltas):
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


class TestCarriedMasks:
    def test_insert_publish_reuses_the_base_mask(self):
        lc, rng = _lifecycle()
        lc.delete(4)
        before = lc._published
        _insert(lc, rng)
        after = lc._published
        assert after.epoch == before.epoch + 1
        assert after._base_alive is before._base_alive
        assert not after._base_alive[4]
        _assert_masks_fresh(after)

    def test_idle_publish_reuses_every_mask(self):
        lc, rng = _lifecycle()
        _insert(lc, rng, 3)
        lc.delete(7)
        before = lc._published
        after = lc.publish()
        assert after._base_alive is before._base_alive
        assert len(after._delta_alive) == 1
        assert after._delta_alive[0] is before._delta_alive[0]

    def test_a_grown_delta_view_gets_a_new_mask(self):
        lc, rng = _lifecycle()
        _insert(lc, rng, 2)
        before = lc._published
        _insert(lc, rng)
        after = lc._published
        assert after._delta_alive[0] is not before._delta_alive[0]
        assert after._delta_alive[0].shape == (3,)
        _assert_masks_fresh(after)


class TestDeletePublish:
    def test_victims_are_hidden_from_base_and_delta(self):
        lc, rng = _lifecycle()
        fresh = _insert(lc, rng, 4)
        before = lc._published
        assert lc.delete(9)
        assert lc.delete(fresh[1])
        snap = lc._published
        assert snap._base_alive is not before._base_alive
        assert not snap._base_alive[9] and before._base_alive[9]
        assert snap._delta_alive[0].tolist() == [True, False, True, True]
        _assert_masks_fresh(snap)
        for eid in (9, fresh[1]):
            query = lc.get_vector(eid)
            got = snap.search(query, TruePredicate(), 5, ef_search=64)
            assert eid not in got.ids.tolist()
            assert eid not in snap.live_ids().tolist()

    def test_compaction_publish_rebuilds_from_the_new_base(self):
        lc, rng = _lifecycle()
        _insert(lc, rng, 5)
        lc.delete(2)
        before = lc._published
        lc.compact()
        after = lc._published
        assert after.base is not before.base
        assert after._base_alive is not before._base_alive
        assert after._base_alive.all() and after.deltas == ()
        _assert_masks_fresh(after)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_published_epoch_equals_a_fresh_build(seed):
    """Random inserts, deletes, idle publishes and compactions: after
    each, the published masks equal a from-scratch build, and reads
    answer as the snapshot's own exact oracle does."""
    lc, _ = _lifecycle(n=50)
    rng = np.random.default_rng(seed)
    inserted: list[int] = []
    query = rng.standard_normal(DIM).astype(np.float32)
    for step in range(60):
        op = rng.integers(0, 10)
        if op < 5:
            inserted += _insert(lc, rng)
        elif op < 8:
            pool = list(range(50)) + inserted
            lc.delete(int(pool[rng.integers(0, len(pool))]))
        elif op < 9:
            lc.publish()
        elif step % 3 == 0:
            lc.compact()
        snap = lc._published
        _assert_masks_fresh(snap)
        got = snap.search(query, Equals("v", 1), 5, ef_search=512)
        want = snap.exact_search(query, Equals("v", 1), 5)
        assert got.ids.tolist() == want.ids.tolist()
