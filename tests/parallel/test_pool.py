"""ProcessPool lifecycle: calls, remote errors, crashes, respawns."""

import pickle

import pytest

from repro.parallel import ProcessPool, RemoteError, WorkerCrash


class TestCalls:
    def test_ping_roundtrip(self, shared_pool):
        reply = shared_pool.call(0, "ping")
        assert reply["pid"] > 0
        assert isinstance(reply["pinned"], list)

    def test_worker_ids_wrap_modulo_slots(self, shared_pool):
        direct = shared_pool.call(1, "ping")["pid"]
        wrapped = shared_pool.call(3, "ping")["pid"]  # 3 % 2 == 1
        assert direct == wrapped

    def test_map_calls_preserves_call_order(self, shared_pool):
        replies = shared_pool.map_calls([
            (1, "ping", None, None),
            (0, "ping", None, None),
        ])
        pids = shared_pool.worker_pids()
        assert [r["pid"] for r in replies] == [pids[1], pids[0]]

    def test_map_calls_takes_one_call_per_slot(self, shared_pool):
        with pytest.raises(ValueError, match="one call per slot"):
            shared_pool.map_calls([(0, "ping", None, None),
                                   (2, "ping", None, None)])  # 2 % 2 == 0

    def test_unpicklable_payload_leaves_pipes_in_step(self, shared_pool):
        """The failed call is raised only after the other slot's reply
        is read, so the next call on that slot gets its own reply."""
        with pytest.raises((pickle.PicklingError, AttributeError)):
            shared_pool.map_calls([(1, "ping", None, None),
                                   (0, "ping", lambda: None, None)])
        # A stale ping reply would answer these instead.
        for slot in (1, 0):
            reply = shared_pool.call(slot, "unpin", {"token": "none"})
            assert reply == {"unpinned": "none"}

    def test_stats_counts_live_workers(self, shared_pool):
        shared_pool.call(0, "ping")
        stats = shared_pool.stats()
        assert stats["num_workers"] == 2
        assert 1 <= stats["alive"] <= 2
        assert stats["spawns"] >= stats["alive"]

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="num_workers"):
            ProcessPool(0)


class TestRemoteError:
    def test_unknown_op_is_a_remote_error(self, shared_pool):
        with pytest.raises(RemoteError, match="unknown op"):
            shared_pool.call(0, "no-such-op")

    def test_bad_payload_carries_remote_traceback(self, shared_pool):
        before = shared_pool.call(0, "ping")["pid"]
        with pytest.raises(RemoteError) as excinfo:
            shared_pool.call(0, "search_chunk", {"token": "nope"})
        assert "KeyError" in excinfo.value.remote_traceback
        assert excinfo.value.worker_id == 0
        # the op failed but the worker survived it
        assert shared_pool.call(0, "ping")["pid"] == before


class TestCrashes:
    def test_die_next_crashes_the_following_call(self):
        with ProcessPool(1) as pool:
            first_pid = pool.call(0, "ping")["pid"]
            pool.call(0, "die_next")
            with pytest.raises(WorkerCrash, match="worker 0 died"):
                pool.call(0, "ping")
            assert pool.stats()["deaths"] == 1
            # the slot respawns lazily on the next call
            second_pid = pool.call(0, "ping")["pid"]
            assert second_pid != first_pid
            assert pool.stats()["spawns"] == 2

    def test_map_calls_returns_a_crash_in_its_slot(self):
        """One dead worker does not cost the other call its reply: the
        crash comes back in place, for the caller to retry."""
        with ProcessPool(2) as pool:
            pids = [pool.call(slot, "ping")["pid"] for slot in (0, 1)]
            pool.call(0, "die_next")
            crashed, alive = pool.map_calls([(0, "ping", None, None),
                                             (1, "ping", None, None)])
            assert isinstance(crashed, WorkerCrash)
            assert crashed.worker_id == 0
            assert alive["pid"] == pids[1]
            assert pool.stats()["deaths"] == 1
            assert pool.call(0, "ping")["pid"] != pids[0]

    def test_worker_crash_is_a_plain_exception(self):
        """A crash is a failed call the engine retries and then runs
        inline — it must never escape as a BaseException."""
        assert issubclass(WorkerCrash, Exception)
        assert not issubclass(WorkerCrash, KeyboardInterrupt)

    def test_kill_worker_heals_transparently(self):
        """SIGKILL is reaped by the next call's liveness check: the
        slot respawns *before* dispatch, so no WorkerCrash surfaces
        (chaos tests that need a mid-call death use ``die_next``)."""
        with ProcessPool(1) as pool:
            first_pid = pool.call(0, "ping")["pid"]
            assert pool.kill_worker(0) is True
            assert pool.call(0, "ping")["pid"] != first_pid

    def test_respawned_worker_loses_its_pins(self):
        """A fresh process has no mappings, so the pool must re-pin —
        tracked via the per-worker pinned set being reset."""
        with ProcessPool(1) as pool:
            pool.call(0, "ping")
            pool._workers[0].pinned.add("epoch-1")
            pool.call(0, "die_next")
            with pytest.raises(WorkerCrash):
                pool.call(0, "ping")
            pool.call(0, "ping")
            assert pool._workers[0].pinned == set()


class TestClose:
    def test_close_is_idempotent_and_terminal(self):
        pool = ProcessPool(1)
        pool.call(0, "ping")
        pool.close()
        pool.close()
        assert pool.closed
        with pytest.raises(RuntimeError, match="closed"):
            pool.call(0, "ping")

    def test_close_without_spawns(self):
        pool = ProcessPool(2)
        pool.close()
        assert pool.stats()["alive"] == 0
