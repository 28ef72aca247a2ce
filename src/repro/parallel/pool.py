"""Spawn-safe persistent worker pool with warm arena pins.

A :class:`ProcessPool` owns N spawned worker processes, each with a
duplex pipe.  Workers start lazily and stay warm across batches; the
pool tracks which arena epochs each worker has pinned and prepends a
``pin`` op exactly once per (worker, epoch) — after that, dispatching a
chunk ships only query rows and mask bytes, never index data.

Failure model: a worker that dies mid-call (chaos ``die`` op, SIGKILL,
OOM) surfaces as :class:`WorkerCrash` — an ``Exception`` subclass the
engine answers by retrying the chunk once and then running it inline —
and the dead slot respawns lazily on its next use (``deaths``/``spawns``
counters record both sides).  An op that *raises* inside a healthy worker comes back as
:class:`RemoteError` carrying the worker's traceback; the worker
survives.

Dispatch is ``spawn``-based (never ``fork``: a forked child would
inherit live locks and thread state from the parent), and fan-out needs
no parent threads: :meth:`ProcessPool.map_calls` writes every call to
its slot's pipe, then reads the replies back in order, so the workers
compute while the caller blocks on one pipe at a time.  Every pipe is
guarded by a per-worker lock, so engines sharing one pool from several
threads serialize cleanly per worker.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import threading

from repro.parallel.worker import worker_main

#: What a dead worker's pipe raises on send or receive.
_PIPE_ERRORS = (BrokenPipeError, EOFError, ConnectionResetError, OSError)


class WorkerCrash(RuntimeError):
    """A worker process died before answering.

    Deliberately an ``Exception`` (not ``BaseException``): a crash is a
    failed call the engine handles — it retries the chunk once, then
    runs it inline — never an interrupt.
    """

    def __init__(self, worker_id: int, detail: str = "") -> None:
        self.worker_id = worker_id
        message = f"worker {worker_id} died"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class RemoteError(RuntimeError):
    """An op raised inside a (still healthy) worker.

    Carries the worker-side traceback text so the real failure is
    debuggable from the parent process.
    """

    def __init__(self, worker_id: int, remote_traceback: str) -> None:
        self.worker_id = worker_id
        self.remote_traceback = remote_traceback
        super().__init__(
            f"worker {worker_id} op failed; remote traceback:\n"
            f"{remote_traceback}"
        )


class _Worker:
    """One live worker process + its parent end of the pipe."""

    __slots__ = ("process", "conn", "pinned")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.pinned: set[str] = set()


class ProcessPool:
    """N persistent spawned workers, addressed by slot id.

    Args:
        num_workers: worker slots (processes spawn lazily per slot).
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        self._ctx = mp.get_context("spawn")
        self._workers: list[_Worker | None] = [None] * self.num_workers
        self._locks = [threading.Lock() for _ in range(self.num_workers)]
        self._state_lock = threading.Lock()
        self._closed = False
        self.spawns = 0
        self.deaths = 0

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, worker_id: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main, args=(child_conn,),
            name=f"repro-worker-{worker_id}", daemon=True,
        )
        process.start()
        child_conn.close()
        with self._state_lock:
            self.spawns += 1
        return _Worker(process, parent_conn)

    def _ensure(self, worker_id: int) -> _Worker:
        worker = self._workers[worker_id]
        if worker is not None and worker.process.is_alive():
            return worker
        if worker is not None:
            self._reap(worker_id, worker)
        worker = self._spawn(worker_id)
        self._workers[worker_id] = worker
        return worker

    def _reap(self, worker_id: int, worker: _Worker) -> None:
        """Collect a dead worker: close pipe, join, count the death."""
        try:
            worker.conn.close()
        except Exception:
            pass
        try:
            worker.process.join(timeout=5)
        except Exception:
            pass
        self._workers[worker_id] = None
        with self._state_lock:
            self.deaths += 1

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def call(self, worker_id: int, op: str, payload=None, pin=None):
        """Run one op on one worker (serialized per worker).

        Args:
            worker_id: slot in ``[0, num_workers)``.
            op: worker op name.
            payload: picklable op payload.
            pin: optional ``(token, pin_payload)``; the pin op is
                prepended once per (worker, token) so warm workers skip
                straight to the query.

        Raises:
            WorkerCrash: the process died mid-call (slot respawns on
                next use).
            RemoteError: the op raised inside the worker.
        """
        (reply,) = self.map_calls([(worker_id, op, payload, pin)])
        if isinstance(reply, WorkerCrash):
            raise reply
        return reply

    def map_calls(self, calls) -> list:
        """Run ``(worker_id, op, payload, pin)`` calls, one per slot, at once.

        Writes every call to its slot's pipe first, then reads the
        replies back in call order: the workers compute side by side
        while the calling thread only blocks on pipe reads.  A call
        whose worker died comes back *as* its :class:`WorkerCrash` (the
        slot respawns on its next use), so the caller can retry just
        that call.

        Raises:
            ValueError: two calls address the same slot — a second
                request queued behind an unread reply could fill both
                pipe directions.
            RemoteError: an op raised inside its worker.  This, and a
                payload that fails to pickle, is raised only after
                every reply has been read, so no pipe is left holding
                a stale reply.
        """
        if self._closed:
            raise RuntimeError("ProcessPool is closed")
        calls = [(int(worker_id) % self.num_workers, op, payload, pin)
                 for worker_id, op, payload, pin in calls]
        slots = sorted(call[0] for call in calls)
        if len(set(slots)) != len(slots):
            raise ValueError(f"map_calls takes one call per slot, got {slots}")
        for slot in slots:
            self._locks[slot].acquire()
        try:
            for slot in slots:
                self._ensure(slot)
            errors = []
            sent = [self._send(*call, errors) for call in calls]
            replies = []
            for (worker_id, *_), tokens in zip(calls, sent):
                if isinstance(tokens, WorkerCrash):
                    replies.append(tokens)
                else:
                    replies.append(self._receive(worker_id, tokens, errors))
        finally:
            for slot in slots:
                self._locks[slot].release()
        if errors:
            raise errors[0]
        return replies

    def _send(self, worker_id: int, op, payload, pin, errors: list):
        """Write one call (its pin first, if the worker lacks it).

        Returns one entry per reply to expect — the pin's token, then
        ``None`` for the op — or the :class:`WorkerCrash`.  A message
        that fails to pickle is never written; its error goes to
        ``errors``.
        """
        worker = self._workers[worker_id]
        tokens = []
        try:
            if pin is not None and pin[0] not in worker.pinned:
                worker.conn.send(("pin", pin[1]))
                tokens.append(pin[0])
            worker.conn.send((op, payload))
        except _PIPE_ERRORS as exc:
            return self._crash(worker_id, worker, exc)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            errors.append(exc)
            return tokens
        return tokens + [None]

    def _receive(self, worker_id: int, tokens: list, errors: list):
        """Read one call's replies; returns the op's value or the crash.

        A remote failure is appended to ``errors`` (the op's reply is
        still read, so the pipe stays in step); a pin that succeeded is
        recorded so later calls skip it.
        """
        worker = self._workers[worker_id]
        value = None
        try:
            for token in tokens:
                status, reply = worker.conn.recv()
                if status == "err":
                    errors.append(RemoteError(worker_id, reply))
                elif token is not None:
                    worker.pinned.add(token)
                else:
                    value = reply
        except _PIPE_ERRORS as exc:
            return self._crash(worker_id, worker, exc)
        return value

    def _crash(self, worker_id: int, worker: _Worker, exc) -> WorkerCrash:
        """Reap a worker whose pipe broke; the crash to report for it."""
        self._reap(worker_id, worker)
        crash = WorkerCrash(worker_id, type(exc).__name__)
        crash.__cause__ = exc
        return crash

    def unpin_all(self, token: str) -> None:
        """Unpin a retired arena epoch from every live worker.

        Best-effort hygiene after an epoch swap: workers keep old
        mappings alive even after the parent unlinks the segment, so
        dropping them promptly bounds shared-memory residency at one
        epoch per worker.
        """
        for worker_id, worker in enumerate(self._workers):
            if worker is None or not worker.process.is_alive():
                continue
            if token in worker.pinned:
                try:
                    self.call(worker_id, "unpin", {"token": token})
                except Exception:
                    pass
                worker.pinned.discard(token)

    # ------------------------------------------------------------------
    # Introspection / chaos hooks
    # ------------------------------------------------------------------

    def worker_pids(self) -> dict[int, int]:
        """Live slot → pid map (empty slots omitted)."""
        return {
            worker_id: worker.process.pid
            for worker_id, worker in enumerate(self._workers)
            if worker is not None and worker.process.is_alive()
        }

    def kill_worker(self, worker_id: int) -> bool:
        """SIGKILL one worker (chaos hook); True if a process was hit.

        The death is *not* counted or reaped here — it surfaces (and
        respawns) through the next call's crash path, exactly like an
        organic death.
        """
        worker = self._workers[worker_id]
        if worker is None or not worker.process.is_alive():
            return False
        os.kill(worker.process.pid, signal.SIGKILL)
        worker.process.join(timeout=5)
        return True

    def stats(self) -> dict:
        """Pool health counters for telemetry and the chaos suite."""
        alive = sum(
            1 for worker in self._workers
            if worker is not None and worker.process.is_alive()
        )
        return {
            "num_workers": self.num_workers,
            "alive": alive,
            "spawns": self.spawns,
            "deaths": self.deaths,
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Stop every worker (idempotent, interpreter-teardown safe)."""
        if self._closed:
            return
        self._closed = True
        for worker_id, worker in enumerate(self._workers):
            if worker is None:
                continue
            self._workers[worker_id] = None
            try:
                if worker.process.is_alive():
                    worker.conn.send(("shutdown", None))
                    if worker.conn.poll(2):
                        worker.conn.recv()
            except Exception:
                pass
            try:
                worker.conn.close()
            except Exception:
                pass
            try:
                worker.process.join(timeout=5)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=5)
            except Exception:
                pass

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
