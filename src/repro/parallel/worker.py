"""Worker-process entry point for the process-parallel executor.

Each worker is a spawned process holding one duplex pipe to the parent
pool.  It serves a tiny op loop: ``pin`` maps a published arena
(verifying sha256 stamps), whose image
:func:`~repro.persistence.decode_index` — the decoder ``load_index``
runs — turns into a real index over the shared views on first use;
``search_chunk`` runs that index's own ``search`` method;
``introspect`` answers the zero-copy assertions the test suite makes
*from inside the worker*.

Everything protocol-level is defensive: any ``Exception`` during an op
is caught and shipped back as a traceback string (the parent raises
:class:`~repro.parallel.pool.RemoteError`), so one bad query never
kills a warm worker.  Actual worker death (``die`` op, SIGKILL from a
chaos test, OOM) surfaces parent-side as a broken pipe →
:class:`~repro.parallel.pool.WorkerCrash`.
"""

from __future__ import annotations

import os
import time
import traceback

import numpy as np


class _Pin:
    """One pinned arena epoch inside a worker.

    Attributes:
        arena: the attached (verified) shared block.
        masks: compiled-predicate cache keyed by mask digest, so a mask
            shipped once per chunk is reused across its queries.
    """

    __slots__ = ("arena", "masks", "_searcher")

    def __init__(self, arena) -> None:
        self.arena = arena
        self.masks: dict = {}
        self._searcher = None

    def searcher(self):
        """The pinned epoch's index (decoded on first use)."""
        if self._searcher is None:
            from repro.persistence import decode_index

            views = self.arena.views()
            self._searcher = decode_index(self.arena.meta, views,
                                          self.arena.source)
        return self._searcher


def _compiled_mask(pin: _Pin, digest: bytes, payload_masks: dict):
    """Rebuild (and cache) a CompiledPredicate from shipped mask bytes."""
    from repro.predicates.base import CompiledPredicate

    got = pin.masks.get(digest)
    if got is None:
        mask = np.frombuffer(payload_masks[digest], dtype=bool)
        got = CompiledPredicate(None, mask)
        if len(pin.masks) >= 32:
            pin.masks.pop(next(iter(pin.masks)))
        pin.masks[digest] = got
    return got


def _op_pin(pins: dict, payload: dict):
    from repro.parallel.arena import attach_arena

    token = payload["arena"]["token"]
    if token not in pins:
        pins[token] = _Pin(attach_arena(payload["arena"]))
    return {"pinned": token, "pid": os.getpid()}


def _op_unpin(pins: dict, payload: dict):
    pin = pins.pop(payload["token"], None)
    if pin is not None:
        pin.arena.close()
    return {"unpinned": payload["token"]}


def _op_search_chunk(pins: dict, payload: dict):
    pin = pins[payload["token"]]
    searcher = pin.searcher()
    queries = payload["queries"]
    k = payload["k"]
    ef = payload["ef_search"]
    masks = payload["masks"]
    out = []
    for row, digest in enumerate(payload["mask_digests"]):
        compiled = _compiled_mask(pin, digest, masks)
        begin = time.perf_counter()
        result = searcher.search(queries[row], compiled, k, ef_search=ef)
        out.append((result, time.perf_counter() - begin))
    return out


def _op_introspect(pins: dict, payload: dict):
    """Zero-copy evidence from inside the worker.

    Reports whether the pinned index's hot arrays share memory with the
    mapped arena buffer — the in-worker half of the buffer-identity
    assertions (the in-process half lives in
    ``tests/parallel/test_snapshot.py``).
    """
    pin = pins[payload["token"]]
    searcher = pin.searcher()
    arena = pin.arena

    def shares(role: str, arr) -> bool:
        view = arena.view(role)
        if view.size == 0 and np.asarray(arr).size == 0:
            # np.shares_memory is False for empty arrays, but a
            # zero-byte payload (e.g. a single-node top level's edge
            # list) has nothing to copy — trivially shared.
            return True
        return bool(np.shares_memory(view, arr))

    report = {
        "pid": os.getpid(),
        "shm_name": arena.shm.name,
        "arena_nbytes": arena.nbytes,
        "vectors_shared": shares("vectors", searcher.store._data),
        "csr_shared": all(
            shares(f"L{lev}.indices", level.indices)
            and shares(f"L{lev}.indptr", level.indptr)
            for lev, level in enumerate(searcher._frozen)
        ),
        "vectors_writeable": bool(
            searcher.store._data.flags.writeable
        ),
    }
    return report


_OPS = {
    "pin": _op_pin,
    "unpin": _op_unpin,
    "search_chunk": _op_search_chunk,
    "introspect": _op_introspect,
}


def worker_main(conn) -> None:
    """The spawned worker's serve loop (module top level for spawn).

    Protocol: recv ``(op, payload)``; send ``("ok", value)`` or
    ``("err", traceback_text)``.  ``shutdown`` acknowledges then
    returns; ``die`` hard-exits without a reply (deterministic crash
    for the chaos suite and the respawn accounting tests).
    """
    pins: dict[str, _Pin] = {}
    die_next = False
    try:
        while True:
            try:
                op, payload = conn.recv()
            except (EOFError, OSError):
                break
            if op == "shutdown":
                conn.send(("ok", None))
                break
            if op == "die":
                os._exit(1)
            if op == "die_next":
                # Chaos hook: acknowledge now, then hard-exit while the
                # *next* op's caller is blocked on its reply — a
                # deterministic mid-call crash (kill_worker's SIGKILL is
                # healed by lazy respawn before any call notices).
                die_next = True
                conn.send(("ok", None))
                continue
            if die_next:
                os._exit(1)
            if op == "ping":
                conn.send(("ok", {"pid": os.getpid(),
                                  "pinned": sorted(pins)}))
                continue
            handler = _OPS.get(op)
            if handler is None:
                conn.send(("err", f"unknown op {op!r}"))
                continue
            try:
                conn.send(("ok", handler(pins, payload)))
            except Exception:
                conn.send(("err", traceback.format_exc()))
    finally:
        for pin in pins.values():
            try:
                pin.arena.close()
            except Exception:
                pass
        try:
            conn.close()
        except Exception:
            pass
