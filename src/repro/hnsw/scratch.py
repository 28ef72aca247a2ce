"""Reusable per-thread traversal scratch state.

The pre-CSR traversal allocated a fresh O(N) boolean ``visited`` array
for every level of every query — for a hierarchical descent that is
``levels × N`` bytes of allocation and zeroing per query, all of it
garbage one level later.  :class:`TraversalScratch` replaces those
throwaway arrays with one *epoch-stamped* array per thread: a node is
"visited" when its stamp equals the current epoch, so starting a fresh
visited scope is a single integer increment instead of an O(N) zeroing
pass.

Epoch stamps are uint32.  When the epoch counter reaches the dtype
maximum the array is zeroed once and the counter restarts at 1 — stale
stamps from 4 billion scopes ago can therefore never alias a live
epoch.  ``tests/hnsw/test_scratch.py`` holds the property tests for the
rollover.

The frozen-search kernel
(:func:`~repro.hnsw.traversal.search_frozen_level`) does not use the
stamps at all: it probes one *eligibility buffer* holding ``mask ∧
¬visited``, so "passes the predicate" and "not yet visited" are a single
``take`` per hop.  :meth:`TraversalScratch.bind` seeds that buffer from
a predicate mask with one ``np.copyto`` — only when the mask *object*
differs from the one already bound — and the kernel restores every entry
it cleared before it returns, so a fresh visited scope per level costs
O(visited), never O(N).  Bound masks are treated as immutable values:
mutating one in place while it is bound would leave the buffer stale.

The live-graph insert kernel
(:func:`~repro.hnsw.traversal.search_live_level`) keeps a third form of
the same idea: epoch stamps in a *plain Python list*
(:meth:`TraversalScratch.begin_live`).  Construction probes at most M
ids per hop, where a list comprehension over Python ints beats the five
numpy calls a stamp-array probe costs; the stamps are unbounded Python
ints, so that scope has no rollover to handle.

One scratch serves a whole thread: the engine's worker threads each
lazily create their own through :func:`thread_scratch`, and every level
of every query on that thread reuses the same buffers.  Scratch state
is never shared across threads.
"""

from __future__ import annotations

import threading

import numpy as np

_EPOCH_DTYPE = np.uint32
MAX_EPOCH = int(np.iinfo(_EPOCH_DTYPE).max)


class TraversalScratch:
    """Epoch-stamped visited marks plus reusable heap buffers.

    Attributes:
        visited: uint32 stamp array over node ids; ``visited[v] ==
            epoch`` means ``v`` was visited in the current scope.
        epoch: the live epoch (0 before the first :meth:`begin`).
        candidates: reusable min-heap list for ``search_layer``'s
            candidate queue (cleared at each layer entry).
        results: reusable max-heap list for ``search_layer``'s dynamic
            result list (cleared at each layer entry).
        eligible: bool buffer equal to the bound mask between kernel
            calls (``mask ∧ ¬visited`` during one); see :meth:`bind`.
        bound_mask: the mask object ``eligible`` was seeded from, pinned
            so its ``id`` cannot be recycled; None when unbound.
        live_stamps: plain-list stamps over node ids for the live-graph
            insert kernel; ``live_stamps[v] == live_epoch`` means ``v``
            was visited in the current live scope.
        live_epoch: the live scope's epoch (0 before the first
            :meth:`begin_live`); independent of ``epoch``.
    """

    __slots__ = ("visited", "epoch", "candidates", "results", "eligible",
                 "bound_mask", "live_stamps", "live_epoch")

    def __init__(self, capacity: int = 0) -> None:
        self.visited = np.zeros(int(capacity), dtype=_EPOCH_DTYPE)
        self.epoch = 0
        self.candidates: list[tuple[float, int]] = []
        self.results: list[tuple[float, int]] = []
        self.eligible = np.empty(0, dtype=bool)
        self.bound_mask: np.ndarray | None = None
        self.live_stamps: list[int] = []
        self.live_epoch = 0

    def begin(self, num_nodes: int) -> int:
        """Open a fresh visited scope covering ids ``[0, num_nodes)``.

        Grows the stamp array if needed (preserving live marks — growth
        can only happen between scopes, but cheap safety is cheap) and
        advances the epoch, zeroing the array on uint32 rollover so no
        stale stamp can collide with the new epoch.

        Returns:
            The new epoch value (also available as ``self.epoch``).
        """
        if self.visited.size < num_nodes:
            grown = np.zeros(max(num_nodes, 2 * self.visited.size),
                             dtype=_EPOCH_DTYPE)
            grown[: self.visited.size] = self.visited
            self.visited = grown
        if self.epoch >= MAX_EPOCH:
            self.visited[:] = 0
            self.epoch = 0
        self.epoch += 1
        return self.epoch

    def mark(self, node: int) -> None:
        """Stamp one node as visited in the current scope."""
        self.visited[node] = self.epoch

    def mark_many(self, ids: np.ndarray) -> None:
        """Stamp many nodes as visited in the current scope."""
        self.visited[ids] = self.epoch

    def is_marked(self, node: int) -> bool:
        """Whether ``node`` was visited in the current scope."""
        return bool(self.visited[node] == self.epoch)

    def begin_live(self, num_nodes: int) -> tuple[list[int], int]:
        """Open a fresh live-kernel visited scope over ids ``[0, num_nodes)``.

        Grows the stamp list (doubling, old stamps kept) and advances
        ``live_epoch``; returns ``(live_stamps, live_epoch)`` so the
        kernel holds both as locals.
        """
        stamps = self.live_stamps
        if len(stamps) < num_nodes:
            stamps.extend([0] * (max(num_nodes, 2 * len(stamps)) - len(stamps)))
        self.live_epoch += 1
        return stamps, self.live_epoch

    def bind(self, mask: np.ndarray) -> np.ndarray:
        """The eligibility buffer, seeded from ``mask`` if not already.

        O(1) when ``mask`` is the object already bound (the common case:
        every level of a query, and consecutive queries sharing one
        compiled predicate); one O(N) ``np.copyto`` otherwise.
        """
        if mask is not self.bound_mask:
            self.bound_mask = None
            if self.eligible.size != mask.size:
                self.eligible = np.empty(mask.size, dtype=bool)
            np.copyto(self.eligible, mask)
            self.bound_mask = mask
        return self.eligible

    def unbind(self) -> None:
        """Forget the bound mask, forcing the next :meth:`bind` to re-seed."""
        self.bound_mask = None


_LOCAL = threading.local()


def thread_scratch(num_nodes: int) -> TraversalScratch:
    """The calling thread's scratch, grown to cover ``num_nodes`` ids.

    Lazily creates one :class:`TraversalScratch` per thread and reuses
    it for every query that thread executes, across all indices — the
    stamp array only ever grows.  Callers still :meth:`~TraversalScratch.begin`
    their own scopes.
    """
    scratch = getattr(_LOCAL, "scratch", None)
    if scratch is None:
        scratch = TraversalScratch(num_nodes)
        _LOCAL.scratch = scratch
    return scratch
