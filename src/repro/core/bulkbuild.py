"""Wave-parallel, GEMM-batched bulk index construction (Table 4 TTI).

The sequential insert paths (``HnswIndex.add``, ``AcornIndex.add``)
compute one query-to-neighborhood distance batch per graph hop and one
pruning-kernel call per candidate pair.  This module rebuilds the same
construction as a *wave pipeline*:

1.  All node levels are pre-drawn from the index's seeded
    :class:`~repro.hnsw.levels.LevelGenerator` — the draw order matches
    the sequential path exactly (``VectorStore.add`` consumes no RNG),
    so the level structure of the graph is identical by construction.
2.  Pending nodes are inserted in **waves** whose sizes ramp
    1, 2, 4, … up to a cap (:func:`wave_schedule`); every node in a
    wave searches a single frozen pre-wave CSR snapshot
    (:func:`~repro.core.search.freeze_graph`), so wave members never
    observe each other's in-flight edits.
3.  Within a wave, Phase A runs every insertion's traversal as a
    **lockstep state machine** (:class:`_LockstepTask`): per round,
    each alive task exposes the neighborhood it needs distances for,
    the group concatenates all requests into one matrix distance call
    (:func:`_batched_distances`) and scatters results back.  Tasks are
    sharded into contiguous groups across a ``ThreadPoolExecutor``
    (numpy kernels release the GIL).
4.  Phase B1 (serial, ascending node id) registers the wave's nodes
    and selects forward edges with the vectorized candidate-matrix
    pruning variants (``repro.core.construction`` ``*_arrays`` /
    ``*_matrix``, ``select_neighbors_heuristic_matrix``).
5.  Phase B2 applies reverse edges grouped by owner — owners are
    disjoint across workers, guarded by a :class:`LockStripe`
    (FAISS-style per-node locking) — replaying the exact sequential
    per-edge insert/shrink logic.  Re-pruning reads a
    :class:`_WaveView` (frozen snapshot overlaid with the wave's
    immutable B1 forward lists), never the concurrently-mutated live
    graph, which keeps multi-worker builds run-to-run deterministic.
6.  Entry-point promotion replays the sequential
    ``if level > top: entry = node`` rule in node-id order.

Determinism contract (see docs/performance.md):

- ``n_workers=1`` on the public ``build`` entry points dispatches to
  the untouched sequential insert loop — byte-identical to the legacy
  path, which stays in-tree as the reference (mirroring how
  ``search_layer`` anchors the frozen search kernel).
- The wave pipeline with ``wave_cap=1`` degenerates to single-node
  waves whose frozen snapshot equals the sequential pre-insert state;
  for the L2 metric (whose batched kernel is bitwise-identical to the
  scalar one) it reproduces the legacy graph exactly — pinned by
  tests/core/test_bulkbuild.py.
- ``n_workers>1`` with a fixed seed is run-to-run deterministic: wave
  membership, per-group task order, B1 order, and per-owner B2 replay
  order are all functions of (seed, n, wave_cap) only, never of thread
  scheduling.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.search import freeze_graph
from repro.hnsw.heuristics import select_neighbors_heuristic_matrix
from repro.vectors.distance import Metric

_SEED, _SEARCH, _DONE = 0, 1, 2


def default_wave_cap(n: int) -> int:
    """Default maximum wave size for an ``n``-vector build."""
    return max(64, n // 32)


def wave_schedule(n_pending: int, cap: int) -> list[int]:
    """Deterministic wave sizes: 1, 2, 4, … doubling up to ``cap``.

    The ramp keeps early waves tiny — a large wave over a near-empty
    frozen graph would link every member to the same handful of nodes —
    and sums exactly to ``n_pending``.
    """
    if cap < 1:
        raise ValueError(f"wave cap must be positive, got {cap}")
    if n_pending < 0:
        raise ValueError(f"n_pending must be non-negative, got {n_pending}")
    sizes: list[int] = []
    size = 1
    remaining = n_pending
    while remaining > 0:
        take = min(size, cap, remaining)
        sizes.append(take)
        remaining -= take
        if size < cap:
            size *= 2
    return sizes


def graph_checksum(graph) -> str:
    """Order-independent-input, content-exact digest of a layered graph.

    Hashes the entry point, every node's level, and every per-level
    adjacency list (in node-id order, preserving stored neighbor
    order).  Two graphs compare equal under this checksum iff they have
    identical adjacency — the equality the determinism tests assert.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(str(graph.entry_point).encode())
    for node in range(len(graph)):
        h.update(b"|%d" % graph.node_level(node))
    for lev in range(graph.max_level + 1):
        h.update(b"/L%d" % lev)
        for node in sorted(graph.nodes_at_level(lev)):
            row = np.asarray(
                [node, -1] + list(graph.neighbors(node, lev)), dtype=np.int64
            )
            h.update(row.tobytes())
    return h.hexdigest()


class LockStripe:
    """A fixed pool of locks addressed by key hash (FAISS-style).

    Guards per-node neighbor-list mutation in Phase B2.  Owner shards
    are already disjoint across workers, so the stripe is a safety
    fence (and documentation of the locking discipline) rather than a
    correctness-critical serialization point; two owners mapping to one
    stripe merely serialize.
    """

    __slots__ = ("_locks",)

    def __init__(self, n_stripes: int = 64) -> None:
        self._locks = [threading.Lock() for _ in range(n_stripes)]

    def lock(self, key: int) -> threading.Lock:
        """The lock guarding ``key``."""
        return self._locks[key % len(self._locks)]


class _FrozenView:
    """Read-only adjacency over the pre-wave CSR snapshot.

    Duck-typed like :class:`~repro.hnsw.graph.LayeredGraph` for the
    pruning rules' ``neighbors(node, level)`` reads.
    """

    __slots__ = ("_frozen",)

    def __init__(self, frozen) -> None:
        self._frozen = frozen

    def neighbors(self, node: int, level: int) -> np.ndarray:
        if level >= len(self._frozen):
            return np.empty(0, dtype=np.int32)
        return self._frozen[level][node]


class _WaveView:
    """Frozen snapshot overlaid with the wave's immutable forward lists.

    Phase B2 re-pruning walks 2-hop sets of an owner's candidates;
    those candidates may be freshly inserted wave nodes (whose lists
    the frozen snapshot lacks) or pre-wave nodes (whose *live* lists
    other B2 workers are concurrently mutating).  Reading wave lists
    from the B1-final copies and everything else from the frozen
    snapshot makes every worker's reads deterministic.
    """

    __slots__ = ("_frozen", "_forward")

    def __init__(self, frozen, forward: dict[tuple[int, int], list[int]]) -> None:
        self._frozen = frozen
        self._forward = forward

    def neighbors(self, node: int, level: int):
        wave_list = self._forward.get((node, level))
        if wave_list is not None:
            return wave_list
        if level >= len(self._frozen):
            return np.empty(0, dtype=np.int32)
        return self._frozen[level][node]


def _batched_distances(
    base: np.ndarray,
    queries: np.ndarray,
    qidx: np.ndarray,
    ids: np.ndarray,
    metric: Metric,
    base_norms: np.ndarray | None = None,
    query_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Distances for many (query, id) pairs in one matrix pass.

    ``qidx`` aligns a query row with every id: pair ``k`` is
    ``dist(queries[qidx[k]], base[ids[k]])``.  The L2 path (gather,
    subtract, row-wise einsum) is bitwise-identical to the scalar
    kernel ``_l2_sq(base[ids], q)`` evaluated per query, which is what
    lets ``wave_cap=1`` builds reproduce the legacy graph exactly.  The
    IP/cosine paths use a row-wise einsum whose results can differ from
    the BLAS matvec kernels by float ulps (documented; recall-level
    equivalence is pinned instead).
    """
    rows = base[ids]
    qs = queries[qidx]
    if metric is Metric.L2:
        diff = rows - qs
        return np.einsum("ij,ij->i", diff, diff)
    num = np.einsum("ij,ij->i", rows, qs)
    if metric is Metric.INNER_PRODUCT:
        return -num
    bn = base_norms[ids] if base_norms is not None else np.linalg.norm(rows, axis=1)
    qn = (query_norms[qidx] if query_norms is not None
          else np.linalg.norm(qs, axis=1))
    denom = np.maximum(bn * qn, np.finfo(np.float32).tiny)
    return 1.0 - num / denom


class _WaveScratch:
    """Per-group visited matrix: one epoch-stamped row per task slot."""

    __slots__ = ("_visited", "_epochs", "_dedup")

    def __init__(self, slots: int, num_ids: int) -> None:
        self._visited = np.zeros((slots, num_ids), dtype=np.uint32)
        self._epochs = np.zeros(slots, dtype=np.uint32)
        self._dedup = np.zeros(num_ids, dtype=np.intp)

    def begin(self, slot: int) -> None:
        """Open a fresh visited scope for ``slot`` (one per level)."""
        self._epochs[slot] += 1

    def unvisited(self, slot: int, ids: np.ndarray) -> np.ndarray:
        row = self._visited[slot]
        return ids[row[ids] != self._epochs[slot]]

    def mark(self, slot: int, ids) -> None:
        self._visited[slot][ids] = self._epochs[slot]

    def claim(self, slot: int, ids: np.ndarray) -> np.ndarray:
        """Filter ``ids`` to the unvisited ones and mark them, one pass.

        Fused :meth:`unvisited` + :meth:`mark` for the beam round loop,
        where the pair accounts for two fancy-index gathers per round.
        """
        row = self._visited[slot]
        epoch = self._epochs[slot]
        fresh = ids[row[ids] != epoch]
        row[fresh] = epoch
        return fresh

    def dedup_last(self, ids: np.ndarray) -> np.ndarray:
        """Drop duplicate ids, keeping each id's last occurrence.

        Scatter-then-gather positional trick: no sort, O(len(ids)), and
        the scratch row needs no clearing between calls (stale entries
        can never alias a position of the current call).  Deterministic
        — callers in the lockstep round loop run single-threaded per
        group, so the shared row is never contended.
        """
        tmp = self._dedup
        positions = np.arange(ids.size)
        tmp[ids] = positions
        return ids[tmp[ids] == positions]


class _LockstepTask:
    """One insertion's traversal, advanced round-by-round.

    Mirrors the sequential path exactly: a greedy ef=1 descent from the
    pre-wave entry point down to ``level+1``, then efc-wide collection
    searches from ``min(level, top)`` down to 0, each level replaying
    :func:`~repro.hnsw.traversal.search_layer`'s heap discipline
    verbatim.  ``advance`` pops candidates until it has a non-empty
    unvisited neighborhood (returned for batching) or the task
    finishes; ``consume`` replays the accept loop on the scattered-back
    distances.  Entry to ``consume`` with the result heap full lets a
    ``dists < worst`` prefilter drop rejects wholesale — sound because
    ``worst`` only decreases, so a pair rejected at entry stays
    rejected.
    """

    __slots__ = (
        "node", "level", "qrow", "found",
        "_adapter", "_entry", "_query", "_neighbor_fn", "_plan", "_plan_pos",
        "_slot", "_scratch", "_computer",
        "stage", "_pending", "_candidates", "_results", "_ef", "_lev", "_best",
    )

    def __init__(
        self, adapter, node: int, level: int, entry: int, top: int,
        query: np.ndarray, qrow: int, neighbor_fn,
    ) -> None:
        self.node = node
        self.level = level
        self.qrow = qrow
        self.found: dict[int, list[tuple[float, int]]] = {}
        self._adapter = adapter
        self._entry = entry
        self._query = query
        self._neighbor_fn = neighbor_fn
        ef = adapter.ef
        plan = [(lev, 1) for lev in range(top, level, -1)]
        plan += [(lev, ef) for lev in range(min(level, top), -1, -1)]
        self._plan = plan
        self._plan_pos = 0
        self.stage = _SEED
        self._pending: np.ndarray | None = None
        self._candidates: list[tuple[float, int]] = []
        self._results: list[tuple[float, int]] = []
        self._ef = 1
        self._lev = -1
        self._best: tuple[float, int] | None = None

    def bind(self, slot: int, scratch: _WaveScratch, computer) -> None:
        """Attach group-local resources before the round loop starts."""
        self._slot = slot
        self._scratch = scratch
        self._computer = computer

    def advance(self) -> np.ndarray | None:
        """Ids this task needs distances for next, or None when done."""
        if self.stage == _SEED:
            self._pending = np.asarray([self._entry], dtype=np.intp)
            return self._pending
        while self.stage != _DONE:
            while self._candidates:
                dist_c, current = heapq.heappop(self._candidates)
                if dist_c > -self._results[0][0] and len(self._results) >= self._ef:
                    self._candidates.clear()
                    break
                neighbor_ids = self._neighbor_fn(current, self._lev)
                if len(neighbor_ids) == 0:
                    continue
                unvisited = self._scratch.unvisited(self._slot, neighbor_ids)
                if unvisited.size == 0:
                    continue
                self._scratch.mark(self._slot, unvisited)
                self._pending = unvisited
                return unvisited
            self._finish_level()
        return None

    def consume(self, dists: np.ndarray) -> None:
        """Scatter one round's distances back into the heap state."""
        if self.stage == _SEED:
            self._best = (float(dists[0]), self._entry)
            self.stage = _SEARCH
            self._begin_level([self._best])
            return
        unvisited = self._pending
        self._pending = None
        worst = -self._results[0][0]
        if len(self._results) >= self._ef:
            keep = dists < worst
            unvisited = unvisited[keep]
            dists = dists[keep]
        for node, dist in zip(unvisited.tolist(), dists.tolist()):
            if len(self._results) < self._ef or dist < worst:
                heapq.heappush(self._candidates, (dist, node))
                heapq.heappush(self._results, (-dist, node))
                if len(self._results) > self._ef:
                    heapq.heappop(self._results)
                worst = -self._results[0][0]

    def _begin_level(self, seeds: list[tuple[float, int]]) -> None:
        lev, ef = self._plan[self._plan_pos]
        if ef > 1 and lev == 0:
            seeds = self._adapter.bottom_seeds(self._computer, self._query, seeds)
        self._lev = lev
        self._ef = ef
        self._scratch.begin(self._slot)
        for _, seed_node in seeds:
            self._scratch.mark(self._slot, seed_node)
        self._candidates = list(seeds)
        heapq.heapify(self._candidates)
        self._results = [(-dist, node) for dist, node in seeds]
        heapq.heapify(self._results)

    def _finish_level(self) -> None:
        ordered = sorted(
            (-neg_dist, node) for neg_dist, node in self._results
        )[: self._ef]
        if self._ef == 1:
            self._best = ordered[0]
            seeds = [self._best]
        else:
            self.found[self._lev] = ordered
            seeds = ordered
        self._plan_pos += 1
        if self._plan_pos >= len(self._plan):
            self.stage = _DONE
            return
        self._begin_level(seeds)


class _BeamTask:
    """Beam-batched variant of :class:`_LockstepTask` for multi-node waves.

    Instead of replaying ``search_layer``'s one-pop-per-round heap
    discipline, each round expands the ``beam`` best not-yet-expanded
    entries of the result set at once (GGNN-style batched best-first
    search) and merges the scattered-back distances with one
    ``lexsort`` — a handful of numpy calls per round instead of Python
    heap maintenance per candidate.  A level terminates when every kept
    result is expanded.

    The traversal is *not* pop-for-pop identical to the sequential
    path (it may expand tail results the heap search would have
    skipped, and it breaks distance ties by node id), but it is fully
    deterministic — every step is a pure function of the frozen
    snapshot — and its candidate sets are recall-equivalent, which is
    the parallel pipeline's contract.  Solo waves use
    :class:`_LockstepTask` so ``wave_cap=1`` builds stay edge-identical
    to the legacy path.
    """

    __slots__ = (
        "node", "level", "qrow", "found",
        "_adapter", "_entry", "_query", "_frozen", "_trunc", "_plan",
        "_plan_pos", "_slot", "_scratch", "_computer", "_beam", "_pending",
        "stage", "_res_ids", "_res_dists", "_res_expanded", "_ef", "_lev",
        "_indptr", "_indices",
    )

    def __init__(
        self, adapter, node: int, level: int, entry: int, top: int,
        query: np.ndarray, qrow: int, frozen, trunc: int | None,
        beam: int = 32,
    ) -> None:
        self.node = node
        self.level = level
        self.qrow = qrow
        self.found: dict[int, list[tuple[float, int]]] = {}
        self._adapter = adapter
        self._entry = entry
        self._query = query
        self._frozen = frozen
        self._trunc = trunc
        self._beam = max(1, beam)
        ef = adapter.ef
        plan = [(lev, 1) for lev in range(top, level, -1)]
        plan += [(lev, ef) for lev in range(min(level, top), -1, -1)]
        self._plan = plan
        self._plan_pos = 0
        self.stage = _SEED
        self._pending: np.ndarray | None = None
        self._res_ids = np.empty(0, dtype=np.intp)
        self._res_dists = np.empty(0, dtype=np.float64)
        self._res_expanded = np.empty(0, dtype=bool)
        self._ef = 1
        self._lev = -1
        self._indptr: np.ndarray | None = None
        self._indices: np.ndarray | None = None

    def bind(self, slot: int, scratch: _WaveScratch, computer) -> None:
        self._slot = slot
        self._scratch = scratch
        self._computer = computer

    def advance(self) -> np.ndarray | None:
        if self.stage == _SEED:
            return np.asarray([self._entry], dtype=np.intp)
        scratch = self._scratch
        slot = self._slot
        # The scratch helpers (claim / dedup_last) are inlined below —
        # this loop runs once per beam round and the call overhead plus
        # repeated attribute lookups were measurable at 10k-node scale.
        visited_row = scratch._visited[slot]
        dedup_row = scratch._dedup
        while self.stage != _DONE:
            epoch = scratch._epochs[slot]  # re-read: each level bumps it
            indptr = self._indptr
            indices = self._indices
            while True:
                # Results are kept distance-sorted, so the first
                # unexpanded positions are the beam's best frontier.
                frontier = (~self._res_expanded).nonzero()[0]
                if frontier.size == 0:
                    break
                take = frontier[: (self._beam if self._ef > 1 else 1)]
                self._res_expanded[take] = True
                ids = self._res_ids[take]
                if ids.size == 1:
                    # Single-row fast path: one slice, and a stored
                    # list never contains duplicates (graph invariant).
                    start = indptr[ids[0]]
                    stop = indptr[ids[0] + 1]
                    if self._trunc is not None:
                        stop = min(stop, start + self._trunc)
                    cand = indices[start:stop]
                else:
                    # Vectorized CSR multi-row gather: concatenate the
                    # frontier's (possibly M-truncated) neighbor slices
                    # with index arithmetic instead of per-node slicing,
                    # then drop cross-row duplicates without a sort
                    # (scatter positions, keep each id's last write).
                    starts = indptr[ids]
                    counts = indptr[ids + 1] - starts
                    if self._trunc is not None:
                        counts = np.minimum(counts, self._trunc)
                    total = int(counts.sum())
                    if total == 0:
                        continue
                    cum0 = counts.cumsum() - counts
                    positions = np.arange(total)
                    gathered = indices[positions + (starts - cum0).repeat(counts)]
                    dedup_row[gathered] = positions
                    cand = gathered[dedup_row[gathered] == positions]
                if cand.size == 0:
                    continue
                unvisited = cand[visited_row[cand] != epoch]
                if unvisited.size == 0:
                    continue
                visited_row[unvisited] = epoch
                self._pending = unvisited
                return unvisited
            self._finish_level()
        return None

    def consume(self, dists: np.ndarray) -> None:
        if self.stage == _SEED:
            self.stage = _SEARCH
            self._begin_level(
                np.asarray([self._entry], dtype=np.intp),
                np.asarray([dists[0]], dtype=np.float64),
            )
            return
        new_ids = self._pending
        self._pending = None
        if self._ef == 1:
            # Greedy-descent fast path: the result set is a single best
            # pair, so the merge reduces to a strict-improvement check.
            # ``argmin`` takes the first minimum in request order — the
            # same pair the stable merge sort below would rank first.
            j = int(dists.argmin())
            if dists[j] < self._res_dists[0]:
                self._res_ids = new_ids[j:j + 1]
                self._res_dists = dists[j:j + 1]
                self._res_expanded = np.zeros(1, dtype=bool)
            return
        if self._res_ids.size >= self._ef:
            keep = dists < self._res_dists[-1]
            new_ids = new_ids[keep]
            dists = dists[keep]
        if new_ids.size == 0:
            return
        cat_ids = np.concatenate([self._res_ids, new_ids])
        cat_dists = np.concatenate([self._res_dists, dists])
        cat_expanded = np.concatenate([
            self._res_expanded, np.zeros(new_ids.size, dtype=bool)
        ])
        # Stable sort on distance alone: ties resolve by merge position
        # (prior results first, then request order), which is itself a
        # deterministic function of the frozen snapshot.
        order = cat_dists.argsort(kind="stable")[: self._ef]
        self._res_ids = cat_ids[order]
        self._res_dists = cat_dists[order]
        self._res_expanded = cat_expanded[order]

    def _begin_level(self, seed_ids: np.ndarray, seed_dists: np.ndarray) -> None:
        lev, ef = self._plan[self._plan_pos]
        if ef > 1 and lev == 0:
            # The bottom-seeds hook speaks (dist, id) pairs; this is the
            # one per-task place the arrays round-trip through Python.
            seeds = self._adapter.bottom_seeds(
                self._computer, self._query,
                list(zip(seed_dists.tolist(), seed_ids.tolist())),
            )
            seed_ids = np.asarray([node for _, node in seeds], dtype=np.intp)
            seed_dists = np.asarray([dist for dist, _ in seeds],
                                    dtype=np.float64)
            order = np.lexsort((seed_ids, seed_dists))[:ef]
            seed_ids = seed_ids[order]
            seed_dists = seed_dists[order]
        elif seed_ids.size > ef:
            seed_ids = seed_ids[:ef]
            seed_dists = seed_dists[:ef]
        self._lev = lev
        self._ef = ef
        csr = self._frozen[lev]
        self._indptr = csr.indptr
        self._indices = csr.indices
        self._scratch.begin(self._slot)
        self._scratch.mark(self._slot, seed_ids)
        self._res_ids = seed_ids
        self._res_dists = seed_dists
        self._res_expanded = np.zeros(seed_ids.size, dtype=bool)

    def _finish_level(self) -> None:
        if self._ef > 1:
            self.found[self._lev] = list(
                zip(self._res_dists.tolist(), self._res_ids.tolist())
            )
        self._plan_pos += 1
        if self._plan_pos >= len(self._plan):
            self.stage = _DONE
            return
        # Carry the sorted results straight into the next level's seeds
        # (descent levels carry only the single best).
        if self._ef > 1:
            self._begin_level(self._res_ids, self._res_dists)
        else:
            self._begin_level(self._res_ids[:1], self._res_dists[:1])


def _run_group(
    tasks: list[_LockstepTask],
    computer,
    queries: np.ndarray,
    metric: Metric,
    base_norms: np.ndarray | None,
    query_norms: np.ndarray | None,
    num_ids: int,
    qstore=None,
) -> None:
    """Drive one group's tasks to completion with batched rounds.

    With ``qstore`` (a :class:`~repro.vectors.quantized_store.QuantizedStore`),
    the distance rounds run on quantized codes — decode-free SQ dot
    products or PQ ADC-table gathers — instead of float32 rows.
    Evaluations still land on ``computer``'s counter: construction cost
    stays one hardware-independent tally either way.
    """
    scratch = _WaveScratch(len(tasks), num_ids)
    for slot, task in enumerate(tasks):
        task.bind(slot, scratch, computer)
    computer.defer_counts()
    try:
        pending: list[tuple[_LockstepTask, np.ndarray]] = []
        for task in tasks:
            ids = task.advance()
            if ids is not None:
                pending.append((task, ids))
        while pending:
            sizes = np.asarray([ids.size for _, ids in pending], dtype=np.intp)
            qrows = np.asarray([t.qrow for t, _ in pending], dtype=np.intp)
            cat_ids = np.concatenate([ids for _, ids in pending])
            qidx = np.repeat(qrows, sizes)
            if qstore is not None:
                dists = qstore.batched_distances(queries, qidx, cat_ids)
            else:
                dists = _batched_distances(
                    computer.base, queries, qidx, cat_ids, metric,
                    base_norms=base_norms, query_norms=query_norms,
                )
            computer.add_count(cat_ids.size)
            offset = 0
            nxt: list[tuple[_LockstepTask, np.ndarray]] = []
            for task, ids in pending:
                task.consume(dists[offset : offset + ids.size])
                offset += ids.size
                more = task.advance()
                if more is not None:
                    nxt.append((task, more))
            pending = nxt
    finally:
        computer.flush_counts()


class _HnswAdapter:
    """Index-specific hooks for :class:`HnswIndex` bulk construction."""

    def __init__(self, index) -> None:
        self.index = index
        self.ef = index.ef_construction
        self.trunc: int | None = None

    def check_capacity(self, last_id: int) -> None:
        pass

    def bottom_seeds(self, computer, query, seeds):
        return seeds

    def register(self, node: int, level: int) -> None:
        self.index.graph.add_node(node, level)

    def link_forward(self, computer, task, select_view, wave_forward, reverse):
        index = self.index
        node = task.node
        for lev in sorted(task.found, reverse=True):
            selected = select_neighbors_heuristic_matrix(
                computer.base, task.found[lev], index.m, metric=index.metric
            )
            index.graph.set_neighbors(node, lev, [nid for _, nid in selected])
            wave_forward[(node, lev)] = [nid for _, nid in selected]
            for dist, neighbor in selected:
                reverse.append((neighbor, node, lev, dist))

    def apply_reverse(self, computer, owner, node, lev, dist, graph_view):
        cap = self.index.m if lev > 0 else self.index.m_max0
        self.index._add_reverse_edge(computer, owner, node, lev, cap)

    def apply_reverse_bulk(self, computer, owner, requests, graph_view):
        """Apply all of one owner's reverse requests with one shrink per level.

        The sequential rule shrinks after every insert; merging first
        and shrinking once selects from the union instead — a different
        (still deterministic) edge set, reserved for multi-node waves.
        """
        index = self.index
        by_lev: dict[int, list[int]] = {}
        for node, lev, dist in requests:
            by_lev.setdefault(lev, []).append(node)
        for lev in sorted(by_lev, reverse=True):
            cap = index.m if lev > 0 else index.m_max0
            neighbor_ids = index.graph.neighbors(owner, lev)
            existing = set(neighbor_ids)
            for node in by_lev[lev]:
                if node not in existing:
                    neighbor_ids.append(node)
                    existing.add(node)
            if len(neighbor_ids) <= cap:
                continue
            ids = np.asarray(neighbor_ids, dtype=np.intp)
            dists = computer.distances_to(computer.base[owner], ids)
            candidates = list(zip(dists.tolist(), neighbor_ids))
            selected = select_neighbors_heuristic_matrix(
                computer.base, candidates, cap, metric=index.metric
            )
            index.graph.set_neighbors(owner, lev, [nid for _, nid in selected])


class _AcornAdapter:
    """Index-specific hooks for ACORN-γ / ACORN-1 bulk construction."""

    def __init__(self, index) -> None:
        self.index = index
        params = index.params
        self.ef = params.effective_ef_construction
        self.trunc = params.m if params.truncate_construction else None

    def check_capacity(self, last_id: int) -> None:
        if last_id >= len(self.index.table):
            raise ValueError(
                f"node {last_id} has no attribute row "
                f"(table has {len(self.index.table)})"
            )

    def bottom_seeds(self, computer, query, seeds):
        return self.index._bottom_seeds(computer, query, seeds)

    def register(self, node: int, level: int) -> None:
        self.index._register_node(node, level)

    def link_forward(self, computer, task, select_view, wave_forward, reverse):
        index = self.index
        node = task.node
        for lev in sorted(task.found, reverse=True):
            candidates = [
                (dist, cand) for dist, cand in task.found[lev] if cand != node
            ][: index.params.max_degree]
            selected = index._select_edges(
                computer, node, candidates, lev,
                graph=select_view, vectorized=True,
            )
            index.graph.set_neighbors(node, lev, [nid for _, nid in selected])
            index._edge_dists[lev][node] = [dist for dist, _ in selected]
            wave_forward[(node, lev)] = [nid for _, nid in selected]
            for dist, neighbor in selected:
                reverse.append((neighbor, node, lev, dist))

    def apply_reverse(self, computer, owner, node, lev, dist, graph_view):
        self.index._add_reverse_edge(
            computer, owner, node, dist, lev,
            graph_view=graph_view, vectorized=True,
        )

    def apply_reverse_bulk(self, computer, owner, requests, graph_view):
        """Apply all of one owner's reverse requests, one prune per level.

        Inserts every request in distance order first (set-probed
        membership instead of the per-request list scan), then enforces
        the cap once.  On uncompressed levels keep-``cap``-smallest is
        associative, so this matches the per-request rule exactly; on
        compressed levels the single re-prune sees the merged candidate
        list — a different (still deterministic) edge set, reserved for
        multi-node waves.
        """
        index = self.index
        params = index.params
        by_lev: dict[int, list[tuple[int, float]]] = {}
        for node, lev, dist in requests:
            by_lev.setdefault(lev, []).append((node, dist))
        for lev in sorted(by_lev, reverse=True):
            neighbor_ids = index.graph.neighbors(owner, lev)
            dists = index._edge_dists[lev][owner]
            existing = set(neighbor_ids)
            for node, dist in by_lev[lev]:
                if node in existing:
                    continue
                pos = bisect.bisect(dists, dist)
                neighbor_ids.insert(pos, node)
                dists.insert(pos, dist)
                existing.add(node)
            if not index._is_compressed(lev):
                cap = index._cap0 if lev == 0 else params.max_degree
                if len(neighbor_ids) > cap:
                    del neighbor_ids[cap:]
                    del dists[cap:]
            elif len(neighbor_ids) > index._cap0:
                candidates = list(zip(dists, neighbor_ids))
                selected = index._select_edges(
                    computer, owner, candidates, level=lev,
                    graph=graph_view, vectorized=True,
                )
                selected = selected[: max(index._cap0 - params.m, 1)]
                index.graph.set_neighbors(
                    owner, lev, [nid for _, nid in selected]
                )
                index._edge_dists[lev][owner] = [d for d, _ in selected]


def _split_chunks(items: list, n_chunks: int) -> list[list]:
    """Deterministic contiguous split of ``items`` into ≤ ``n_chunks``."""
    n_chunks = max(1, min(n_chunks, len(items)))
    bounds = np.linspace(0, len(items), n_chunks + 1).astype(int)
    return [
        items[bounds[i] : bounds[i + 1]]
        for i in range(n_chunks)
        if bounds[i] < bounds[i + 1]
    ]


def _run_wave(index, adapter, wave: list[int], levels: dict[int, int],
              executor: ThreadPoolExecutor | None, n_workers: int) -> None:
    graph, store = index.graph, index.store
    frozen = freeze_graph(graph)
    trunc = adapter.trunc
    if trunc is None:
        def neighbor_fn(node, lev):
            return frozen[lev][node]
    else:
        def neighbor_fn(node, lev):
            return frozen[lev][node][:trunc]

    entry = graph.entry_point
    top = graph.node_level(entry)
    num_ids = len(store)
    metric = index.metric
    base = store.computer().base
    base_norms = store.base_norms()
    queries = np.ascontiguousarray(base[np.asarray(wave, dtype=np.intp)])
    query_norms = (np.linalg.norm(queries, axis=1)
                   if metric is Metric.COSINE else None)

    # Solo waves replay the sequential heap search exactly (wave_cap=1
    # equivalence); larger waves use the beam-batched traversal.  The
    # quantized Phase-A rounds apply only to multi-node waves for the
    # same reason: the sequential reference computes float32 distances,
    # so solo waves must too to stay byte-identical.
    if len(wave) == 1:
        tasks = [
            _LockstepTask(adapter, node, levels[node], entry, top,
                          queries[row], row, neighbor_fn)
            for row, node in enumerate(wave)
        ]
        qstore = None
    else:
        tasks = [
            _BeamTask(adapter, node, levels[node], entry, top,
                      queries[row], row, frozen, trunc)
            for row, node in enumerate(wave)
        ]
        qstore = getattr(index, "_quant", None)

    # Phase A: lockstep batched searches over the frozen snapshot.
    groups = _split_chunks(tasks, n_workers)
    if executor is None or len(groups) == 1:
        for group in groups:
            _run_group(group, store.computer(), queries, metric,
                       base_norms, query_norms, num_ids, qstore=qstore)
    else:
        futures = [
            executor.submit(_run_group, group, store.computer(), queries,
                            metric, base_norms, query_norms, num_ids,
                            qstore=qstore)
            for group in groups
        ]
        for future in futures:
            future.result()

    # Phase B1: register + forward selection, serial in node-id order.
    # Single-node waves read the live graph so they replay the
    # sequential insert exactly; larger waves read the frozen snapshot
    # (identical for B1 — candidates are all pre-wave — but explicit).
    solo = len(tasks) == 1
    select_view = None if solo else _FrozenView(frozen)
    wave_forward: dict[tuple[int, int], list[int]] = {}
    reverse: list[tuple[int, int, int, float]] = []
    b1_computer = store.computer()
    b1_computer.defer_counts()
    try:
        for task in tasks:
            adapter.register(task.node, task.level)
            for lev in range(task.level + 1):
                wave_forward.setdefault((task.node, lev), [])
            adapter.link_forward(b1_computer, task, select_view,
                                 wave_forward, reverse)
    finally:
        b1_computer.flush_counts()

    # Phase B2: reverse edges.  Solo waves apply requests strictly in
    # B1's emit order — (level desc, distance asc), the exact sequence
    # the sequential insert uses.  Order matters beyond each owner's
    # list: a compressed-level re-prune reads *other* owners' live
    # lists for its two-hop sets, so whether a sibling owner has
    # already received this insert's edge can change the kept set.
    # Multi-node waves instead group requests by owner — (node asc,
    # level desc, distance asc) per owner — and re-prune against the
    # immutable wave view, which makes the grouped order a
    # deterministic function of the frozen snapshot.
    if solo:
        computer = store.computer()
        computer.defer_counts()
        try:
            for owner, node, lev, dist in reverse:
                adapter.apply_reverse(computer, owner, node, lev, dist, None)
        finally:
            computer.flush_counts()
    else:
        grouped: dict[int, list[tuple[int, int, float]]] = {}
        for owner, node, lev, dist in reverse:
            grouped.setdefault(owner, []).append((node, lev, dist))
        graph_view = _WaveView(frozen, wave_forward)
        owner_chunks = _split_chunks(sorted(grouped), n_workers)
        stripe = LockStripe()

        def apply_chunk(chunk: list[int]) -> None:
            computer = store.computer()
            computer.defer_counts()
            try:
                for owner in chunk:
                    with stripe.lock(owner):
                        adapter.apply_reverse_bulk(computer, owner,
                                                   grouped[owner], graph_view)
            finally:
                computer.flush_counts()

        if executor is None or len(owner_chunks) == 1:
            for chunk in owner_chunks:
                apply_chunk(chunk)
        else:
            futures = [executor.submit(apply_chunk, chunk)
                       for chunk in owner_chunks]
            for future in futures:
                future.result()

    # Entry-point promotion: replay the sequential rule in id order.
    cur_top = top
    for task in tasks:
        if task.level > cur_top:
            graph.entry_point = task.node
            cur_top = task.level


def _bulk_insert(index, adapter, node_ids: list[int],
                 n_workers: int, wave_cap: int | None) -> None:
    if not node_ids:
        return
    adapter.check_capacity(node_ids[-1])
    graph = index.graph
    # Pre-draw every level in id order: identical RNG stream to the
    # sequential loop, so the level structure matches it exactly.
    levels = {node: index._levels.draw() for node in node_ids}
    start = 0
    if len(graph) == 0:
        first = node_ids[0]
        adapter.register(first, levels[first])
        graph.entry_point = first
        start = 1
    pending = node_ids[start:]
    cap = wave_cap if wave_cap is not None else default_wave_cap(len(node_ids))
    executor = ThreadPoolExecutor(max_workers=n_workers) if n_workers > 1 else None
    try:
        offset = 0
        for size in wave_schedule(len(pending), cap):
            wave = pending[offset : offset + size]
            offset += size
            _run_wave(index, adapter, wave, levels, executor, n_workers)
    finally:
        if executor is not None:
            executor.shutdown()
    index._frozen = None


def bulk_insert_hnsw(index, vectors: np.ndarray, n_workers: int = 2,
                     wave_cap: int | None = None) -> np.ndarray:
    """Wave-insert ``vectors`` into an :class:`~repro.hnsw.hnsw.HnswIndex`.

    Returns the new node ids.  ``HnswIndex.build(n_workers>1)`` routes
    here; see the module docstring for the determinism contract.
    """
    ids = index.store.add_many(vectors)
    index._frozen = None
    if getattr(index, "quantization", None) is not None:
        # Train + encode before the waves so Phase A can run its
        # distance rounds on codes (solo waves stay float32).
        index._quant_store()
    _bulk_insert(index, _HnswAdapter(index), ids.tolist(), n_workers, wave_cap)
    return ids


def bulk_insert_acorn(index, vectors: np.ndarray, n_workers: int = 2,
                      wave_cap: int | None = None) -> np.ndarray:
    """Wave-insert ``vectors`` into an ACORN-γ or ACORN-1 index.

    Returns the new node ids.  ``AcornIndex.build(n_workers>1)`` and
    ``AcornOneIndex.build(n_workers>1)`` route here.  The flat
    substrate keeps its sequential build (its ``_bottom_seeds``
    override seeds construction searches from the *live* graph, which
    the frozen-snapshot contract cannot honour).
    """
    ids = index.store.add_many(vectors)
    index._frozen = None
    if getattr(index, "quantization", None) is not None:
        index._quant_store()
    _bulk_insert(index, _AcornAdapter(index), ids.tolist(), n_workers, wave_cap)
    return ids
