"""ACORN's neighbor-lookup strategies (paper §5.1, Figure 4).

ACORN's search is HNSW's search with one substitution: the neighborhood
of each visited node is recovered through a predicate-aware lookup
instead of a raw adjacency read.  Three strategies exist:

- **filter** (Fig 4a): scan the stored list in ascending-distance order
  and keep entries passing the predicate.  Used on uncompressed levels
  of ACORN-γ.
- **compressed** (Fig 4b): the first Mβ entries are filtered directly;
  entries past Mβ are expanded to include their own neighbors (the
  2-hop set the pruning rule guaranteed covers every pruned edge)
  before filtering.  Used on ACORN-γ's compressed level 0.
- **expansion** (Fig 4c): full one-hop + two-hop expansion, then
  filtering.  ACORN-1's strategy — it approximates the M·γ lists that
  were never built.

Deviation from the paper's Algorithm 2 listing: the listing truncates
each recovered neighborhood to its first M entries, and M is described
as the search-time degree bound.  Because stored lists are sorted by
distance, a hard first-M truncation keeps only each node's most local
passing candidates; empirically that traps the greedy traversal inside
nearest-neighbor cliques and collapses recall (level-0 reachability
through first-M-truncated lists covers a small fraction of the graph).
We therefore return *every* passing candidate the strategy discovers.
The expected count is still ≈ M by design — the filtered degree is
s·M·γ, and γ = 1/s_min calibrates it to M at the lowest served
selectivity — so M remains the paper's *expected* per-node bound rather
than a hard one.  See DESIGN.md §3.

Lookups operate on a frozen CSR adjacency snapshot (one
:class:`FrozenLevel` per level) so every strategy is a handful of numpy
slice/gather operations: the predicate mask is applied as
``mask[indices[start:stop]]`` and 2-hop expansion is an ``indptr``
gather + scatter + stable dedup, with no per-neighbor Python iteration.

Who calls what.  A frozen float32 search does not call the per-node
strategies at all: :func:`repro.hnsw.traversal.search_frozen_level`
reads each expanded node's *candidate row* from its level's memo
(:attr:`FrozenLevel.rows`) — the raw list on a filter level, the
deduplicated 2-hop sequence on an expanding one — building it with
:meth:`FrozenLevel.fill` the first time any walk expands that node, and
applies the mask itself (fused with the visited test).  The per-node
functions here remain the definition of each strategy: they serve the
graph-quality statistics and the reference the frozen kernel is tested
against (``tests/core/test_csr_equivalence.py`` checks them against
Figure 4 read as a sequential loop).
"""

from __future__ import annotations

import threading
from collections.abc import Callable

import numpy as np

from repro.hnsw.graph import LayeredGraph

_INDEX_DTYPE = np.int32

_EMPTY = np.empty(0, dtype=_INDEX_DTYPE)
_EMPTY.setflags(write=False)


class FrozenLevel:
    """CSR-flattened, read-only adjacency of one graph level.

    Neighbor lists of every node on the level are concatenated into one
    contiguous ``indices`` array; ``indptr`` (length ``num_ids + 1``,
    indexed by *global* node id) delimits each node's slice.  Nodes
    absent from the level simply own an empty slice, so lookups never
    branch on membership — the traversal only ever asks for nodes the
    level contains.

    Attributes:
        indptr: int32 array of slice offsets, shape ``(num_ids + 1,)``.
        indices: int32 array of concatenated neighbor ids, shape
            ``(num_edges,)``, each list in its stored
            (ascending-distance) order.
        node_ids: int32 array of the node ids present on this level,
            ascending.
        m_beta: the level's lookup — None for the filter strategy (a
            row is the stored list), else the compression/expansion
            cut (a row is the deduplicated Figure 4b sequence; 0 is
            ACORN-1's full 2-hop expansion, Fig 4c).
        rows: the candidate-row memo, one slot per global id; None
            until :meth:`fill` stores the node's read-only row.

    Rows are built on demand, never at freeze time: the expansion costs
    tens of microseconds a node, and a snapshot whose readers all scan
    would pay it for nothing.  Stored entries are capped at
    ``max_ratio`` times the level's edges (ACORN-1's unpruned 2-hop
    sets can blow far past it); past the cap a row is computed on every
    expansion and not stored.
    """

    __slots__ = ("indptr", "indices", "node_ids", "m_beta", "rows", "_room",
                 "_lock")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        node_ids: np.ndarray,
        m_beta: int | None = None,
        max_ratio: float = 16.0,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.node_ids = node_ids
        self.m_beta = m_beta
        self.rows: list[np.ndarray | None] = [None] * (indptr.size - 1)
        self._room = int(max_ratio * indices.size)
        self._lock = threading.Lock()

    def fill(self, node: int) -> np.ndarray:
        """The candidate row of ``node``: built, and memoized if it fits.

        Filtering commutes with first-occurrence dedup — a mask passes
        every occurrence of an id or none — so the deduplicated sequence
        depends only on the graph, and one row serves every predicate:
        ``row[mask[row]]`` equals :func:`compressed_neighbors` (or
        :func:`filtered_neighbors` on a filter level) byte for byte.
        Concurrent fills of one node compute equal rows; the first to
        take the lock stores it.
        """
        if self.m_beta is None:
            row = self.indices[self.indptr[node]:self.indptr[node + 1]]
        else:
            row, expanded = _expansion_candidates(
                self.indptr, self.indices, node, self.m_beta)
            if expanded:
                row = _stable_unique(row, self.num_ids)
                row.setflags(write=False)
        with self._lock:
            if self.rows[node] is None and row.size < self._room:
                self._room -= row.size
                self.rows[node] = row
        return row

    def __len__(self) -> int:
        """Number of nodes present on the level."""
        return int(self.node_ids.size)

    def __contains__(self, node: int) -> bool:
        pos = int(np.searchsorted(self.node_ids, node))
        return pos < self.node_ids.size and int(self.node_ids[pos]) == node

    def __getitem__(self, node: int) -> np.ndarray:
        """The (read-only) neighbor array of ``node``, stored order."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    @property
    def num_ids(self) -> int:
        """Size of the global id space the level is indexed by."""
        return int(self.indptr.size - 1)

    @property
    def num_edges(self) -> int:
        """Total directed edges stored on the level."""
        return int(self.indices.size)


def freeze_graph(
    graph: LayeredGraph,
    m_beta_of: Callable[[int], int | None] = lambda level: None,
) -> list[FrozenLevel]:
    """Snapshot each level's adjacency as a read-only CSR layout.

    ``m_beta_of(level)`` names each level's lookup (see
    :attr:`FrozenLevel.m_beta`; the default filters everywhere, as HNSW
    does).  No row is built here.

    Immutability contract: the returned arrays — and every row the memo
    later stores — are marked non-writeable, so any attempted in-place
    mutation raises a numpy ``ValueError``.  Frozen snapshots are shared
    by every concurrent reader of the batch engine (``repro.engine``);
    code that needs to change the graph must mutate the live
    :class:`LayeredGraph` and re-freeze (``AcornIndex.add`` invalidates
    the cached snapshot), never write through a frozen level.
    :func:`assert_frozen` checks the contract.
    """
    num_ids = len(graph)
    frozen: list[FrozenLevel] = []
    for level in range(graph.max_level + 1):
        node_ids = graph.nodes_at_level(level)
        counts = np.zeros(num_ids, dtype=np.int64)
        flat: list[int] = []
        for node in node_ids:
            neighbor_ids = graph.neighbors(node, level)
            counts[node] = len(neighbor_ids)
            flat.extend(neighbor_ids)
        if len(flat) >= np.iinfo(_INDEX_DTYPE).max:
            raise OverflowError(
                f"level {level} holds {len(flat)} edges, beyond the int32 "
                "CSR layout"
            )
        indptr = np.zeros(num_ids + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indptr = indptr.astype(_INDEX_DTYPE)
        indices = np.asarray(flat, dtype=_INDEX_DTYPE)
        ids = np.asarray(sorted(node_ids), dtype=_INDEX_DTYPE)
        for arr in (indptr, indices, ids):
            arr.setflags(write=False)
        frozen.append(FrozenLevel(indptr, indices, ids, m_beta_of(level)))
    return frozen


def assert_frozen(frozen: list[FrozenLevel]) -> None:
    """Assert every CSR array and memoized row in ``frozen`` is non-writeable.

    Raises:
        AssertionError: if any level holds a writeable array — i.e. the
            snapshot was built outside :func:`freeze_graph` or someone
            flipped the write flag back on.
    """
    for level, csr in enumerate(frozen):
        assert isinstance(csr, FrozenLevel), (
            f"level {level} of the snapshot is {type(csr).__name__}, "
            "expected FrozenLevel"
        )
        for name in ("indptr", "indices", "node_ids"):
            arr = getattr(csr, name)
            assert not arr.flags.writeable, (
                f"frozen {name} at level {level} is writeable; snapshots "
                "shared across search threads must be immutable"
            )
        for node, row in enumerate(csr.rows):
            assert row is None or not row.flags.writeable, (
                f"memoized row of node {node} at level {level} is "
                "writeable; snapshots shared across search threads must "
                "be immutable"
            )


_DEDUP_LOCAL = threading.local()


def _dedup_table(num_ids: int) -> np.ndarray:
    """The calling thread's position table for :func:`_stable_unique`."""
    table = getattr(_DEDUP_LOCAL, "table", None)
    if table is None or table.size < num_ids:
        table = np.empty(max(num_ids, 1024), dtype=np.intp)
        _DEDUP_LOCAL.table = table
    return table


def _stable_unique(ids: np.ndarray, num_ids: int) -> np.ndarray:
    """Drop duplicate ids, keeping each first occurrence in order.

    Sort-free: scatters each id's position into a reusable per-thread
    table — reversed, so for duplicated ids the *first* occurrence's
    write wins — then keeps entries whose gathered position equals
    their own.  Stale table contents from earlier calls are harmless
    because only entries written by this call are read back.
    """
    if ids.size <= 1:
        return ids
    table = _dedup_table(num_ids)
    positions = np.arange(ids.size, dtype=np.intp)
    table[ids[::-1]] = positions[::-1]
    keep = table[ids] == positions
    if keep.all():
        return ids
    return ids[keep]


def filtered_neighbors(
    adjacency: FrozenLevel, node: int, mask: np.ndarray
) -> np.ndarray:
    """Filter strategy (Fig 4a): passing entries of N(v), in list order."""
    neighbor_ids = adjacency[node]
    if neighbor_ids.size == 0:
        return neighbor_ids
    return neighbor_ids[mask[neighbor_ids]]


def _expansion_candidates(
    indptr: np.ndarray, indices: np.ndarray, node: int, m_beta: int
) -> tuple[np.ndarray, bool]:
    """The interleaved (pre-mask, pre-dedup) expansion sequence of a node.

    Returns ``(candidates, expanded)``: the sequence head, tail[0],
    N(tail[0]), tail[1], N(tail[1]), ... assembled by scatter/gather
    rather than a per-hop Python loop.  ``expanded`` is False when the
    stored list fits within ``m_beta`` (no tail) — the sequence is then
    the raw head and callers must skip dedup to mirror the sequential
    reference, which never dedups a pure head.
    """
    start = int(indptr[node])
    stop = int(indptr[node + 1])
    if stop == start:
        return _EMPTY, False
    split = min(start + m_beta, stop)
    head = indices[start:split]
    tail = indices[split:stop]
    if tail.size == 0:
        return head, False
    hop_starts = indptr[tail]
    counts = indptr[tail + 1] - hop_starts
    total_edges = int(counts.sum())
    candidates = np.empty(head.size + tail.size + total_edges,
                          dtype=indices.dtype)
    candidates[: head.size] = head
    edge_offsets = np.cumsum(counts) - counts
    tail_pos = head.size + edge_offsets + np.arange(tail.size)
    candidates[tail_pos] = tail
    if total_edges:
        edge_pos = np.ones(tail.size + total_edges, dtype=bool)
        edge_pos[tail_pos - head.size] = False
        flat = np.repeat(hop_starts - edge_offsets, counts)
        flat += np.arange(total_edges)
        candidates[head.size :][edge_pos] = indices[flat]
    return candidates, True


def compressed_neighbors(
    adjacency: FrozenLevel,
    node: int,
    mask: np.ndarray,
    m_beta: int,
) -> np.ndarray:
    """Compression strategy (Fig 4b): filter first Mβ, expand the rest.

    Phase 1 filters the first ``m_beta`` stored entries directly.
    Phase 2 expands the remaining entries in order; each contributes
    itself plus its one-hop neighborhood (recovering edges the
    predicate-agnostic pruning dropped).  One mask gather filters the
    interleaved candidates; a stable dedup keeps first occurrences, so
    the output order matches the sequential reference exactly.
    """
    candidates, expanded = _expansion_candidates(
        adjacency.indptr, adjacency.indices, node, m_beta
    )
    passing = candidates[mask[candidates]]
    if not expanded:
        return passing
    return _stable_unique(passing, adjacency.num_ids)


def expanded_neighbors(
    adjacency: FrozenLevel, node: int, mask: np.ndarray
) -> np.ndarray:
    """ACORN-1's expansion strategy (Fig 4c): 1-hop + 2-hop, filtered.

    Equivalent to the compression strategy with ``m_beta = 0``: every
    stored neighbor is expanded, approximating the M·γ candidate lists
    ACORN-γ would have stored.
    """
    return compressed_neighbors(adjacency, node, mask, m_beta=0)


def truncated_neighbors(
    adjacency: FrozenLevel, node: int, m: int
) -> np.ndarray:
    """Metadata-agnostic construction lookup (§5.2): first M entries.

    During ACORN-γ construction the traversal ignores predicates and
    reads only the first M entries of each (possibly M·γ-long) list —
    M edges suffice for navigability, so scanning more would only add
    distance computations and TTI.
    """
    start = adjacency.indptr[node]
    return adjacency.indices[start : min(start + m, adjacency.indptr[node + 1])]
