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
gather + ``np.concatenate`` + stable dedup, with no per-neighbor Python
iteration.

Who calls what.  A frozen float32 search does not call the per-node
strategies at all: every level that has a *candidate CSR* — the raw
``indptr``/``indices`` on filter levels, the :func:`attach_expansion`
lists on compressed ones — is walked directly by
:func:`repro.hnsw.traversal.search_frozen_level`, which applies the
mask itself (fused with the visited test).  The per-node functions here
remain the definition of each strategy: they serve the levels without a
candidate CSR (ACORN-1's upper levels, an expansion over the size
bound) through ``search_layer``, the graph-quality statistics, and the
reference the frozen kernel is tested against
(``tests/core/test_csr_equivalence.py`` checks them against Figure 4
read as a sequential loop).
"""

from __future__ import annotations

import threading

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

    A level may additionally carry *materialized expansion lists* (see
    :func:`attach_expansion`): a second CSR pair per ``m_beta`` holding
    each node's deduplicated 2-hop candidate sequence, which turns the
    compression/expansion lookups into a single slice + mask gather.
    """

    __slots__ = ("indptr", "indices", "node_ids", "_expansions")

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, node_ids: np.ndarray
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.node_ids = node_ids
        self._expansions: dict[int, tuple[np.ndarray, np.ndarray]] = {}

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


def freeze_graph(graph: LayeredGraph) -> list[FrozenLevel]:
    """Snapshot each level's adjacency as a read-only CSR layout.

    Immutability contract: the returned arrays are marked
    non-writeable, so any attempted in-place mutation raises a numpy
    ``ValueError``.  Frozen snapshots are shared by every concurrent
    reader of the batch engine (``repro.engine``); code that needs to
    change the graph must mutate the live :class:`LayeredGraph` and
    re-freeze (``AcornIndex.add`` invalidates the cached snapshot),
    never write through a frozen level.  :func:`assert_frozen` checks
    the contract.
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
        frozen.append(FrozenLevel(indptr, indices, ids))
    return frozen


def assert_frozen(frozen: list[FrozenLevel]) -> None:
    """Assert every CSR array in ``frozen`` is non-writeable.

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
        for m_beta, (exp_indptr, exp_indices) in csr._expansions.items():
            for arr in (exp_indptr, exp_indices):
                assert not arr.flags.writeable, (
                    f"expansion (m_beta={m_beta}) at level {level} is "
                    "writeable; snapshots shared across search threads "
                    "must be immutable"
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


def attach_expansion(
    level: FrozenLevel, m_beta: int, max_ratio: float = 16.0
) -> bool:
    """Materialize per-node expansion lists on a frozen level.

    The compression/expansion lookup's candidate sequence — and its
    stable dedup — depend only on the graph, never on the query
    predicate: a mask either passes every occurrence of a value or
    none, so filtering commutes with first-occurrence dedup.  Both can
    therefore be computed once per snapshot, turning each query-time
    lookup into one CSR slice plus one mask gather while returning
    byte-identical candidate sequences.

    This spends memory to buy traversal speed, so it is bounded: if the
    materialized lists would exceed ``max_ratio`` times the level's
    stored edges (as happens for ACORN-1's unpruned 2-hop sets), the
    build aborts and lookups fall back to the dynamic per-hop path.

    Returns:
        True if the expansion was attached (or already present), False
        if the size bound was hit and the level is left unchanged.
    """
    if m_beta in level._expansions:
        return True
    indptr = level.indptr
    indices = level.indices
    num_ids = level.num_ids
    budget = int(max_ratio * max(indices.size, 1))
    counts_out = np.zeros(num_ids, dtype=np.int64)
    chunks: list[np.ndarray] = []
    total = 0
    for node in level.node_ids.tolist():
        cand, expanded = _expansion_candidates(indptr, indices, node, m_beta)
        if expanded:
            cand = _stable_unique(cand, num_ids)
        total += cand.size
        if total > budget:
            return False
        counts_out[node] = cand.size
        chunks.append(cand)
    if total >= np.iinfo(_INDEX_DTYPE).max:
        return False
    exp_indptr = np.zeros(num_ids + 1, dtype=np.int64)
    np.cumsum(counts_out, out=exp_indptr[1:])
    exp_indptr = exp_indptr.astype(_INDEX_DTYPE)
    exp_indices = (
        np.concatenate(chunks).astype(_INDEX_DTYPE, copy=False)
        if chunks else np.empty(0, dtype=_INDEX_DTYPE)
    )
    exp_indptr.setflags(write=False)
    exp_indices.setflags(write=False)
    level._expansions[m_beta] = (exp_indptr, exp_indices)
    return True


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

    When the level carries a materialized expansion for this ``m_beta``
    (:func:`attach_expansion`), the whole lookup collapses to a slice
    of the precomputed deduplicated sequence plus the mask gather.
    """
    expansion = adjacency._expansions.get(m_beta)
    if expansion is not None:
        exp_indptr, exp_indices = expansion
        cand = exp_indices[exp_indptr[node] : exp_indptr[node + 1]]
        return cand[mask[cand]]
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
