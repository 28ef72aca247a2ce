"""Distance metrics with exact computation counting.

All search structures in this library compare vectors through a
:class:`DistanceComputer`.  The computer is bound to one base dataset and
counts every query-to-base distance it evaluates, which gives us the
hardware-independent cost measure used throughout the paper (Table 3,
§3.2's "distance computations dominate search performance").

Distances are *rank-preserving* rather than true metrics where that is
cheaper: ``l2`` returns squared Euclidean distance and ``cosine`` returns
``1 - cos``.  Nearest-neighbor order is identical to the true metric.
"""

from __future__ import annotations

import enum
import math
import threading

import numpy as np


class Metric(enum.Enum):
    """Supported vector comparison metrics."""

    L2 = "l2"
    INNER_PRODUCT = "ip"
    COSINE = "cosine"


METRICS = tuple(m.value for m in Metric)


def resolve_metric(metric: "Metric | str") -> Metric:
    """Normalize a metric name or enum member into a :class:`Metric`.

    Raises:
        ValueError: if ``metric`` is not one of ``l2``, ``ip``, ``cosine``.
    """
    if isinstance(metric, Metric):
        return metric
    try:
        return Metric(metric)
    except ValueError:
        raise ValueError(
            f"unknown metric {metric!r}; expected one of {METRICS}"
        ) from None


# The C function ``np.einsum`` itself calls when ``optimize=False``
# (numpy 2 moved it to ``numpy._core``), resolved once: calling it
# directly skips about a microsecond of Python argument handling per
# call and returns the same bytes by construction.
try:
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # numpy 1.x
    try:
        from numpy.core.multiarray import c_einsum as _c_einsum
    except ImportError:
        _c_einsum = np.einsum

_FLOAT32 = np.dtype(np.float32)
_INTP = np.dtype(np.intp)


def _l2_sq(base: np.ndarray, query: np.ndarray) -> np.ndarray:
    diff = base - query
    return _c_einsum("ij,ij->i", diff, diff)


def _neg_ip(base: np.ndarray, query: np.ndarray) -> np.ndarray:
    # Negated so that "smaller is closer" holds for every metric.
    return -(base @ query)


def _cosine_dist(base: np.ndarray, query: np.ndarray) -> np.ndarray:
    qn = np.linalg.norm(query)
    bn = np.linalg.norm(base, axis=1)
    denom = np.maximum(bn * qn, np.finfo(np.float32).tiny)
    return 1.0 - (base @ query) / denom


_KERNELS = {
    Metric.L2: _l2_sq,
    Metric.INNER_PRODUCT: _neg_ip,
    Metric.COSINE: _cosine_dist,
}


def pairwise_distances(
    base: np.ndarray, queries: np.ndarray, metric: "Metric | str" = Metric.L2
) -> np.ndarray:
    """Return the full ``(len(queries), len(base))`` distance matrix.

    Used by ground-truth computation and the pre-filter baseline, where a
    single vectorized pass over the candidate set is the whole algorithm.
    """
    metric = resolve_metric(metric)
    base = np.asarray(base, dtype=np.float32)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    if metric is Metric.L2:
        # ‖q‖² + ‖b‖² − 2q·b cancels catastrophically in float32 for
        # close rows of large norm (a self-distance of 0.0156 at values
        # near 97), so it is accumulated in float64 — in place, so the
        # peak memory stays one float64 matrix.
        base, queries = base.astype(np.float64), queries.astype(np.float64)
        out = queries @ base.T
        out *= -2.0
        out += np.einsum("ij,ij->i", queries, queries)[:, None]
        out += np.einsum("ij,ij->i", base, base)[None, :]
        return np.maximum(out, 0.0, out=out).astype(np.float32)
    if metric is Metric.INNER_PRODUCT:
        return -(queries @ base.T)
    qn = np.linalg.norm(queries, axis=1)
    bn = np.linalg.norm(base, axis=1)
    denom = np.maximum(np.outer(qn, bn), np.finfo(np.float32).tiny)
    return 1.0 - (queries @ base.T) / denom


class _GlobalTally:
    """Process-wide, thread-safe running total of distance evaluations.

    Every :class:`DistanceComputer` reports its evaluations here in
    addition to its own per-computer count.  The tally is monotonic —
    per-computer :meth:`DistanceComputer.reset` calls do not rewind it —
    so concurrency tests can assert that the tally's delta across a
    workload equals the sum of per-query counts (a mismatch means a
    counter increment raced and was lost).
    """

    __slots__ = ("_lock", "_total")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._total = 0

    def add(self, n: int) -> None:
        """Atomically record ``n`` distance evaluations."""
        with self._lock:
            self._total += int(n)

    @property
    def total(self) -> int:
        """Total evaluations recorded since process start."""
        with self._lock:
            return self._total


GLOBAL_TALLY = _GlobalTally()
"""The process-wide distance-evaluation tally shared by all computers."""


def _cosine_from_norms(
    rows: np.ndarray, norms: np.ndarray, query: np.ndarray
) -> np.ndarray:
    """Cosine distance using precomputed base-row norms."""
    qn = np.linalg.norm(query)
    denom = np.maximum(norms * qn, np.finfo(np.float32).tiny)
    return 1.0 - (rows @ query) / denom


class DistanceComputer:
    """Batched query-to-base distances over one dataset, with counting.

    One computer is bound to a base matrix; search code calls
    :meth:`distances_to` with node ids to get distances from the current
    query to those base vectors.  ``count`` accumulates the number of
    individual distance evaluations, which the evaluation harness reads
    to reproduce Table 3.

    Counting is thread-safe: increments go through a lock (and are
    mirrored into :data:`GLOBAL_TALLY`), so a computer shared by the
    concurrent batch engine never loses increments to races.  A search
    path that owns its computer exclusively can instead switch to
    *deferred* counting (:meth:`defer_counts`): evaluations accumulate
    in a plain local integer and :meth:`flush_counts` settles them into
    ``count`` and :data:`GLOBAL_TALLY` once per query — one lock
    acquisition per query instead of two per graph hop.

    For the cosine metric, base-vector norms are computed once at
    construction (or passed in precomputed by
    :class:`~repro.vectors.store.VectorStore`) instead of being
    recomputed on every :meth:`distances_to`/:meth:`distance_one` call.

    Attributes:
        count: total distances computed since construction or last
            :meth:`reset` (deferred-but-unflushed evaluations included).
    """

    def __init__(
        self,
        base: np.ndarray,
        metric: "Metric | str" = Metric.L2,
        base_norms: np.ndarray | None = None,
    ) -> None:
        base = np.asarray(base, dtype=np.float32)
        if base.ndim != 2:
            raise ValueError(f"base must be 2-D, got shape {base.shape}")
        metric = resolve_metric(metric)
        if metric is not Metric.COSINE:
            base_norms = None
        elif base_norms is None:
            base_norms = np.linalg.norm(base, axis=1)
        elif base_norms.shape[0] != base.shape[0]:
            raise ValueError(
                f"base_norms covers {base_norms.shape[0]} rows, base "
                f"has {base.shape[0]}"
            )
        self._bind(base, metric, base_norms)

    @classmethod
    def _over(
        cls, base: np.ndarray, metric: Metric, base_norms: np.ndarray | None
    ) -> "DistanceComputer":
        """A computer over a base the caller vouches for: a 2-D float32
        matrix, a resolved ``metric`` and, for cosine only, the base's
        norms — what :meth:`~repro.vectors.store.VectorStore.computer`
        hands over for every search, so none of it is checked again."""
        computer = cls.__new__(cls)
        computer._bind(base, metric, base_norms)
        return computer

    def _bind(self, base, metric: Metric, base_norms) -> None:
        self.base = base
        self.metric = metric
        self._kernel = _KERNELS[metric]
        self._l2 = metric is Metric.L2
        self._base_norms = base_norms
        self._count_lock = threading.Lock()
        self._count = 0
        self._deferred = False
        self._pending = 0

    @property
    def count(self) -> int:
        """Distances evaluated since construction or last :meth:`reset`."""
        return self._count + self._pending

    @count.setter
    def count(self, value: int) -> None:
        with self._count_lock:
            self._count = int(value)
            self._pending = 0

    def add_count(self, n: int) -> None:
        """Record ``n`` distance evaluations.

        Thread-safe by default (lock + :data:`GLOBAL_TALLY` mirror); in
        deferred mode the increment is a plain local addition settled by
        :meth:`flush_counts`.  Use this instead of ``computer.count +=
        n`` (a racy read-modify-write) when accounting for evaluations
        performed outside the computer.
        """
        if self._deferred:
            self._pending += int(n)
            return
        with self._count_lock:
            self._count += int(n)
        GLOBAL_TALLY.add(n)

    def defer_counts(self) -> None:
        """Switch to per-query local counting (see class docstring).

        Only valid while the computer is used by a single thread — the
        per-query computers the indices create qualify; a computer
        shared across engine workers does not.
        """
        self._deferred = True

    def flush_counts(self) -> int:
        """Settle deferred evaluations into ``count``/:data:`GLOBAL_TALLY`.

        Idempotent; returns the number of evaluations flushed.  Search
        paths call this exactly once per query, in a ``finally`` block,
        so the global tally stays exact even on error paths.
        """
        pending = self._pending
        if pending:
            # Deferred counting is single-threaded, so only the shared
            # tally needs its lock.
            self._pending = 0
            self._count += pending
            GLOBAL_TALLY.add(pending)
        return pending

    @property
    def dim(self) -> int:
        """Dimensionality of the base vectors."""
        return self.base.shape[1]

    def __len__(self) -> int:
        return self.base.shape[0]

    def reset(self) -> None:
        """Zero the distance-computation counter (pending included).

        Per-computer only: :data:`GLOBAL_TALLY` is monotonic and keeps
        its running total.
        """
        self.count = 0

    def set_query(self, query: np.ndarray) -> np.ndarray:
        """Validate and coerce ``query``; returns the float32 vector.

        The one place every search binds its query, so the one refusal
        of a query that is not a single ``(dim,)`` or ``(1, dim)`` row
        of finite values.
        """
        query = np.asarray(query, dtype=np.float32)
        if query.ndim == 2 and query.shape[0] == 1:
            query = query.reshape(-1)
        if query.shape != (self.dim,):
            raise ValueError(
                f"query has shape {query.shape}, base has dim {self.dim}: "
                f"expected ({self.dim},) or (1, {self.dim})"
            )
        # A finite dot product proves every value finite (a NaN or inf
        # makes it NaN or inf); only a non-finite one, which a huge
        # finite query can also overflow to, is checked value by value.
        if not (math.isfinite(query.dot(query))
                or np.isfinite(query).all()):
            raise ValueError("query contains non-finite values (NaN or inf)")
        return query

    def distances_to(
        self, query: np.ndarray, ids: "np.ndarray | list[int]"
    ) -> np.ndarray:
        """Distances from ``query`` to base rows ``ids`` (counted).

        ``ids`` may be a list or an integer array of any width: ``take``
        converts it itself, and unlike fancy indexing it does not first
        cast a non-``intp`` array (the CSR is int32) to a fresh index.
        A float32 L2 call is the gather, an in-place subtract on that
        private copy and one C reduction; the count is inlined.

        Every id must lie in ``[0, n)`` and none is checked here: a
        negative one wraps to a row from the end.  The producers check
        instead — the decoded CSR (``persistence._check_csr``),
        ``AcornIndex.search``'s ``entry_point=`` range check, and masks'
        ``np.flatnonzero``, which only yields valid rows.
        """
        rows = self.base.take(ids, axis=0)
        if self._deferred:
            self._pending += len(rows)
        else:
            self.add_count(len(rows))
        if self._l2 and query.dtype is _FLOAT32:
            np.subtract(rows, query, out=rows)
            return _c_einsum("ij,ij->i", rows, rows)
        if self._base_norms is not None:
            return _cosine_from_norms(rows, self._base_norms.take(ids), query)
        return self._kernel(rows, query)

    def distance_one(self, query: np.ndarray, node_id: int) -> float:
        """Distance from ``query`` to a single base row (counted).

        Raises:
            IndexError: if ``node_id`` is outside the base (indexing
                the row directly, where a slice would be silently
                empty; a negative id is refused, not wrapped).
        """
        if node_id < 0:
            raise IndexError(
                f"node id {node_id} is outside the base of {len(self)} rows"
            )
        self.add_count(1)
        row = self.base[node_id][None, :]
        if self._base_norms is not None:
            return float(_cosine_from_norms(
                row, self._base_norms[node_id][None], query
            )[0])
        return float(self._kernel(row, query)[0])

    def distances_to_all(self, query: np.ndarray) -> np.ndarray:
        """Distances from ``query`` to every base vector (counted)."""
        self.add_count(self.base.shape[0])
        if self._base_norms is not None:
            return _cosine_from_norms(self.base, self._base_norms, query)
        return self._kernel(self.base, query)


def smallest_k(
    dists: np.ndarray, ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest ``(distance, id)`` pairs, ascending by distance
    and then id; returns ``(distances, ids)`` as float32 and ``intp``.

    The one ranking every exact top-k in the library shares: the scan
    (:func:`exact_top_k`), the shard and epoch merge
    (:func:`repro.shard.sharded.merge_topk`), a delta segment's
    ``DeltaView.topk`` and a fold repair's pick.  Ties break on id, so
    the order of the input never shows; arrays that already have the
    output dtypes are not converted.
    """
    order = np.lexsort((ids, dists))[:k]
    dists, ids = dists[order], ids[order]
    if dists.dtype is not _FLOAT32:
        dists = dists.astype(np.float32)
    if ids.dtype is not _INTP:
        ids = ids.astype(np.intp)
    return dists, ids


def exact_top_k(computer, query: np.ndarray, ids: np.ndarray, k: int):
    """The ``k`` of ``ids`` nearest ``query`` by (distance, id), exactly;
    returns ``(ids, distances)``.

    The one exact ranking shared by ``AcornIndex.search``'s scan and
    :class:`~repro.baselines.prefilter.PreFilterSearcher`.
    """
    dists, ids = smallest_k(computer.distances_to(query, ids), ids, k)
    return ids, dists
