"""Append-only float32 vector store backing every index in the library."""

from __future__ import annotations

import numpy as np

from repro.vectors.distance import DistanceComputer, Metric, resolve_metric


class VectorStore:
    """Growable, contiguous float32 matrix of database vectors.

    Indexes that support incremental insertion (HNSW, ACORN) append
    through :meth:`add`; batch constructions pass a prebuilt matrix.
    Capacity doubles amortized so repeated adds stay O(1).
    """

    def __init__(self, dim: int, metric: "Metric | str" = Metric.L2, capacity: int = 1024) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = int(dim)
        self.metric = resolve_metric(metric)
        self._data = np.empty((max(int(capacity), 1), self.dim), dtype=np.float32)
        self._size = 0
        # Cosine norm cache: norms of rows [0, _norm_size) — extended
        # incrementally, so repeated computer() calls never re-norm the
        # whole matrix.  Rows are append-only, so cached norms stay valid.
        self._norms = np.empty(0, dtype=np.float32)
        self._norm_size = 0

    @classmethod
    def from_array(cls, vectors: np.ndarray, metric: "Metric | str" = Metric.L2) -> "VectorStore":
        """Build a store holding a copy of ``vectors`` (n, d)."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if not np.isfinite(vectors).all():
            raise ValueError("vectors contain non-finite values (NaN or inf)")
        store = cls(vectors.shape[1], metric=metric, capacity=max(len(vectors), 1))
        store._data[: len(vectors)] = vectors
        store._size = len(vectors)
        return store

    @classmethod
    def wrap(cls, vectors: np.ndarray, metric: "Metric | str" = Metric.L2) -> "VectorStore":
        """A store over ``vectors`` (n, d) float32 as they are, without a
        copy — a loaded index reads its image in place; the first
        :meth:`add` grows into a fresh buffer."""
        store = cls(vectors.shape[1], metric=metric, capacity=1)
        if len(vectors):
            store._data = vectors
            store._size = len(vectors)
        return store

    def __len__(self) -> int:
        return self._size

    @property
    def vectors(self) -> np.ndarray:
        """Read-only view of the stored vectors, shape ``(len(self), dim)``."""
        view = self._data[: self._size]
        view.flags.writeable = False
        return view

    def get(self, node_id: int) -> np.ndarray:
        """Return the vector stored at ``node_id``."""
        if not 0 <= node_id < self._size:
            raise IndexError(f"vector id {node_id} out of range [0, {self._size})")
        return self._data[node_id]

    def add(self, vector: np.ndarray) -> int:
        """Append one vector; returns its id."""
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        if vector.shape[0] != self.dim:
            raise ValueError(f"vector has dim {vector.shape[0]}, store has dim {self.dim}")
        if not np.isfinite(vector).all():
            # NaN breaks the sorted-by-distance order the graph's edge
            # lists are kept in; refuse before the store grows.
            raise ValueError("vector contains non-finite values (NaN or inf)")
        if self._size == self._data.shape[0]:
            grown = np.empty((self._data.shape[0] * 2, self.dim), dtype=np.float32)
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size] = vector
        self._size += 1
        return self._size - 1

    def base_norms(self) -> np.ndarray | None:
        """Cached L2 norms of the stored rows (cosine metric only).

        Computed incrementally: only rows appended since the last call
        are normed, so per-:meth:`add` construction stays O(d) here
        instead of O(n·d).  Returns ``None`` for metrics that never
        touch norms.
        """
        if self.metric is not Metric.COSINE:
            return None
        if self._norm_size < self._size:
            fresh = np.linalg.norm(
                self._data[self._norm_size : self._size], axis=1
            )
            if self._norms.shape[0] < self._size:
                grown = np.empty(self._data.shape[0], dtype=fresh.dtype)
                grown[: self._norm_size] = self._norms[: self._norm_size]
                self._norms = grown
            self._norms[self._norm_size : self._size] = fresh
            self._norm_size = self._size
        return self._norms[: self._size]

    def computer(self) -> DistanceComputer:
        """A :class:`DistanceComputer` over the current contents.

        The computer snapshots the present size; vectors added later are
        not visible to it.  Indexes create one per build/search session.
        """
        return DistanceComputer._over(
            self._data[: self._size], self.metric, self.base_norms()
        )

    def nbytes(self) -> int:
        """Bytes used by live vector payload (for Table 5 index sizing)."""
        return self._size * self.dim * self._data.itemsize
