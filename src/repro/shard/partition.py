"""Partitioners: deterministic row-to-shard assignment.

Two placement policies cover the classical trade-off:

- :class:`HashPartitioner` spreads rows uniformly (balanced shards, no
  routing leverage — every shard must be probed for every predicate);
- :class:`AttributeRangePartitioner` splits on a numeric column's value
  ranges (shards become selective for predicates on that column, which
  is what gives the :class:`~repro.shard.router.ShardRouter` provable
  prunes).

Both are pure functions of (row ids, attribute values): the same inputs
always produce the same :class:`ShardAssignment`, which persistence
relies on.  :func:`subset_table` (re-exported from
:mod:`repro.attributes.table`) carves the per-shard attribute tables out
of the global one, preserving column kinds.
"""

from __future__ import annotations

import abc
import dataclasses

import numpy as np

from repro.attributes.table import AttributeTable, ColumnKind
from repro.attributes.table import subset_table  # re-exported: shards' carver


@dataclasses.dataclass
class ShardAssignment:
    """The materialized global-id ↔ (shard, local-id) mapping.

    Attributes:
        shard_of: int64 array, ``shard_of[g]`` is the shard owning
            global row ``g``.
        global_ids: one ascending int64 array per shard — local id
            ``j`` of shard ``s`` is global row ``global_ids[s][j]``.
            Ascending order means a single-shard assignment preserves
            the global insertion order exactly.
        local_of: int64 array, ``local_of[g]`` is row ``g``'s local id
            within its owning shard.
    """

    shard_of: np.ndarray
    global_ids: list[np.ndarray]
    local_of: np.ndarray

    @classmethod
    def from_shard_of(cls, shard_of: np.ndarray, n_shards: int) -> "ShardAssignment":
        """Build the full mapping from a per-row shard-id array."""
        shard_of = np.asarray(shard_of, dtype=np.int64)
        if shard_of.size and (shard_of.min() < 0 or shard_of.max() >= n_shards):
            raise ValueError(
                f"shard ids must lie in [0, {n_shards}), got "
                f"[{shard_of.min()}, {shard_of.max()}]"
            )
        global_ids = [
            np.flatnonzero(shard_of == s).astype(np.int64)
            for s in range(n_shards)
        ]
        local_of = np.zeros(shard_of.shape[0], dtype=np.int64)
        for gids in global_ids:
            local_of[gids] = np.arange(gids.shape[0], dtype=np.int64)
        return cls(shard_of=shard_of, global_ids=global_ids, local_of=local_of)

    @property
    def n_shards(self) -> int:
        """Number of shards in the assignment."""
        return len(self.global_ids)

    @property
    def n_rows(self) -> int:
        """Total rows across all shards."""
        return int(self.shard_of.shape[0])

    def to_local(self, global_id: int) -> tuple[int, int]:
        """Map a global row id to its ``(shard, local_id)`` pair."""
        if not 0 <= global_id < self.n_rows:
            raise IndexError(
                f"global id {global_id} out of range [0, {self.n_rows})"
            )
        return int(self.shard_of[global_id]), int(self.local_of[global_id])

    def to_global(self, shard: int, local_id: int) -> int:
        """Map a shard-local row id back to its global row id."""
        return int(self.global_ids[shard][local_id])


class Partitioner(abc.ABC):
    """Deterministic policy assigning every table row to one shard."""

    n_shards: int

    @abc.abstractmethod
    def assign(self, table: AttributeTable) -> np.ndarray:
        """Per-row shard ids (int64 array of length ``len(table)``)."""

    def partition(self, table: AttributeTable) -> ShardAssignment:
        """Assign every row and materialize the full id mapping."""
        return ShardAssignment.from_shard_of(self.assign(table), self.n_shards)

    @abc.abstractmethod
    def spec(self) -> dict:
        """JSON-serializable description, consumed by persistence."""


def _mix64(values: np.ndarray, seed: int) -> np.ndarray:
    """SplitMix64 finalizer over an int array (vectorized, wrapping)."""
    x = values.astype(np.uint64) + np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


class HashPartitioner(Partitioner):
    """Uniform placement by a deterministic hash of the global row id.

    With ``n_shards=1`` every row lands on shard 0 in global order, so a
    single-shard index is graph-identical to the unsharded build — the
    anchor case of the equivalence suite.

    Args:
        n_shards: number of shards (positive).
        seed: hash salt; different seeds give different (still
            deterministic) placements.
    """

    def __init__(self, n_shards: int, seed: int = 0) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.n_shards = int(n_shards)
        self.seed = int(seed)

    def assign(self, table: AttributeTable) -> np.ndarray:
        """Per-row shard ids (int64 array of length ``len(table)``)."""
        n = len(table)
        if self.n_shards == 1:
            return np.zeros(n, dtype=np.int64)
        hashed = _mix64(np.arange(n, dtype=np.int64), self.seed)
        return (hashed % np.uint64(self.n_shards)).astype(np.int64)

    def spec(self) -> dict:
        """JSON-serializable description, consumed by persistence."""
        return {"type": "hash", "n_shards": self.n_shards, "seed": self.seed}

    def __repr__(self) -> str:
        return f"HashPartitioner(n_shards={self.n_shards}, seed={self.seed})"


class AttributeRangePartitioner(Partitioner):
    """Range placement on a numeric column (the routing-friendly layout).

    Rows are assigned by ``searchsorted`` against ``n_shards - 1``
    interior boundaries: shard ``s`` holds rows whose value falls in
    ``(boundaries[s-1], boundaries[s]]``.  When no boundaries are given
    they are derived from the column's quantiles on first use (and then
    frozen, so :meth:`spec` round-trips the realized split).

    Args:
        column: name of an int/float column to split on.
        n_shards: number of shards; required unless ``boundaries`` is
            given.
        boundaries: explicit ascending interior boundaries
            (``len == n_shards - 1``); overrides the quantile split.
    """

    def __init__(
        self,
        column: str,
        n_shards: int | None = None,
        boundaries: list[float] | None = None,
    ) -> None:
        if boundaries is None and n_shards is None:
            raise ValueError("pass n_shards or explicit boundaries")
        if boundaries is not None:
            boundaries = [float(b) for b in boundaries]
            if sorted(boundaries) != boundaries:
                raise ValueError(f"boundaries must ascend, got {boundaries}")
            if n_shards is not None and n_shards != len(boundaries) + 1:
                raise ValueError(
                    f"{len(boundaries)} boundaries imply "
                    f"{len(boundaries) + 1} shards, got n_shards={n_shards}"
                )
            n_shards = len(boundaries) + 1
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.column = column
        self.n_shards = int(n_shards)
        self.boundaries = boundaries

    def _column_values(self, table: AttributeTable) -> np.ndarray:
        kind = table.column_kind(self.column)
        if kind not in (ColumnKind.INT, ColumnKind.FLOAT):
            raise ValueError(
                f"column {self.column!r} is {kind.value}; range partitioning "
                "requires an int or float column"
            )
        return np.asarray(table.column(self.column), dtype=np.float64)

    def assign(self, table: AttributeTable) -> np.ndarray:
        """Per-row shard ids (int64 array of length ``len(table)``)."""
        values = self._column_values(table)
        if self.boundaries is None:
            qs = np.linspace(0, 1, self.n_shards + 1)[1:-1]
            self.boundaries = [
                float(b) for b in np.quantile(values, qs)
            ] if values.size else [0.0] * (self.n_shards - 1)
        return np.searchsorted(
            np.asarray(self.boundaries, dtype=np.float64), values, side="left"
        ).astype(np.int64)

    def spec(self) -> dict:
        """JSON-serializable description, consumed by persistence."""
        return {
            "type": "attribute-range",
            "column": self.column,
            "n_shards": self.n_shards,
            "boundaries": self.boundaries,
        }

    def __repr__(self) -> str:
        return (
            f"AttributeRangePartitioner({self.column!r}, "
            f"n_shards={self.n_shards}, boundaries={self.boundaries})"
        )


def partitioner_from_spec(spec: dict) -> Partitioner:
    """Rebuild a partitioner from its :meth:`Partitioner.spec` dict."""
    kind = spec.get("type")
    if kind == "hash":
        return HashPartitioner(spec["n_shards"], seed=spec.get("seed", 0))
    if kind == "attribute-range":
        return AttributeRangePartitioner(
            spec["column"],
            n_shards=spec["n_shards"],
            boundaries=spec.get("boundaries"),
        )
    raise ValueError(f"unknown partitioner spec type {kind!r}")
