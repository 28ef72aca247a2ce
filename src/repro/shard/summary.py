"""Per-shard attribute summaries consumed by the shard router.

A :class:`ShardSummary` is the small, query-independent digest of one
shard's :class:`~repro.attributes.table.AttributeTable` that lets the
router answer two questions without touching the shard:

- *can this predicate match anything here?* — answered soundly from
  numeric min/max, exhaustive small-domain value counts, and a keyword
  Bloom digest (false positives allowed, false negatives impossible, so
  a "no" is a proof);
- *roughly how selective is it locally?* — answered from equi-width
  histograms and keyword document frequencies, the same statistics
  machinery as :mod:`repro.predicates.selectivity`.

Summaries are JSON-serializable (:meth:`ShardSummary.to_dict`) so the
sharded index archive can carry them verbatim.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.attributes.table import AttributeTable, ColumnKind


class KeywordDigest:
    """Bloom-style bitset over a shard's keyword vocabulary.

    Membership is one-sided: :meth:`might_contain` never returns False
    for a keyword the shard holds (hashing is deterministic across
    processes — blake2b, not Python's salted ``hash``), so the router
    may prune on a miss.  A hit only means "possibly present".

    Args:
        bits: the digest bitset (bool array of power-of-two-free,
            positive length).
    """

    N_BITS = 2048
    N_HASHES = 2

    def __init__(self, bits: np.ndarray) -> None:
        self.bits = np.asarray(bits, dtype=bool)
        if self.bits.size == 0:
            raise ValueError("digest needs at least one bit")

    @staticmethod
    def _positions(keyword: str, n_bits: int) -> list[int]:
        raw = hashlib.blake2b(keyword.encode("utf-8"), digest_size=16).digest()
        return [
            int.from_bytes(raw[off : off + 8], "little") % n_bits
            for off in (0, 8)
        ][: KeywordDigest.N_HASHES]

    @classmethod
    def build(cls, keywords, n_bits: int = N_BITS) -> "KeywordDigest":
        """Digest an iterable of keywords into an ``n_bits``-wide filter."""
        bits = np.zeros(n_bits, dtype=bool)
        for keyword in keywords:
            bits[cls._positions(keyword, n_bits)] = True
        return cls(bits)

    def might_contain(self, keyword: str) -> bool:
        """False ⇒ provably absent; True ⇒ possibly present."""
        return bool(self.bits[self._positions(keyword, self.bits.size)].all())

    def to_hex(self) -> str:
        """The bitset packed into a hex string (for the archive)."""
        return np.packbits(self.bits).tobytes().hex()

    @classmethod
    def from_hex(cls, hex_bits: str, n_bits: int) -> "KeywordDigest":
        """Rebuild a digest from :meth:`to_hex` output."""
        packed = np.frombuffer(bytes.fromhex(hex_bits), dtype=np.uint8)
        return cls(np.unpackbits(packed)[:n_bits].astype(bool))


@dataclasses.dataclass
class NumericSummary:
    """Digest of one int/float column within a shard.

    Attributes:
        min: smallest value present (``nan`` for an empty shard).
        max: largest value present (``nan`` for an empty shard).
        value_counts: exhaustive ``value -> count`` map when the shard's
            distinct-value count fits the budget, else None.  When
            present it is *complete*: a value absent from the map is
            provably absent from the shard.
        hist_counts: equi-width histogram bucket counts.
        hist_edges: the matching ``len(hist_counts) + 1`` bucket edges.
    """

    min: float
    max: float
    value_counts: dict[float, int] | None
    hist_counts: np.ndarray
    hist_edges: np.ndarray

    def mass_between(self, low: float, high: float) -> float:
        """Estimated fraction of rows with value in ``[low, high]``
        (uniformity assumed within a histogram bucket)."""
        total = self.hist_counts.sum()
        if total == 0:
            return 0.0
        if self.value_counts is not None:
            hits = sum(
                count for value, count in self.value_counts.items()
                if low <= value <= high
            )
            return float(hits) / float(total)
        mass = 0.0
        for i in range(self.hist_counts.shape[0]):
            left, right = self.hist_edges[i], self.hist_edges[i + 1]
            width = right - left
            lo, hi = max(left, low), min(right, high)
            if hi < lo:
                continue
            mass += self.hist_counts[i] * (1.0 if width <= 0 else (hi - lo) / width)
        return float(mass / total)

    def point_estimate(self, value: float) -> float:
        """Estimated selectivity of equality with ``value``."""
        total = self.hist_counts.sum()
        if total == 0:
            return 0.0
        if self.value_counts is not None:
            return float(self.value_counts.get(float(value), 0)) / float(total)
        if value < self.hist_edges[0] or value > self.hist_edges[-1]:
            return 0.0
        bucket = int(np.clip(
            np.searchsorted(self.hist_edges, value, side="right") - 1,
            0, self.hist_counts.shape[0] - 1,
        ))
        width = self.hist_edges[bucket + 1] - self.hist_edges[bucket]
        fraction = 1.0 if width <= 1.0 else 1.0 / width
        return float(self.hist_counts[bucket] * fraction / total)


@dataclasses.dataclass
class KeywordSummary:
    """Digest of one keywords column within a shard.

    Attributes:
        digest: Bloom bitset over the shard's keyword vocabulary.
        n_distinct: distinct keywords in the shard.
        mean_doc_frequency: mean fraction of shard rows containing a
            given present keyword — the router's per-keyword
            selectivity prior.
    """

    digest: KeywordDigest
    n_distinct: int
    mean_doc_frequency: float


@dataclasses.dataclass
class ShardSummary:
    """Everything the router knows about one shard without probing it.

    Attributes:
        n_rows: rows in the shard (0 ⇒ every predicate is empty here).
        numeric: per-column :class:`NumericSummary` for int/float
            columns.
        keywords: per-column :class:`KeywordSummary` for keywords
            columns.
    """

    n_rows: int
    numeric: dict[str, NumericSummary]
    keywords: dict[str, KeywordSummary]

    def to_dict(self) -> dict:
        """The summary as a JSON-serializable dict (archive payload)."""
        return {
            "n_rows": self.n_rows,
            "numeric": {
                name: {
                    "min": s.min,
                    "max": s.max,
                    "value_counts": (
                        None if s.value_counts is None
                        else {repr(k): v for k, v in s.value_counts.items()}
                    ),
                    "hist_counts": s.hist_counts.tolist(),
                    "hist_edges": s.hist_edges.tolist(),
                }
                for name, s in self.numeric.items()
            },
            "keywords": {
                name: {
                    "digest": s.digest.to_hex(),
                    "n_bits": int(s.digest.bits.size),
                    "n_distinct": s.n_distinct,
                    "mean_doc_frequency": s.mean_doc_frequency,
                }
                for name, s in self.keywords.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardSummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        numeric = {
            name: NumericSummary(
                min=float(entry["min"]),
                max=float(entry["max"]),
                value_counts=(
                    None if entry["value_counts"] is None
                    else {float(k): int(v)
                          for k, v in entry["value_counts"].items()}
                ),
                hist_counts=np.asarray(entry["hist_counts"], dtype=np.float64),
                hist_edges=np.asarray(entry["hist_edges"], dtype=np.float64),
            )
            for name, entry in payload["numeric"].items()
        }
        keywords = {
            name: KeywordSummary(
                digest=KeywordDigest.from_hex(entry["digest"], entry["n_bits"]),
                n_distinct=int(entry["n_distinct"]),
                mean_doc_frequency=float(entry["mean_doc_frequency"]),
            )
            for name, entry in payload["keywords"].items()
        }
        return cls(n_rows=int(payload["n_rows"]), numeric=numeric,
                   keywords=keywords)


def summarize_table(
    table: AttributeTable,
    n_buckets: int = 32,
    max_counted_values: int = 64,
) -> ShardSummary:
    """Digest one (shard-local) attribute table into a :class:`ShardSummary`.

    Args:
        table: the shard's attribute table.
        n_buckets: equi-width histogram resolution for numeric columns.
        max_counted_values: keep exhaustive value counts for numeric
            columns with at most this many distinct values (exact
            equality pruning/estimation); larger domains fall back to
            the histogram alone.
    """
    numeric: dict[str, NumericSummary] = {}
    keywords: dict[str, KeywordSummary] = {}
    for name in table.column_names:
        kind = table.column_kind(name)
        if kind in (ColumnKind.INT, ColumnKind.FLOAT):
            values = np.asarray(table.column(name), dtype=np.float64)
            if values.size == 0:
                numeric[name] = NumericSummary(
                    min=float("nan"), max=float("nan"), value_counts={},
                    hist_counts=np.zeros(1), hist_edges=np.zeros(2),
                )
                continue
            uniques, counts = np.unique(values, return_counts=True)
            value_counts = (
                {float(u): int(c) for u, c in zip(uniques, counts)}
                if uniques.shape[0] <= max_counted_values else None
            )
            hist_counts, hist_edges = np.histogram(values, bins=n_buckets)
            numeric[name] = NumericSummary(
                min=float(values.min()), max=float(values.max()),
                value_counts=value_counts,
                hist_counts=hist_counts.astype(np.float64),
                hist_edges=hist_edges,
            )
        elif kind is ColumnKind.KEYWORDS:
            column = table.column(name)
            n_distinct = len(column.vocab)
            if len(table) and n_distinct:
                rows_per_keyword = column.tokens.shape[0] / n_distinct
                mean_df = min(1.0, rows_per_keyword / len(table))
            else:
                mean_df = 0.0
            keywords[name] = KeywordSummary(
                digest=KeywordDigest.build(column.vocab),
                n_distinct=n_distinct,
                mean_doc_frequency=mean_df,
            )
    return ShardSummary(n_rows=len(table), numeric=numeric, keywords=keywords)
