"""Quantized code mirror of a :class:`~repro.vectors.store.VectorStore`.

The traversal hot path is memory-bandwidth-bound: every graph hop
gathers full float32 rows just to rank candidates whose final distances
are recomputed exactly anyway.  This module keeps a contiguous uint8
code array (SQ8 or PQ) aligned row-for-row with the float store and
serves *asymmetric* distances from it — the query stays float32, the
base side is read as codes — so the level-0 walk touches 4x (SQ8) to
``dim/n_subspaces``x (PQ) less base memory per hop.  (At the dims this
repo runs, the walk is bound by Python per hop, not by memory: the
codes measure slower than float32 there — ``docs/quantization.md``.)

Distances are decode-free:

- **SQ8** expands ``||c·scale + min − q||²`` into a per-row constant
  (``row_sq``, precomputed at encode time), one uint8-gather GEMV
  against a per-query vector, and a per-query constant.  ``ip`` and
  ``cosine`` reduce to the same gather-GEMV with different constants.
- **PQ** builds one ADC lookup table per query
  (:meth:`~repro.vectors.quantization.ProductQuantizer.lookup_table`)
  and ranks candidates by a table gather — no float rows touched.

Quantized evaluations are counted on the computer's own ``count``
(surfaced as ``SearchResult.quantized_distances``), never on the exact
:class:`~repro.vectors.distance.DistanceComputer`, so the paper's
distance-computation measure keeps meaning "exact float32 evaluations".

The codes persist alongside the floats (see :mod:`repro.persistence`);
:func:`codes_checksum` fingerprints the code bytes so a corrupt archive
names the broken artifact instead of silently serving garbage ranks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

from repro.vectors.distance import Metric, resolve_metric
from repro.vectors.quantization import ProductQuantizer, ScalarQuantizer

QUANT_KINDS = ("sq8", "pq")

#: Default exact-rerank multiplier: the float32 tail re-scores
#: ``rerank_factor * k`` quantized candidates before the final top-k.
DEFAULT_RERANK_FACTOR = 3.0


@dataclasses.dataclass(frozen=True)
class QuantizationConfig:
    """How an index quantizes its traversal distances.

    Attributes:
        kind: ``"sq8"`` (per-dimension affine uint8) or ``"pq"``
            (product quantization with per-query ADC tables).
        rerank_factor: exact-rerank budget as a multiple of ``k``; the
            float32 tail re-scores ``max(k, ceil(rerank_factor * k))``
            candidates.  Must be >= 1.0 (the tail may never return
            unreranked distances).
        pq_subspaces: PQ subspace count (must divide ``dim``).
        pq_centroids: PQ codewords per subspace (<= 256).
        pq_iters: k-means iterations when training PQ codebooks.
        train_seed: codec training seed (PQ k-means).
    """

    kind: str = "sq8"
    rerank_factor: float = DEFAULT_RERANK_FACTOR
    pq_subspaces: int = 8
    pq_centroids: int = 256
    pq_iters: int = 8
    train_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in QUANT_KINDS:
            raise ValueError(
                f"unknown quantization kind {self.kind!r}; "
                f"choose from {QUANT_KINDS}"
            )
        if self.rerank_factor < 1.0:
            raise ValueError(
                f"rerank_factor must be >= 1.0, got {self.rerank_factor}"
            )

    def to_json(self) -> str:
        """Serialize for the persistence layer."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "QuantizationConfig":
        """Inverse of :meth:`to_json`."""
        return cls(**json.loads(payload))


def resolve_quantization(spec) -> QuantizationConfig | None:
    """Normalize a ``quantization=`` argument.

    Accepts None (float32 path, the default), a kind string
    (``"sq8"``/``"pq"``), a config dict, or a ready
    :class:`QuantizationConfig`.
    """
    if spec is None:
        return None
    if isinstance(spec, QuantizationConfig):
        return spec
    if isinstance(spec, str):
        return QuantizationConfig(kind=spec)
    if isinstance(spec, dict):
        return QuantizationConfig(**spec)
    raise TypeError(
        "quantization must be None, a kind string, a dict, or a "
        f"QuantizationConfig; got {type(spec).__name__}"
    )


def rerank_budget(k: int, rerank_factor: float) -> int:
    """Candidates the exact tail re-scores for one query."""
    return max(int(k), int(math.ceil(rerank_factor * k)))


def codes_checksum(codes: np.ndarray) -> str:
    """sha256 fingerprint of a code array's bytes (shape-sensitive)."""
    digest = hashlib.sha256()
    digest.update(str(codes.shape).encode())
    digest.update(np.ascontiguousarray(codes).tobytes())
    return digest.hexdigest()


class QuantizedStore:
    """Contiguous codes + per-metric auxiliaries for one vector store.

    Lifecycle: :meth:`train` fits the codec once (on the build-time
    vector set), then :meth:`sync` encodes any float rows added since —
    the codec itself stays frozen so already-stored codes never shift.
    """

    def __init__(
        self, config: QuantizationConfig, metric: "Metric | str"
    ) -> None:
        self.config = config
        self.metric = resolve_metric(metric)
        self.codec: ScalarQuantizer | ProductQuantizer | None = None
        self.codes: np.ndarray | None = None
        # Per-row auxiliaries (parallel to ``codes``):
        #   _row_sq   SQ8+L2: ||scale * c||² per row.
        #   _row_norm cosine: ||decoded row|| per row (either codec).
        self._row_sq: np.ndarray | None = None
        self._row_norm: np.ndarray | None = None

    def __len__(self) -> int:
        return 0 if self.codes is None else int(self.codes.shape[0])

    @property
    def kind(self) -> str:
        """The codec kind (``sq8`` or ``pq``)."""
        return self.config.kind

    @property
    def trained(self) -> bool:
        """Whether the codec has been fitted."""
        return self.codec is not None

    # ------------------------------------------------------------------
    # Training / encoding
    # ------------------------------------------------------------------

    def train(self, vectors: np.ndarray) -> None:
        """Fit the codec on ``vectors`` (idempotent once trained)."""
        if self.codec is not None:
            return
        vectors = np.asarray(vectors, dtype=np.float32)
        if self.config.kind == "sq8":
            self.codec = ScalarQuantizer(vectors)
        else:
            self.codec = ProductQuantizer(
                vectors,
                n_subspaces=min(self.config.pq_subspaces, vectors.shape[1]),
                n_centroids=min(self.config.pq_centroids,
                                max(vectors.shape[0], 1)),
                n_iter=self.config.pq_iters,
                seed=self.config.train_seed,
            )

    def sync(self, store) -> None:
        """Encode float rows added to ``store`` since the last sync.

        The codec must already be trained; appended rows are encoded
        with the *frozen* codec so existing codes stay byte-stable.
        """
        if self.codec is None:
            raise RuntimeError("QuantizedStore.sync before train()")
        total = len(store)
        have = len(self)
        if have >= total:
            return
        fresh = store.vectors[have:total]
        self._append(self.codec.encode(fresh))

    def _append(self, new_codes: np.ndarray) -> None:
        if self.codes is None:
            self.codes = new_codes
        else:
            self.codes = np.concatenate([self.codes, new_codes])
        decoded = self.codec.decode(new_codes)
        if self.config.kind == "sq8" and self.metric is Metric.L2:
            scaled = new_codes.astype(np.float32) * self.codec.scale
            row_sq = np.einsum("ij,ij->i", scaled, scaled)
            self._row_sq = (row_sq if self._row_sq is None
                            else np.concatenate([self._row_sq, row_sq]))
        if self.metric is Metric.COSINE:
            norms = np.linalg.norm(decoded, axis=1).astype(np.float32)
            self._row_norm = (norms if self._row_norm is None
                              else np.concatenate([self._row_norm, norms]))

    # ------------------------------------------------------------------
    # Distance computation
    # ------------------------------------------------------------------

    def computer(self) -> "QuantizedComputer":
        """A per-query asymmetric distance computer over current codes."""
        if self.codec is None or self.codes is None:
            raise RuntimeError("QuantizedStore has no codes; train + sync")
        return QuantizedComputer(self)

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        """Bytes held by the code array (the auxiliary rows excluded)."""
        return 0 if self.codes is None else int(self.codes.nbytes)

    def checksum(self) -> str:
        """Fingerprint of the current code array."""
        if self.codes is None:
            raise RuntimeError("QuantizedStore has no codes to checksum")
        return codes_checksum(self.codes)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Codec + code arrays for the npz persistence payload.

        Auxiliary per-row arrays are recomputed on load (cheap and
        deterministic), so only the codec parameters and the codes
        themselves are shipped.
        """
        if self.codec is None or self.codes is None:
            raise RuntimeError("QuantizedStore has no codes to persist")
        out = {"quant_codes": self.codes}
        if self.config.kind == "sq8":
            out["quant_sq_min"] = self.codec.min
            out["quant_sq_scale"] = self.codec.scale
        else:
            out["quant_pq_codebooks"] = np.stack(self.codec.codebooks)
        return out

    @classmethod
    def from_state(
        cls,
        config: QuantizationConfig,
        metric: "Metric | str",
        arrays: dict[str, np.ndarray],
    ) -> "QuantizedStore":
        """Rebuild a store from :meth:`state_arrays` output."""
        qs = cls(config, metric)
        if config.kind == "sq8":
            codec = ScalarQuantizer.__new__(ScalarQuantizer)
            codec.min = np.asarray(arrays["quant_sq_min"], dtype=np.float32)
            codec.scale = np.asarray(arrays["quant_sq_scale"],
                                     dtype=np.float32)
            codec.dim = int(codec.min.shape[0])
        else:
            books = np.asarray(arrays["quant_pq_codebooks"], dtype=np.float32)
            codec = ProductQuantizer.__new__(ProductQuantizer)
            codec.n_subspaces = int(books.shape[0])
            codec.sub_dim = int(books.shape[2])
            codec.dim = codec.n_subspaces * codec.sub_dim
            codec.codebooks = [books[sub] for sub in range(books.shape[0])]
        qs.codec = codec
        codes = np.asarray(arrays["quant_codes"], dtype=np.uint8)
        if codes.size:
            qs._append(codes)
        return qs


def _pq_dot_table(codec: ProductQuantizer, query: np.ndarray) -> np.ndarray:
    """Per-subspace codeword-dot-query table (ip/cosine analogue of ADC)."""
    query = np.asarray(query, dtype=np.float32).reshape(-1)
    table = np.empty(
        (codec.n_subspaces, codec.codebooks[0].shape[0]), dtype=np.float32
    )
    for sub, codebook in enumerate(codec.codebooks):
        q_block = query[sub * codec.sub_dim:(sub + 1) * codec.sub_dim]
        table[sub] = codebook @ q_block
    return table


class QuantizedComputer:
    """Asymmetric distances from one query to stored codes, counted.

    The distance provider of a quantized level-0 walk: it duck-types
    :meth:`DistanceComputer.distances_to`, so
    :func:`~repro.hnsw.traversal.search_frozen_level` (and its
    ``search_layer`` fallback) rank by codes without knowing it.  It
    keeps its own evaluation counter — quantized evaluations are
    reported separately (``SearchResult.quantized_distances``) from
    exact float32 computations.
    """

    __slots__ = ("_store", "_codes", "_metric", "_kind", "count", "_query",
                 "_w", "_qconst", "_qnorm", "_table", "_sub_range")

    def __init__(self, store: QuantizedStore) -> None:
        self._store = store
        self._codes = store.codes
        self._metric = store.metric
        self._kind = store.config.kind
        self.count = 0
        self._query = None
        self._w = None
        self._qconst = 0.0
        self._qnorm = 0.0
        self._table = None
        self._sub_range = None

    def _bind(self, query: np.ndarray) -> None:
        """Precompute the per-query state (SQ8 weights, PQ table)."""
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        codec = self._store.codec
        if self._kind == "sq8":
            if self._metric is Metric.L2:
                shifted = query - codec.min
                self._w = shifted * codec.scale
                self._qconst = float(shifted @ shifted)
            else:
                self._w = query * codec.scale
                self._qconst = float(codec.min @ query)
                self._qnorm = float(np.linalg.norm(query))
        else:
            if self._metric is Metric.L2:
                self._table = codec.lookup_table(query)
            else:
                self._table = _pq_dot_table(codec, query)
                self._qnorm = float(np.linalg.norm(query))
            self._sub_range = np.arange(codec.n_subspaces)

    def distances_to(self, query: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Quantized distances from ``query`` to code rows ``ids`` (counted).

        The per-query state is derived on the first call with a given
        query object and reused while the walk keeps passing it.
        """
        if query is not self._query:
            self._bind(query)
            self._query = query
        ids = np.asarray(ids)
        self.count += int(ids.size)
        if ids.size == 0:
            return np.empty(0, dtype=np.float32)
        if self._kind == "sq8":
            rows = self._codes[ids].astype(np.float32)
            cross = rows @ self._w
            if self._metric is Metric.L2:
                out = self._store._row_sq[ids] - 2.0 * cross + self._qconst
                return np.maximum(out, 0.0)
            dot = cross + self._qconst
            if self._metric is Metric.INNER_PRODUCT:
                return -dot
            denom = np.maximum(self._store._row_norm[ids] * self._qnorm,
                               np.finfo(np.float32).tiny)
            return 1.0 - dot / denom
        gathered = self._table[self._sub_range, self._codes[ids]].sum(axis=1)
        if self._metric is Metric.L2:
            return gathered
        if self._metric is Metric.INNER_PRODUCT:
            return -gathered
        denom = np.maximum(self._store._row_norm[ids] * self._qnorm,
                           np.finfo(np.float32).tiny)
        return 1.0 - gathered / denom
