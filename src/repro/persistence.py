"""One index image: the file ``save_index`` writes and the block workers map.

A built index must outlive its process (construction is the expensive
step) and reach the process executor's workers.  Both go through one
encoder and one decoder.  :func:`encode_index` turns an HNSW or
ACORN-family index, a :class:`~repro.shard.sharded.ShardedAcornIndex`
or a :class:`~repro.lifecycle.manager.LifecycleIndex` into a JSON
``meta`` dict (kind, parameters, metric, entry point, level-stream
state, string columns, keyword vocabularies) and named numeric arrays:
float32 vectors, ``node_levels``, each level's frozen CSR exactly as
``freeze()`` returns it (``L{l}.indptr`` / ``.indices`` /
``.node_ids``, int32), per-edge distances in CSR order (``L{l}.dists``,
float32 — every distance is computed in float32), tombstones, labels
and the table's numeric and keyword columns.  A composite stores its
parts' arrays under a prefix (``shard{s}.``, ``table.``, ``base.``,
``delta.``) and their meta nested in its own.

:func:`image_layout` lays an image out — a header (magic, manifest
length, the manifest's sha256), a JSON manifest (format version, meta,
a name / offset / shape / dtype / sha256 entry per array), then the
arrays at 64-byte-aligned offsets — for :func:`save_index`'s file and
:class:`~repro.parallel.arena.SnapshotArena`'s shared block alike.
:func:`read_image` checks every sha256 and admits only numeric and bool
dtypes (nothing is unpickled); :func:`decode_index` builds the index
through its class's ``__init__`` over the read-only views, wrapping
the vectors and installing the stored CSR as the frozen snapshot
after validating it (the search kernel reads it as it is).  Every load
failure raises :class:`ArchiveError` naming the file (or arena) and,
where there is one, the member.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import threading
import warnings
from pathlib import Path

import numpy as np

from repro.attributes.table import AttributeTable, ColumnKind, concat_tables
from repro.core.acorn import AcornIndex, AcornOneIndex
from repro.core.flat import FlatAcornIndex
from repro.core.params import AcornParams, PruningStrategy
from repro.core.search import FrozenLevel
from repro.hnsw.graph import LayeredGraph, csr_rows
from repro.hnsw.hnsw import HnswIndex
from repro.hnsw.levels import LevelGenerator
from repro.lifecycle.manager import LifecycleConfig, LifecycleIndex
from repro.shard.partition import ShardAssignment, partitioner_from_spec
from repro.shard.sharded import ShardedAcornIndex
from repro.vectors.store import VectorStore

_FORMAT_VERSION = 2
_MAGIC = b"ACORNIMG"
#: magic, manifest length in bytes, sha256 of the manifest
_HEADER = struct.Struct("<8sQ32s")
_ALIGN = 64
#: The only dtypes an image holds: numbers and bools, never objects.
_DTYPES = frozenset(np.dtype(t).str for t in (
    np.bool_, np.int32, np.int64, np.float32, np.float64))
_GRAPH_KINDS = {"hnsw": HnswIndex, "acorn": AcornIndex,
                "acorn1": AcornOneIndex, "acorn-flat": FlatAcornIndex}


class ArchiveError(ValueError):
    """An index image cannot be loaded.

    The message names the file (or arena) and, where one is at fault,
    the member; the index is never partially returned.
    """


# ----------------------------------------------------------------------
# Canonical arrays
# ----------------------------------------------------------------------

#: Arrays copied into canonical (C-contiguous, declared-dtype) form at
#: encode time, by role name.  A correctness backstop that is expected
#: to stay empty: every producer in the library already emits canonical
#: arrays, and each role warns at most once per process.
COPY_FIXUPS: dict[str, int] = {}

_WARNED: set[str] = set()
_FIXUP_LOCK = threading.Lock()


def reset_fixup_counters() -> None:
    """Clear the encode-time copy counters (test isolation hook)."""
    with _FIXUP_LOCK:
        COPY_FIXUPS.clear()
        _WARNED.clear()


def canonical_array(name: str, array: np.ndarray, dtype=None) -> np.ndarray:
    """Return ``array`` as C-contiguous with the declared dtype.

    The no-copy path is the contract; a violation (wrong dtype, Fortran
    order, or a strided view) is repaired with one copy, counted in
    :data:`COPY_FIXUPS` and warned once per role so the producer can be
    fixed at the source.
    """
    array = np.asarray(array)
    want = array.dtype if dtype is None else np.dtype(dtype)
    if array.dtype == want and array.flags.c_contiguous:
        return array
    with _FIXUP_LOCK:
        COPY_FIXUPS[name] = COPY_FIXUPS.get(name, 0) + 1
        first = name not in _WARNED
        _WARNED.add(name)
    if first:
        warnings.warn(
            f"snapshot array {name!r} was {array.dtype}/"
            f"{'C' if array.flags.c_contiguous else 'non-contiguous'} "
            f"instead of {want}/C-contiguous; copied once at freeze "
            "time — fix the producer to avoid the copy",
            RuntimeWarning,
            stacklevel=2,
        )
    return np.ascontiguousarray(array, dtype=want)


# ----------------------------------------------------------------------
# The container
# ----------------------------------------------------------------------

def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def image_layout(meta: dict, arrays: dict[str, np.ndarray]):
    """The image of ``meta`` and ``arrays``.

    Returns ``(size, pieces)``: the image's length in bytes and the
    ``(offset, uint8 array)`` pieces that fill it, header and manifest
    first; the bytes between pieces are zero.
    """
    entries, pieces, offset = [], [], 0
    for name, array in arrays.items():
        if array.dtype.str not in _DTYPES:
            raise TypeError(f"array {name!r} has dtype {array.dtype}; an "
                            "index image holds only numbers and bools")
        raw = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
        offset = _aligned(offset)
        entries.append({
            "name": name, "offset": offset, "shape": list(array.shape),
            "dtype": array.dtype.str,
            "sha256": hashlib.sha256(raw).hexdigest(),
        })
        pieces.append((offset, raw))
        offset += raw.size
    manifest = json.dumps({"format_version": _FORMAT_VERSION, "meta": meta,
                           "arrays": entries}).encode()
    head = _HEADER.pack(_MAGIC, len(manifest),
                        hashlib.sha256(manifest).digest()) + manifest
    base = _aligned(len(head))
    return base + offset, [(0, np.frombuffer(head, dtype=np.uint8))] + [
        (base + off, raw) for off, raw in pieces
    ]


def read_image(buffer, source) -> tuple[dict, dict[str, np.ndarray]]:
    """The ``meta`` and the arrays of the image held in ``buffer``.

    Every array is checked against its sha256 and returned as a
    read-only view into ``buffer``.

    Raises:
        ArchiveError: naming ``source`` — the buffer holds a format-1
            (zip) archive, no image, another format version, or a
            manifest or array that is truncated, fails its sha256 or
            has a dtype other than a number or bool.
    """
    data = np.frombuffer(buffer, dtype=np.uint8)
    if data.size < _HEADER.size:
        raise ArchiveError(f"{source}: truncated ({data.size} bytes hold "
                           "no image header)")
    magic, length, digest = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        if data[:4].tobytes() == b"PK\x03\x04":
            raise ArchiveError(
                f"{source}: a format-1 (zip) archive; this version reads "
                f"format {_FORMAT_VERSION} images only — re-save the index"
            )
        raise ArchiveError(f"{source}: not an index image")
    end = _HEADER.size + length
    if end > data.size:
        raise ArchiveError(f"{source}: truncated inside the manifest")
    text = data[_HEADER.size:end].tobytes()
    if hashlib.sha256(text).digest() != digest:
        raise ArchiveError(f"{source}: the manifest failed its sha256 check")
    try:
        manifest = json.loads(text)
        version = manifest["format_version"]
        if version != _FORMAT_VERSION:
            raise ArchiveError(
                f"{source}: holds index format version {version} "
                f"(expected {_FORMAT_VERSION})")
        base = _aligned(end)
        arrays = {}
        for entry in manifest["arrays"]:
            name, dtype = entry["name"], entry["dtype"]
            if dtype not in _DTYPES:
                raise ArchiveError(f"{source}: member {name!r} has dtype "
                                   f"{dtype!r}, not a number or bool")
            shape = tuple(int(dim) for dim in entry["shape"])
            start = base + int(entry["offset"])
            stop = start + int(np.prod(shape)) * np.dtype(dtype).itemsize
            if not base <= start <= stop <= data.size:
                raise ArchiveError(f"{source}: member {name!r} is truncated")
            raw = data[start:stop]
            if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
                raise ArchiveError(
                    f"{source}: member {name!r} failed its sha256 check")
            array = raw.view(dtype).reshape(shape)
            array.flags.writeable = False
            arrays[name] = array
        return manifest["meta"], arrays
    except ArchiveError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ArchiveError(
            f"{source}: the manifest is malformed ({exc!r})") from exc


# ----------------------------------------------------------------------
# Encoder
# ----------------------------------------------------------------------

def _encode_table(table: AttributeTable, prefix: str, arrays: dict) -> dict:
    columns = []
    for i, name in enumerate(table.column_names):
        kind, column = table.column_kind(name), table.column(name)
        entry = {"name": name, "kind": kind.value}
        if kind is ColumnKind.KEYWORDS:
            entry["vocab"] = column.words
            arrays[f"{prefix}col{i}.offsets"] = column.offsets
            arrays[f"{prefix}col{i}.tokens"] = column.tokens
        elif kind is ColumnKind.STRING:
            entry["values"] = [str(value) for value in column]
        else:
            arrays[f"{prefix}col{i}"] = column
        columns.append(entry)
    return {"rows": len(table), "columns": columns}


def _encode_graph(index, prefix: str, arrays: dict) -> dict:
    frozen = index.freeze()
    n = len(index.store)
    arrays[prefix + "vectors"] = canonical_array(
        "vectors", index.store.vectors, dtype=np.float32)
    node_levels = np.zeros(n, dtype=np.int32)
    for level, csr in enumerate(frozen[1:], 1):
        node_levels[csr.node_ids] = level
    arrays[prefix + "node_levels"] = node_levels
    acorn = isinstance(index, AcornIndex)
    for level, csr in enumerate(frozen):
        for part in ("indptr", "indices", "node_ids"):
            name = f"L{level}.{part}"
            arrays[prefix + name] = canonical_array(
                name, getattr(csr, part), dtype=np.int32)
        if acorn:
            arrays[f"{prefix}L{level}.dists"] = (
                index._csr_edge_dists(level, csr))
    meta = {
        # Subclasses first: ACORN-1 and flat are AcornIndex subclasses.
        "kind": next(kind for kind, cls in reversed(_GRAPH_KINDS.items())
                     if isinstance(index, cls)),
        "metric": index.store.metric.value,
        "dim": index.store.dim,
        "entry_point": index.graph.entry_point,
        "levels": len(frozen),
        "level_rng": (index._levels.state
                      if isinstance(index._levels, LevelGenerator) else None),
    }
    if not acorn:
        meta["params"] = {"m": index.m,
                          "ef_construction": index.ef_construction}
        return meta
    p = index.params
    meta["params"] = {**dataclasses.asdict(p), "pruning": p.pruning.value}
    arrays[prefix + "deleted"] = np.asarray(sorted(index._deleted),
                                            dtype=np.int64)
    if index._labels is not None:
        arrays[prefix + "labels"] = np.asarray(index._labels, dtype=np.int64)
    meta["table"] = _encode_table(index.table, prefix + "table.", arrays)
    return meta


def _encode_sharded(index: ShardedAcornIndex, arrays: dict) -> dict:
    arrays["shard_of"] = index.assignment.shard_of
    return {
        "kind": "sharded",
        "partitioner": index.partitioner.spec(),
        "shards": [_encode_graph(shard, f"shard{s}.", arrays)
                   for s, shard in enumerate(index.shards)],
        "table": _encode_table(index.table, "table.", arrays),
    }


def _encode_lifecycle(lifecycle: LifecycleIndex, arrays: dict) -> dict:
    """The lifecycle's write-side state, captured under its writer lock:
    every un-compacted delta row (sealed segments first, then the active
    buffer — external-id order) and the tombstones."""
    with lifecycle._lock:
        base = lifecycle._base
        views = [s.freeze() for s in (*lifecycle._sealed, lifecycle._delta)]
        meta = {
            "kind": "lifecycle",
            "epoch": lifecycle._published.epoch,
            "next_external_id": lifecycle._next_external_id,
            "config": dataclasses.asdict(lifecycle.config),
        }
        arrays["base_ids"] = np.array(lifecycle._base_ids, dtype=np.int64)
        arrays["tombstones"] = np.asarray(sorted(lifecycle._tombstones),
                                          dtype=np.int64)
    arrays["delta_ids"] = np.concatenate([v.external_ids for v in views])
    arrays["delta_vectors"] = np.concatenate([v.vectors for v in views])
    meta["delta"] = _encode_table(
        concat_tables([(v.table, np.arange(len(v))) for v in views]),
        "delta.", arrays)
    meta["base"] = _encode_graph(base, "base.", arrays)
    return meta


def encode_index(index) -> tuple[dict, dict[str, np.ndarray]]:
    """The ``(meta, arrays)`` image of ``index`` (see the module doc).

    Raises:
        TypeError: for anything but an HNSW or ACORN-family index, a
            sharded index or a lifecycle.
    """
    arrays: dict[str, np.ndarray] = {}
    if isinstance(index, ShardedAcornIndex):
        meta = _encode_sharded(index, arrays)
    elif isinstance(index, LifecycleIndex):
        meta = _encode_lifecycle(index, arrays)
    elif isinstance(index, (AcornIndex, HnswIndex)):
        meta = _encode_graph(index, "", arrays)
    else:
        raise TypeError(f"cannot serialize index of type {type(index).__name__}")
    return meta, arrays


# ----------------------------------------------------------------------
# Decoder
# ----------------------------------------------------------------------

class _Reader:
    """An image's arrays under ``prefix``; every fault is an
    :class:`ArchiveError` naming the source and the member."""

    def __init__(self, arrays, source, prefix: str = "") -> None:
        self.arrays = arrays
        self.source = source
        self.prefix = prefix

    def sub(self, prefix: str) -> "_Reader":
        return _Reader(self.arrays, self.source, self.prefix + prefix)

    def __contains__(self, name: str) -> bool:
        return self.prefix + name in self.arrays

    def check(self, ok, name: str, problem: str) -> None:
        if not ok:
            raise ArchiveError(
                f"{self.source}: member {self.prefix + name!r} {problem}")

    def get(self, name: str, dtype, ndim: int = 1) -> np.ndarray:
        array = self.arrays.get(self.prefix + name)
        self.check(array is not None, name, "is missing")
        self.check(array.dtype == dtype and array.ndim == ndim, name,
                   f"is {array.dtype}{list(array.shape)}, expected a "
                   f"{ndim}-d {np.dtype(dtype)} array")
        return array


def _decode_table(meta: dict, image: _Reader) -> AttributeTable:
    table = AttributeTable(int(meta["rows"]))
    for i, entry in enumerate(meta["columns"]):
        kind, name = ColumnKind(entry["kind"]), entry["name"]
        if kind is ColumnKind.INT:
            table.add_int_column(name, image.get(f"col{i}", np.int64))
        elif kind is ColumnKind.FLOAT:
            table.add_float_column(name, image.get(f"col{i}", np.float64))
        elif kind is ColumnKind.STRING:
            table.add_string_column(name, entry["values"])
        else:
            words = entry["vocab"]
            offsets = image.get(f"col{i}.offsets", np.int64)
            tokens = image.get(f"col{i}.tokens", np.int64)
            image.check(
                offsets.shape == (len(table) + 1,) and offsets[0] == 0
                and offsets[-1] == tokens.size and (np.diff(offsets) >= 0).all(),
                f"col{i}.offsets",
                f"does not delimit {len(table)} rows of {tokens.size} tokens",
            )
            image.check(
                len(set(words)) == len(words) and (tokens >= 0).all()
                and (tokens < len(words)).all(),
                f"col{i}.tokens", f"is not over a vocabulary of {len(words)}",
            )
            table.add_keywords_csr(name, words, offsets, tokens)
    return table


def _check_csr(image: _Reader, level: int, node_levels: np.ndarray,
               indptr: np.ndarray, indices: np.ndarray,
               node_ids: np.ndarray) -> None:
    """The frozen CSR of ``level`` is one the search kernel can read."""
    n = node_levels.size
    name = f"L{level}."
    image.check(indptr.shape == (n + 1,), name + "indptr",
                f"has {indptr.size} entries for {n} nodes")
    image.check(indptr[0] == 0 and indptr[-1] == indices.size
                and (np.diff(indptr) >= 0).all(), name + "indptr",
                f"is not a non-decreasing index over {indices.size} edges")
    image.check(((indices >= 0) & (indices < n)).all(), name + "indices",
                f"holds an edge outside [0, {n})")
    image.check(np.array_equal(node_ids, np.flatnonzero(node_levels >= level)),
                name + "node_ids", "disagrees with node_levels")
    image.check(int((indptr[node_ids + 1] - indptr[node_ids]).sum())
                == indices.size, name + "indptr",
                "gives edges to nodes absent from the level")


def _decode_graph(meta: dict, image: _Reader):
    cls = _GRAPH_KINDS[meta["kind"]]
    vectors = image.get("vectors", np.float32, ndim=2)
    n = vectors.shape[0]
    node_levels = image.get("node_levels", np.int32)
    n_levels = int(meta["levels"])
    image.check(node_levels.shape == (n,) and (n == 0 or (
        node_levels.min() >= 0 and node_levels.max() == n_levels - 1)),
        "node_levels", f"does not give {n} nodes levels below {n_levels}")
    entry = int(meta["entry_point"])
    if not (0 <= entry < n or (n == 0 and entry == -1)):
        raise ArchiveError(f"{image.source}: entry point {entry} is not one "
                           f"of the {n} nodes")
    params, metric = meta["params"], meta["metric"]
    if cls is HnswIndex:
        index = HnswIndex(meta["dim"], m=params["m"],
                          ef_construction=params["ef_construction"],
                          metric=metric)
    else:
        table = _decode_table(meta["table"], image.sub("table."))
        if len(table) < n:
            raise ArchiveError(f"{image.source}: the table has {len(table)} "
                               f"rows for {n} vectors")
        p = AcornParams(**{**params,
                           "pruning": PruningStrategy(params["pruning"])})
        if cls is AcornOneIndex:
            index = cls(meta["dim"], table, m=p.m,
                        ef_construction=p.ef_construction, metric=metric)
        else:
            labels = (image.get("labels", np.int64) if "labels" in image
                      else None)
            index = cls(meta["dim"], table, params=p, metric=metric,
                        labels=labels)
    image.check(vectors.shape[1] == meta["dim"], "vectors",
                f"has dimension {vectors.shape[1]}, not {meta['dim']}")
    adjacency, frozen, dists = [], [], []
    for level in range(n_levels):
        indptr, indices, node_ids = (image.get(f"L{level}.{part}", np.int32)
                                     for part in ("indptr", "indices",
                                                  "node_ids"))
        _check_csr(image, level, node_levels, indptr, indices, node_ids)
        nodes = node_ids.tolist()
        starts, stops = indptr[node_ids], indptr[node_ids + 1]
        adjacency.append(csr_rows(nodes, indices.tolist(), starts, stops))
        frozen.append(FrozenLevel(indptr, indices, node_ids,
                                  index._level_m_beta(level)))
        if cls is not HnswIndex:
            flat = image.get(f"L{level}.dists", np.float32)
            image.check(flat.size == indices.size, f"L{level}.dists",
                        f"holds {flat.size} distances for {indices.size} "
                        "edges")
            dists.append(csr_rows(nodes, flat.tolist(), starts, stops))
    index.store = VectorStore.wrap(vectors, metric=metric)
    index.graph = LayeredGraph.from_adjacency(node_levels.tolist(),
                                              adjacency, entry)
    index._frozen = frozen
    if meta["level_rng"] is not None:
        index._levels.state = meta["level_rng"]
    if cls is not HnswIndex:
        index._edge_dists = dists
        deleted = image.get("deleted", np.int64)
        image.check(((deleted >= 0) & (deleted < n)).all(), "deleted",
                    f"holds an id outside [0, {n})")
        index._deleted = set(deleted.tolist())
    return index


def _decode_sharded(meta: dict, image: _Reader) -> ShardedAcornIndex:
    # Archives written while shards kept summaries also hold "scale_ef",
    # "min_ef" and "summaries"; pruning reads the query's mask, so
    # nothing here reads them.
    n_shards = len(meta["shards"])
    return ShardedAcornIndex(
        shards=[_decode_graph(shard, image.sub(f"shard{s}."))
                for s, shard in enumerate(meta["shards"])],
        assignment=ShardAssignment.from_shard_of(
            image.get("shard_of", np.int64), n_shards),
        partitioner=partitioner_from_spec(meta["partitioner"]),
        table=_decode_table(meta["table"], image.sub("table.")),
    )


def _decode_lifecycle(meta: dict, image: _Reader) -> LifecycleIndex:
    base = _decode_graph(meta["base"], image.sub("base."))
    base_ids = image.get("base_ids", np.int64)
    image.check(base_ids.shape[0] == len(base), "base_ids",
                f"covers {base_ids.shape[0]} nodes but the base holds "
                f"{len(base)}; the archive is inconsistent")
    delta_ids = image.get("delta_ids", np.int64)
    delta_vectors = image.get("delta_vectors", np.float32, ndim=2)
    delta = _decode_table(meta["delta"], image.sub("delta."))
    image.check(len(delta_ids) == len(delta_vectors) == len(delta),
                "delta_ids", f"holds {len(delta_ids)} ids for "
                f"{len(delta_vectors)} vectors and {len(delta)} rows; the "
                "archive is inconsistent")
    return LifecycleIndex._restore(
        base=base,
        base_ids=base_ids,
        delta_entries=[
            (ext, vector, delta.row(i)) for i, (ext, vector)
            in enumerate(zip(delta_ids.tolist(), delta_vectors))
        ],
        tombstones=set(image.get("tombstones", np.int64).tolist()),
        next_external_id=int(meta["next_external_id"]),
        epoch=int(meta["epoch"]),
        config=LifecycleConfig(**meta["config"]),
    )


def decode_index(meta: dict, arrays, source="image"):
    """The index an :func:`encode_index` image describes.

    ``arrays`` maps member names to arrays — :func:`read_image`'s
    read-only views, an arena's, or :func:`encode_index`'s own; vectors
    and the frozen CSR are used in place, never copied.

    Raises:
        ArchiveError: naming ``source`` and the member at fault — a
            missing or mistyped member, a CSR the kernel cannot read,
            or state inconsistent with the rest.
    """
    image = _Reader(arrays, source)
    try:
        kind = meta["kind"]
        if kind == "sharded":
            return _decode_sharded(meta, image)
        if kind == "lifecycle":
            return _decode_lifecycle(meta, image)
        if kind not in _GRAPH_KINDS:
            raise ArchiveError(f"{source}: names unknown index kind {kind!r}")
        return _decode_graph(meta, image)
    except ArchiveError:
        raise
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise ArchiveError(
            f"{source}: the archive is inconsistent ({exc!r})") from exc


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------

def save_index(index, path) -> None:
    """Serialize an index to exactly ``path`` as one image file.

    Takes an HNSW or ACORN-family index, a
    :class:`~repro.shard.sharded.ShardedAcornIndex` or a
    :class:`~repro.lifecycle.manager.LifecycleIndex`.  The image is
    written to a temporary file beside ``path`` and moved over it, so
    an interrupted save leaves the previous archive intact.
    """
    size, pieces = image_layout(*encode_index(index))
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "wb") as handle:
            for offset, raw in pieces:
                handle.seek(offset)
                handle.write(raw)
            handle.truncate(size)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def load_index(path):
    """Restore an index previously saved with :func:`save_index`.

    Raises:
        ArchiveError: the path is a directory, missing, a format-1 (zip)
            archive or no image, or a member is missing, fails its
            sha256, holds a CSR the kernel cannot read or is
            inconsistent with the rest.
    """
    path = Path(path)
    if path.is_dir():
        raise ArchiveError(
            f"{path} is a directory; every index saves to one file "
            "written by save_index"
        )
    try:
        data = np.fromfile(path, dtype=np.uint8)
    except OSError as exc:
        raise ArchiveError(f"{path}: cannot read the archive ({exc})") from exc
    return decode_index(*read_image(data, path), path)
