"""Save and load every persistable index as one ``.npz`` archive.

A production vector index must outlive the process that built it —
ACORN-γ construction is the expensive step, search is cheap.  This
module serializes :class:`~repro.hnsw.hnsw.HnswIndex`,
:class:`~repro.core.acorn.AcornIndex` and its ACORN-1 / flat variants
(including their attribute tables),
:class:`~repro.shard.sharded.ShardedAcornIndex` and
:class:`~repro.lifecycle.manager.LifecycleIndex` into a single
compressed numpy archive and restores them exactly: same graph, same
entry point, same parameters, the level generator's stream position
and — for the ACORN indices — the same per-edge distances and pruning
labels, so incremental insertion resumes after loading exactly where
it stopped.

A composite stores its parts' members under a prefix next to one JSON
``meta`` member: a sharded index writes ``shard{s}.*``, ``shard_of``
and ``table.*``; a lifecycle writes ``base.*``, ``base_ids``,
``delta_ids``, ``delta_vectors``, ``delta.*`` and ``tombstones``.
Integrity comes from the zip container's per-member CRC-32: every
member is read whole, so a flipped byte fails its CRC.  Every load
failure raises :class:`ArchiveError` naming the file and, where there
is one, the member.

String and keyword columns are stored as object arrays, so loading
unpickles them; only load archives you trust, the standard numpy
caveat.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.attributes.table import AttributeTable, ColumnKind, build_table
from repro.core.acorn import AcornIndex, AcornOneIndex
from repro.core.flat import FlatAcornIndex
from repro.core.params import AcornParams, PruningStrategy
from repro.hnsw.graph import LayeredGraph
from repro.hnsw.hnsw import HnswIndex
from repro.hnsw.levels import LevelGenerator
from repro.lifecycle.manager import LifecycleConfig, LifecycleIndex
from repro.shard.partition import ShardAssignment, partitioner_from_spec
from repro.shard.router import ShardRouter
from repro.shard.sharded import ShardedAcornIndex
from repro.shard.summary import ShardSummary
from repro.vectors.store import VectorStore

_FORMAT_VERSION = 1


class ArchiveError(ValueError):
    """An index archive cannot be loaded.

    The message names the file and, where one is at fault, the member;
    the index is never partially returned.
    """


class _Members:
    """The members of an open archive under ``prefix``, read whole (so
    the zip CRC-32 is checked) with every failure an
    :class:`ArchiveError` naming the file and the member."""

    def __init__(self, archive: zipfile.ZipFile, path, prefix: str = "",
                 names: set[str] | None = None) -> None:
        self._archive = archive
        self._path = path
        self._prefix = prefix
        self._names = set(archive.namelist()) if names is None else names

    def sub(self, prefix: str) -> "_Members":
        return _Members(self._archive, self._path, self._prefix + prefix,
                        self._names)

    def __contains__(self, name: str) -> bool:
        return f"{self._prefix}{name}.npy" in self._names

    def error(self, name: str, problem: str) -> ArchiveError:
        return ArchiveError(
            f"{self._path}: member {self._prefix + name!r} {problem}"
        )

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self:
            raise self.error(name, "is missing")
        try:
            raw = self._archive.read(f"{self._prefix}{name}.npy")
            return np.lib.format.read_array(
                io.BytesIO(raw), allow_pickle=True
            )
        except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
            # A bad CRC-32, a broken deflate stream or a torn .npy.
            raise self.error(name, f"is corrupt ({exc})") from exc

    def json(self, name: str) -> dict:
        text = str(self[name][0])
        try:
            return json.loads(text)
        except ValueError as exc:
            raise self.error(name, f"is not valid JSON ({exc})") from exc


def _json_member(value) -> np.ndarray:
    return np.asarray([json.dumps(value)], dtype=object)


def _nest(payload: dict, prefix: str, part: dict) -> None:
    payload.update((prefix + name, array) for name, array in part.items())


def _unpack_level_rng(index, archive) -> None:
    """Resume the saved level stream, so ``add()`` after a load draws
    the levels it would have drawn without the round trip."""
    if "level_rng" in archive:
        index._levels.state = archive["level_rng"][0]


def _pack_graph(graph: LayeredGraph, payload: dict) -> None:
    payload["node_levels"] = np.asarray(
        [graph.node_level(v) for v in range(len(graph))], dtype=np.int64
    )
    payload["entry_point"] = np.asarray([graph.entry_point], dtype=np.int64)
    for level in range(graph.max_level + 1):
        nodes = sorted(graph.nodes_at_level(level))
        flat: list[int] = []
        offsets = [0]
        for node in nodes:
            flat.extend(graph.neighbors(node, level))
            offsets.append(len(flat))
        payload[f"level{level}_nodes"] = np.asarray(nodes, dtype=np.int64)
        payload[f"level{level}_offsets"] = np.asarray(offsets, dtype=np.int64)
        payload[f"level{level}_edges"] = np.asarray(flat, dtype=np.int64)


def _unpack_graph(archive) -> LayeredGraph:
    graph = LayeredGraph()
    node_levels = archive["node_levels"]
    for node, level in enumerate(node_levels.tolist()):
        graph.add_node(node, level)
    graph.entry_point = int(archive["entry_point"][0])
    level = 0
    while f"level{level}_nodes" in archive:
        nodes = archive[f"level{level}_nodes"]
        offsets = archive[f"level{level}_offsets"]
        edges = archive[f"level{level}_edges"]
        for i, node in enumerate(nodes.tolist()):
            graph.set_neighbors(
                node, level, edges[offsets[i] : offsets[i + 1]].tolist()
            )
        level += 1
    return graph


def _pack_table(table: AttributeTable) -> dict:
    payload: dict = {}
    schema = []
    for idx, name in enumerate(table.column_names):
        kind = table.column_kind(name)
        schema.append({"name": name, "kind": kind.value})
        column = table.column(name)
        if kind is ColumnKind.KEYWORDS:
            vocab = [None] * len(column.vocab)
            for word, token in column.vocab.items():
                vocab[token] = word
            payload[f"col{idx}_vocab"] = np.asarray(vocab, dtype=object)
            payload[f"col{idx}_offsets"] = column.offsets
            payload[f"col{idx}_tokens"] = column.tokens
        else:
            payload[f"col{idx}_values"] = np.asarray(column)
    payload["table_schema"] = _json_member(schema)
    payload["table_rows"] = np.asarray([len(table)], dtype=np.int64)
    return payload


def _unpack_table(archive) -> AttributeTable:
    schema = archive.json("table_schema")
    table = AttributeTable(int(archive["table_rows"][0]))
    for idx, entry in enumerate(schema):
        kind = ColumnKind(entry["kind"])
        name = entry["name"]
        if kind is ColumnKind.INT:
            table.add_int_column(name, archive[f"col{idx}_values"])
        elif kind is ColumnKind.FLOAT:
            table.add_float_column(name, archive[f"col{idx}_values"])
        elif kind is ColumnKind.STRING:
            table.add_string_column(
                name, [str(v) for v in archive[f"col{idx}_values"]]
            )
        else:
            vocab = [str(v) for v in archive[f"col{idx}_vocab"]]
            offsets = archive[f"col{idx}_offsets"]
            tokens = archive[f"col{idx}_tokens"]
            lists = [
                [vocab[t] for t in tokens[offsets[i] : offsets[i + 1]]]
                for i in range(len(table))
            ]
            table.add_keywords_column(name, lists)
    return table


def _graph_payload(index) -> dict:
    """The members of one HNSW or ACORN-family index."""
    payload: dict = {
        "format_version": np.asarray([_FORMAT_VERSION]),
        "vectors": index.store.vectors,
        "metric": np.asarray([index.store.metric.value], dtype=object),
    }
    _pack_graph(index.graph, payload)
    if isinstance(index._levels, LevelGenerator):
        # Additive and optional: the format version stays at 1 and
        # older archives load with a fresh stream.
        payload["level_rng"] = np.asarray([index._levels.state], dtype=object)
    if isinstance(index, HnswIndex):
        payload["kind"] = np.asarray(["hnsw"], dtype=object)
        payload["params"] = _json_member(
            {"m": index.m, "ef_construction": index.ef_construction}
        )
        return payload
    if isinstance(index, AcornOneIndex):
        kind = "acorn1"
    elif isinstance(index, FlatAcornIndex):
        kind = "acorn-flat"
    else:
        kind = "acorn"
    payload["kind"] = np.asarray([kind], dtype=object)
    payload["deleted"] = np.asarray(sorted(index._deleted), dtype=np.int64)
    if index._labels is not None:
        # Additive and optional like ``level_rng``: only metadata-aware
        # pruning (Figure 12) reads them.
        payload["labels"] = np.asarray(index._labels)
    p = index.params
    payload["params"] = _json_member({
        "m": p.m,
        "gamma": p.gamma,
        "m_beta": p.m_beta,
        "ef_construction": p.ef_construction,
        "pruning": p.pruning.value,
        "truncate_construction": p.truncate_construction,
        "compressed_levels": p.compressed_levels,
    })
    for level, per_node in enumerate(index._edge_dists):
        flat: list[float] = []
        for node in sorted(per_node):
            flat.extend(per_node[node])
        payload[f"dists{level}"] = np.asarray(flat, dtype=np.float64)
    payload.update(_pack_table(index.table))
    return payload


def _sharded_payload(index: ShardedAcornIndex) -> dict:
    payload: dict = {
        "format_version": np.asarray([_FORMAT_VERSION]),
        "kind": np.asarray(["sharded"], dtype=object),
        "meta": _json_member({
            "n_shards": index.n_shards,
            "partitioner": index.partitioner.spec(),
            "scale_ef": index.scale_ef,
            "min_ef": index.router.min_ef,
            "summaries": [s.to_dict() for s in index.router.summaries],
        }),
        "shard_of": index.assignment.shard_of,
    }
    for s, shard in enumerate(index.shards):
        _nest(payload, f"shard{s}.", _graph_payload(shard))
    _nest(payload, "table.", _pack_table(index.table))
    return payload


def _lifecycle_payload(lifecycle: LifecycleIndex) -> dict:
    """The lifecycle's write-side state, captured under its writer lock:
    every un-compacted delta row (sealed segments first, then the active
    buffer — external-id order) and the tombstones."""
    with lifecycle._lock:
        base = lifecycle._base
        views = [s.freeze() for s in (*lifecycle._sealed, lifecycle._delta)]
        payload: dict = {
            "format_version": np.asarray([_FORMAT_VERSION]),
            "kind": np.asarray(["lifecycle"], dtype=object),
            "meta": _json_member({
                "epoch": lifecycle._published.epoch,
                "next_external_id": lifecycle._next_external_id,
                "config": dataclasses.asdict(lifecycle.config),
            }),
            "base_ids": np.array(lifecycle._base_ids),
            "tombstones": np.asarray(sorted(lifecycle._tombstones),
                                     dtype=np.int64),
        }
        schema = lifecycle._schema
    payload["delta_ids"] = np.concatenate([v.external_ids for v in views])
    payload["delta_vectors"] = np.concatenate([v.vectors for v in views])
    rows = [v.table.row(i) for v in views for i in range(len(v))]
    _nest(payload, "delta.", _pack_table(build_table(schema, rows)))
    _nest(payload, "base.", _graph_payload(base))
    return payload


def save_index(index, path) -> None:
    """Serialize an index to exactly ``path`` as one ``.npz`` archive.

    Takes an HNSW or ACORN-family index, a
    :class:`~repro.shard.sharded.ShardedAcornIndex` or a
    :class:`~repro.lifecycle.manager.LifecycleIndex`.  The archive is
    written to a temporary file beside ``path`` and moved over it, so
    an interrupted save leaves the previous archive intact.
    """
    if isinstance(index, ShardedAcornIndex):
        payload = _sharded_payload(index)
    elif isinstance(index, LifecycleIndex):
        payload = _lifecycle_payload(index)
    elif isinstance(index, (AcornIndex, HnswIndex)):
        payload = _graph_payload(index)
    else:
        raise TypeError(f"cannot serialize index of type {type(index).__name__}")
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "wb") as handle:
            np.savez_compressed(handle, **payload)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _load_graph_index(archive: _Members, kind: str):
    params = archive.json("params")
    vectors = archive["vectors"]
    metric = str(archive["metric"][0])
    graph = _unpack_graph(archive)

    if kind == "hnsw":
        index = HnswIndex(
            vectors.shape[1], m=params["m"],
            ef_construction=params["ef_construction"], metric=metric,
        )
        index.store = VectorStore.from_array(vectors, metric=metric)
        index.graph = graph
        _unpack_level_rng(index, archive)
        return index

    table = _unpack_table(archive)
    acorn_params = AcornParams(
        m=params["m"],
        gamma=params["gamma"],
        m_beta=params["m_beta"],
        ef_construction=params["ef_construction"],
        pruning=PruningStrategy(params["pruning"]),
        truncate_construction=params["truncate_construction"],
        compressed_levels=params["compressed_levels"],
    )
    labels = archive["labels"] if "labels" in archive else None
    if kind == "acorn1":
        index = AcornOneIndex(
            vectors.shape[1], table, m=acorn_params.m,
            ef_construction=acorn_params.ef_construction, metric=metric,
        )
    elif kind == "acorn-flat":
        index = FlatAcornIndex(
            vectors.shape[1], table, params=acorn_params, metric=metric,
            labels=labels,
        )
    else:
        index = AcornIndex(
            vectors.shape[1], table, params=acorn_params, metric=metric,
            labels=labels,
        )
    index.store = VectorStore.from_array(vectors, metric=metric)
    index.graph = graph
    _unpack_level_rng(index, archive)
    if "deleted" in archive:
        index._deleted = set(archive["deleted"].tolist())
    index._edge_dists = []
    level = 0
    while f"dists{level}" in archive:
        flat = archive[f"dists{level}"]
        per_node: dict[int, list[float]] = {}
        cursor = 0
        for node in sorted(graph.nodes_at_level(level)):
            count = len(graph.neighbors(node, level))
            per_node[node] = flat[cursor : cursor + count].tolist()
            cursor += count
        index._edge_dists.append(per_node)
        level += 1
    return index


def _load_sharded(archive: _Members) -> ShardedAcornIndex:
    meta = archive.json("meta")
    n_shards = int(meta["n_shards"])
    return ShardedAcornIndex(
        shards=[_load(archive.sub(f"shard{s}.")) for s in range(n_shards)],
        assignment=ShardAssignment.from_shard_of(
            archive["shard_of"], n_shards
        ),
        partitioner=partitioner_from_spec(meta["partitioner"]),
        table=_unpack_table(archive.sub("table.")),
        router=ShardRouter(
            [ShardSummary.from_dict(s) for s in meta["summaries"]],
            min_ef=int(meta["min_ef"]),
        ),
        scale_ef=bool(meta["scale_ef"]),
    )


def _load_lifecycle(archive: _Members) -> LifecycleIndex:
    meta = archive.json("meta")
    base = _load(archive.sub("base."))
    base_ids = archive["base_ids"].astype(np.int64)
    if base_ids.shape[0] != len(base):
        raise archive.error(
            "base_ids", f"covers {base_ids.shape[0]} nodes but the base "
            f"holds {len(base)}; the archive is inconsistent",
        )
    delta_ids = archive["delta_ids"]
    delta_vectors = archive["delta_vectors"]
    delta = _unpack_table(archive.sub("delta."))
    if not len(delta_ids) == len(delta_vectors) == len(delta):
        raise archive.error(
            "delta_ids", f"holds {len(delta_ids)} ids for "
            f"{len(delta_vectors)} vectors and {len(delta)} rows; the "
            "archive is inconsistent",
        )
    return LifecycleIndex._restore(
        base=base,
        base_ids=base_ids,
        delta_entries=[
            (ext, vector, delta.row(i)) for i, (ext, vector)
            in enumerate(zip(delta_ids.tolist(), delta_vectors))
        ],
        tombstones=set(archive["tombstones"].tolist()),
        next_external_id=int(meta["next_external_id"]),
        epoch=int(meta["epoch"]),
        config=LifecycleConfig(**meta["config"]),
    )


def _load(archive: _Members):
    version = int(archive["format_version"][0])
    if version != _FORMAT_VERSION:
        raise archive.error(
            "format_version", f"holds unsupported index format version "
            f"{version} (expected {_FORMAT_VERSION})",
        )
    kind = str(archive["kind"][0])
    if kind == "sharded":
        return _load_sharded(archive)
    if kind == "lifecycle":
        return _load_lifecycle(archive)
    if kind not in ("hnsw", "acorn", "acorn1", "acorn-flat"):
        raise archive.error("kind", f"names unknown index kind {kind!r}")
    return _load_graph_index(archive, kind)


def load_index(path):
    """Restore an index previously saved with :func:`save_index`.

    Raises:
        ArchiveError: the path is a directory, missing or not a zip
            archive, or a member is missing, corrupt (CRC-32 or zlib),
            of another format version or inconsistent with the rest.
    """
    path = Path(path)
    if path.is_dir():
        raise ArchiveError(
            f"{path} is a directory; sharded and lifecycle archives are "
            "now single .npz files written by save_index"
        )
    try:
        with zipfile.ZipFile(path) as archive:
            return _load(_Members(archive, path))
    except ArchiveError:
        raise
    except (OSError, zipfile.BadZipFile) as exc:
        raise ArchiveError(f"{path}: cannot read the archive ({exc})") from exc
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise ArchiveError(
            f"{path}: the archive is inconsistent ({exc!r})"
        ) from exc
