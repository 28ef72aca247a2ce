"""Save and load indexes (and attribute tables) to ``.npz`` archives.

A production vector index must outlive the process that built it —
ACORN-γ construction is the expensive step, search is cheap.  This
module serializes :class:`~repro.hnsw.hnsw.HnswIndex`,
:class:`~repro.core.acorn.AcornIndex` and
:class:`~repro.core.acorn.AcornOneIndex` (including their attribute
tables) into a single compressed numpy archive and restores them
exactly: same graph, same entry point, same parameters, the level
generator's stream position and — for the ACORN indices — the same
per-edge distances and pruning labels, so incremental insertion resumes
after loading exactly where it stopped.

String and keyword columns are stored as object arrays, so loading uses
``allow_pickle=True``; only load archives you trust, the standard numpy
caveat.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.attributes.table import AttributeTable, ColumnKind
from repro.core.acorn import AcornIndex, AcornOneIndex
from repro.core.flat import FlatAcornIndex
from repro.core.params import AcornParams, PruningStrategy
from repro.hnsw.graph import LayeredGraph
from repro.hnsw.hnsw import HnswIndex
from repro.hnsw.levels import LevelGenerator
from repro.vectors.store import VectorStore

_FORMAT_VERSION = 1


def file_sha256(path: Path) -> str:
    """Hex sha256 of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_manifest(
    root: Path, error, version: int, wording: dict, fmt: str | None = None
) -> dict:
    """Parse ``root/manifest.json`` and check its format and version.

    Shared by the manifest-directory loaders; failures raise the
    caller's ``error`` class in the caller's ``wording`` (``str.format``
    templates keyed ``missing``/``corrupt``/``format``/``version``).
    """
    path = root / "manifest.json"
    if not path.exists():
        raise error(wording["missing"].format(root=root))
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise error(wording["corrupt"].format(path=path, exc=exc)) from exc
    if fmt is not None and manifest.get("format") != fmt:
        raise error(wording["format"].format(
            path=path, found=manifest.get("format"), expected=fmt
        ))
    found = manifest.get("format_version")
    if found != version:
        raise error(wording["version"].format(
            path=path, found=found, expected=version
        ))
    return manifest


def verified_file(
    root: Path, name: str, checksums: dict, error, archive: str, resave: str
) -> Path:
    """The path of ``root/name``, existence- and checksum-verified;
    raises ``error`` naming the file otherwise."""
    target = root / name
    if not target.exists():
        raise error(
            f"{archive} {root} is missing {name!r}; restore the file "
            f"or re-save the {resave}"
        )
    expected = checksums.get(name)
    if expected is not None and file_sha256(target) != expected:
        raise error(
            f"checksum mismatch for {target}; the file is corrupt "
            f"(expected sha256 {expected[:12]}...)"
        )
    return target


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


def _pack_table(table: AttributeTable, payload: dict) -> None:
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
    payload["table_schema"] = np.asarray([json.dumps(schema)], dtype=object)
    payload["table_rows"] = np.asarray([len(table)], dtype=np.int64)


def _unpack_table(archive) -> AttributeTable:
    schema = json.loads(str(archive["table_schema"][0]))
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


def save_index(index, path) -> None:
    """Serialize an index to ``path``.

    Single HNSW/ACORN indexes become one ``.npz`` archive; a
    :class:`~repro.shard.sharded.ShardedAcornIndex` becomes a manifest
    *directory* (see :mod:`repro.shard.persistence`).
    """
    from repro.shard.persistence import save_sharded
    from repro.shard.sharded import ShardedAcornIndex

    if isinstance(index, ShardedAcornIndex):
        save_sharded(index, path)
        return
    if not isinstance(index, (AcornIndex, HnswIndex)):
        raise TypeError(f"cannot serialize index of type {type(index).__name__}")
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
    if isinstance(index, AcornIndex):
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
        payload["params"] = np.asarray(
            [
                json.dumps(
                    {
                        "m": p.m,
                        "gamma": p.gamma,
                        "m_beta": p.m_beta,
                        "ef_construction": p.ef_construction,
                        "pruning": p.pruning.value,
                        "truncate_construction": p.truncate_construction,
                        "compressed_levels": p.compressed_levels,
                    }
                )
            ],
            dtype=object,
        )
        for level, per_node in enumerate(index._edge_dists):
            nodes = sorted(per_node)
            flat: list[float] = []
            for node in nodes:
                flat.extend(per_node[node])
            payload[f"dists{level}"] = np.asarray(flat, dtype=np.float64)
        _pack_table(index.table, payload)
    elif isinstance(index, HnswIndex):
        payload["kind"] = np.asarray(["hnsw"], dtype=object)
        payload["params"] = np.asarray(
            [json.dumps({"m": index.m, "ef_construction": index.ef_construction})],
            dtype=object,
        )
    else:
        raise TypeError(f"cannot serialize index of type {type(index).__name__}")
    np.savez_compressed(Path(path), **payload)


def load_index(path):
    """Restore an index previously saved with :func:`save_index`.

    A directory path (or one containing ``manifest.json``) restores a
    sharded index via :func:`repro.shard.persistence.load_sharded`.
    """
    if Path(path).is_dir():
        from repro.shard.persistence import load_sharded

        return load_sharded(path)
    with np.load(Path(path), allow_pickle=True) as archive:
        version = int(archive["format_version"][0])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported index format version {version} "
                f"(expected {_FORMAT_VERSION})"
            )
        kind = str(archive["kind"][0])
        params = json.loads(str(archive["params"][0]))
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
