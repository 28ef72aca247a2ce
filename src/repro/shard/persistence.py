"""Sharded index persistence: a manifest directory of per-shard archives.

Layout of a saved :class:`~repro.shard.sharded.ShardedAcornIndex`::

    <path>/
      manifest.json      # format version, partitioner spec, shard files
                         # + sha256 checksums, scale_ef, summaries
      assignment.npz     # the global -> shard row assignment
      table.npz          # the global attribute table
      shard_00000.npz    # one repro.persistence archive per shard
      shard_00001.npz
      ...

Every shard archive goes through :func:`repro.persistence.save_index`
unchanged, so a shard file is itself a loadable single index.  Loading
verifies the manifest version and each file's checksum; a corrupt or
missing piece raises :class:`ShardLoadError` naming the exact file
instead of yielding a partially-loaded index.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from repro.shard.partition import ShardAssignment, partitioner_from_spec
from repro.shard.router import ShardRouter
from repro.shard.sharded import ShardedAcornIndex
from repro.shard.summary import ShardSummary

_SHARD_FORMAT_VERSION = 1


class ShardLoadError(RuntimeError):
    """A sharded archive is incomplete or corrupt.

    Raised with the offending file's path in the message, so operators
    know exactly which piece to restore; the index is never partially
    constructed.
    """


_MANIFEST_WORDING = {
    "missing": "no manifest.json under {root}",
    "corrupt": "manifest {path} is corrupt: {exc}",
    "version": "unsupported sharded format version {found!r} "
               "(expected {expected})",
}


def save_sharded(index: ShardedAcornIndex, path) -> None:
    """Serialize a sharded index into a manifest directory at ``path``."""
    from repro.persistence import _pack_table, file_sha256, save_index

    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)

    shard_files = []
    for s, shard in enumerate(index.shards):
        name = f"shard_{s:05d}.npz"
        save_index(shard, root / name)
        shard_files.append(name)

    np.savez_compressed(
        root / "assignment.npz", shard_of=index.assignment.shard_of
    )
    table_payload: dict = {}
    _pack_table(index.table, table_payload)
    np.savez_compressed(root / "table.npz", **table_payload)

    checksums = {
        name: file_sha256(root / name)
        for name in shard_files + ["assignment.npz", "table.npz"]
    }
    manifest = {
        "format": "repro-sharded-index",
        "format_version": _SHARD_FORMAT_VERSION,
        "n_shards": index.n_shards,
        "n_rows": len(index),
        "partitioner": index.partitioner.spec(),
        "scale_ef": index.scale_ef,
        "min_ef": index.router.min_ef,
        "shard_files": shard_files,
        "checksums": checksums,
        "summaries": [s.to_dict() for s in index.router.summaries],
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_sharded(path) -> ShardedAcornIndex:
    """Restore a sharded index saved with :func:`save_sharded`.

    Raises:
        ShardLoadError: when the manifest is absent/invalid or any
            referenced file is missing or fails its checksum.
    """
    from repro.persistence import (
        _unpack_table,
        load_index,
        read_manifest,
        verified_file,
    )

    root = Path(path)
    manifest = read_manifest(
        root, ShardLoadError, _SHARD_FORMAT_VERSION, _MANIFEST_WORDING
    )
    _verified = functools.partial(
        verified_file, root, checksums=manifest.get("checksums", {}),
        error=ShardLoadError, archive="sharded archive", resave="index",
    )

    shards = [load_index(_verified(n)) for n in manifest["shard_files"]]
    with np.load(_verified("assignment.npz")) as archive:
        shard_of = archive["shard_of"]
    assignment = ShardAssignment.from_shard_of(
        shard_of, int(manifest["n_shards"])
    )
    with np.load(_verified("table.npz"), allow_pickle=True) as archive:
        table = _unpack_table(archive)

    router = ShardRouter(
        [ShardSummary.from_dict(s) for s in manifest["summaries"]],
        min_ef=int(manifest.get("min_ef", 16)),
    )
    return ShardedAcornIndex(
        shards=shards,
        assignment=assignment,
        partitioner=partitioner_from_spec(manifest["partitioner"]),
        table=table,
        router=router,
        scale_ef=bool(manifest.get("scale_ef", False)),
    )
