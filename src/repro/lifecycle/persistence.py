"""Epoch-manifest persistence for the streaming lifecycle.

Layout of a saved :class:`~repro.lifecycle.manager.LifecycleIndex`::

    <path>/
      manifest.json   # format version, epoch, next id, tombstones,
                      # file list + sha256 checksums
      base.npz        # the graph base via repro.persistence.save_index
      base_ids.npz    # base-internal -> external id translation
      delta.jsonl     # WAL-style journal of the un-compacted writes

The base archive is a plain :func:`repro.persistence.save_index` file
(independently loadable); the delta rides as a checksummed
:class:`~repro.lifecycle.journal.DeltaJournal` whose replay rebuilds
the write buffer exactly.  Loading verifies the manifest version and
every file's checksum — a broken piece raises
:class:`LifecycleLoadError` naming the exact file, mirroring the shard
manifest loader's operator-first contract.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from repro.lifecycle.journal import DeltaJournal, JournalError
from repro.lifecycle.manager import LifecycleConfig, LifecycleIndex
from repro.utils.clock import Clock

__all__ = ["save_lifecycle", "load_lifecycle", "LifecycleLoadError"]

_LIFECYCLE_FORMAT_VERSION = 1
_LIFECYCLE_FORMAT = "repro-lifecycle-epoch"


class LifecycleLoadError(RuntimeError):
    """A lifecycle archive is incomplete or corrupt.

    The message names the offending file (and line, for journal
    records), so operators know exactly which piece to restore; the
    lifecycle is never partially constructed.
    """


_MANIFEST_WORDING = {
    "missing": "lifecycle archive {root} is missing 'manifest.json'",
    "corrupt": "{path} is not valid JSON: {exc.msg}",
    "format": "{path} has format {found!r}, expected {expected!r}",
    "version": "{path} has format_version {found!r}, expected {expected}",
}


def save_lifecycle(lifecycle: LifecycleIndex, path) -> Path:
    """Serialize ``lifecycle``'s current epoch state into ``path``.

    Captures the write-side state under the writer lock: base,
    translation array, every un-compacted delta entry (sealed segments
    first, then the active buffer — i.e. external-id order), and the
    tombstone set.
    """
    from repro.persistence import file_sha256, save_index

    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)

    with lifecycle._lock:
        base = lifecycle._base
        base_ids = np.array(lifecycle._base_ids)
        segments = [*lifecycle._sealed, lifecycle._delta]
        entries = [
            entry for segment in segments
            for entry in segment.freeze().entries()
        ]
        tombstones = sorted(int(t) for t in lifecycle._tombstones)
        next_external_id = lifecycle._next_external_id
        epoch = lifecycle._published.epoch

    save_index(base, root / "base.npz")
    np.savez_compressed(root / "base_ids.npz", base_ids=base_ids)

    journal_path = root / "delta.jsonl"
    journal_path.write_text("", encoding="utf-8")
    journal = DeltaJournal(journal_path)
    journal.append_many(
        DeltaJournal.insert_record(seq, ext, vec, row)
        for seq, (ext, vec, row) in enumerate(entries)
    )

    files = ["base.npz", "base_ids.npz", "delta.jsonl"]
    manifest = {
        "format": _LIFECYCLE_FORMAT,
        "format_version": _LIFECYCLE_FORMAT_VERSION,
        "epoch": int(epoch),
        "next_external_id": int(next_external_id),
        "n_base": int(base_ids.shape[0]),
        "n_delta": len(entries),
        "tombstones": tombstones,
        "files": files,
        "checksums": {name: file_sha256(root / name) for name in files},
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return root


def load_lifecycle(
    path,
    config: LifecycleConfig | None = None,
    clock: Clock | None = None,
) -> LifecycleIndex:
    """Restore a lifecycle saved with :func:`save_lifecycle`.

    Raises:
        LifecycleLoadError: when the manifest is absent/invalid or any
            referenced file is missing, fails its checksum, or holds a
            corrupt journal record.
    """
    from repro.persistence import load_index, read_manifest, verified_file

    root = Path(path)
    manifest = read_manifest(
        root, LifecycleLoadError, _LIFECYCLE_FORMAT_VERSION,
        _MANIFEST_WORDING, fmt=_LIFECYCLE_FORMAT,
    )
    _verified = functools.partial(
        verified_file, root, checksums=manifest.get("checksums", {}),
        error=LifecycleLoadError, archive="lifecycle archive",
        resave="lifecycle",
    )

    base = load_index(_verified("base.npz"))
    with np.load(_verified("base_ids.npz")) as payload:
        base_ids = np.asarray(payload["base_ids"], dtype=np.int64)
    if base_ids.shape[0] != len(base):
        raise LifecycleLoadError(
            f"base_ids.npz covers {base_ids.shape[0]} nodes but base.npz "
            f"holds {len(base)}; the archive is inconsistent"
        )

    journal = DeltaJournal(_verified("delta.jsonl"))
    try:
        records = journal.replay()
    except JournalError as err:
        raise LifecycleLoadError(str(err)) from err
    entries = []
    for record in records:
        if record.get("op") != "insert":
            raise LifecycleLoadError(
                f"delta.jsonl: unexpected op {record.get('op')!r} in a "
                "delta journal (deletes live in the manifest tombstones)"
            )
        entries.append((
            int(record["external_id"]),
            np.asarray(record["vector"], dtype=np.float32),
            dict(record["row"]),
        ))
    if len(entries) != manifest.get("n_delta"):
        raise LifecycleLoadError(
            f"delta.jsonl holds {len(entries)} records but the manifest "
            f"declares {manifest.get('n_delta')}; the journal is truncated"
        )

    return LifecycleIndex._restore(
        base=base,
        base_ids=base_ids,
        delta_entries=entries,
        tombstones=set(int(t) for t in manifest.get("tombstones", [])),
        next_external_id=int(manifest["next_external_id"]),
        epoch=int(manifest["epoch"]),
        config=config,
        clock=clock,
    )
