"""Debug dump tools: ``sst_dump`` / manifest-history equivalents.

LevelDB ships ``sst_dump`` and ``leveldbutil`` for poking at on-disk
state; these are their counterparts for the simulated store.  All of
them return strings (the CLI and tests both consume them).
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.fs.storage import Storage
from repro.lsm.db import DB
from repro.lsm.ikey import InternalKey
from repro.lsm.sstable import SSTableReader
from repro.lsm.version import VersionEdit, VersionSet
from repro.lsm.wal import WriteBatch, read_log_records


def dump_table(storage: Storage, name: str, *, limit: int | None = 20,
               verify_order: bool = True) -> str:
    """Human-readable listing of one table file's entries."""
    if not storage.exists(name):
        raise ReproError(f"no such table {name!r}")
    size = storage.file_size(name)
    reader = SSTableReader(storage, name, size)
    lines = [f"{name}: {size} bytes"]
    previous = None
    count = 0
    for key, value in reader:
        if verify_order and previous is not None and not previous < key:
            lines.append(f"  !! ORDER VIOLATION at entry {count}")
        previous = key
        if limit is None or count < limit:
            ikey = InternalKey.from_key(key)
            kind = "put" if ikey.type == 1 else "del"
            shown = value[:24]
            suffix = "..." if len(value) > 24 else ""
            lines.append(f"  {ikey.user_key!r} @ {ikey.sequence} {kind} "
                         f"-> {shown!r}{suffix}")
        count += 1
    if limit is not None and count > limit:
        lines.append(f"  ... {count - limit} more")
    lines.append(f"  total {count} entries")
    return "\n".join(lines)


def dump_manifest(storage: Storage) -> str:
    """The manifest log, record by record."""
    lines = ["manifest log:"]
    for index, (kind, payload) in enumerate(storage.read_meta_records()):
        if kind == Storage.META_SNAPSHOT:
            vs = VersionSet.deserialize(payload)
            lines.append(
                f"  [{index}] SNAPSHOT: {vs.current.num_files()} files, "
                f"next_file={vs.next_file_number}, seq={vs.last_sequence}")
        elif kind == Storage.META_EDIT:
            edit = VersionEdit.deserialize(payload)
            adds = ", ".join(f"L{lvl}:{m.name}" for lvl, m in edit.added)
            dels = ", ".join(f"L{lvl}:#{num}" for lvl, num in edit.deleted)
            lines.append(f"  [{index}] EDIT: +[{adds or '-'}] -[{dels or '-'}] "
                         f"seq={edit.last_sequence}")
        else:
            lines.append(f"  [{index}] UNKNOWN kind {kind}")
    return "\n".join(lines)


def dump_wal(storage: Storage, wal_block_size: int = 32 * 1024,
             limit: int = 50) -> str:
    """Pending WAL batches (not yet flushed to a table)."""
    data = storage.read_log_bytes()
    lines = [f"write-ahead log: {len(data)} bytes"]
    shown = 0
    for payload in read_log_records(data, wal_block_size):
        sequence, batch = WriteBatch.deserialize(payload)
        lines.append(f"  batch @ seq {sequence}: {len(batch)} op(s)")
        for type_, key, value in batch.ops:
            if shown >= limit:
                lines.append("  ...")
                return "\n".join(lines)
            op = "put" if type_ == 1 else "del"
            lines.append(f"    {op} {key!r}")
            shown += 1
    return "\n".join(lines)


def dump_levels(db: DB) -> str:
    """Tree shape: per level, every file with its key range."""
    version = db.versions.current
    lines = ["level layout:"]
    for level in range(version.num_levels):
        files = version.files[level]
        tier = " (tiered)" if version.level_is_tiered(level) and level else ""
        lines.append(f"  L{level}{tier}: {len(files)} file(s), "
                     f"{version.level_bytes(level)} bytes")
        for meta in files:
            lines.append(
                f"    {meta.name} [{meta.smallest.user_key!r} .. "
                f"{meta.largest.user_key!r}] {meta.size}B "
                f"{meta.entries}e run={meta.run}")
    return "\n".join(lines)
