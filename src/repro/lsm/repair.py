"""Database repair: rebuild the manifest from surviving table files.

``leveldbutil repair`` for the simulated store: when the manifest log
is lost or corrupt, the table files still carry everything needed to
serve reads.  The repairer scans the storage for ``*.sst`` objects,
reads each one's key range and entry count, and constructs a fresh
version with **every table in level 0** -- L0 permits overlapping key
ranges, so this placement is always correct; it is merely uncompacted.
Sequence numbers inside the tables are preserved, so newest-version-wins
semantics survive.  The next compactions re-form the leveled shape.

The WAL, if readable, is replayed on top as usual by ``DB.recover``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.fs.storage import Storage
from repro.lsm.db import DB
from repro.lsm.ikey import InternalKey
from repro.lsm.options import Options
from repro.lsm.sstable import SSTableReader
from repro.lsm.version import FileMetaData, VersionEdit, VersionSet
from repro.obs.events import RepairDrop
from repro.smr.stats import AmplificationTracker


@dataclass
class RepairReport:
    """What the repairer found and rebuilt."""

    tables_recovered: int = 0
    tables_dropped: int = 0
    entries_recovered: int = 0
    #: every discarded table as ``(name, reason)`` -- no silent drops
    dropped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def dropped_names(self) -> list[str]:
        return [name for name, _reason in self.dropped]

    def render(self) -> str:
        lines = [f"repair: {self.tables_recovered} tables recovered "
                 f"({self.entries_recovered:,} entries), "
                 f"{self.tables_dropped} dropped"]
        lines += [f"  - dropped {name}: {reason}"
                  for name, reason in self.dropped]
        return "\n".join(lines)


def repair(storage: Storage, options: Options | None = None,
           tracker: AmplificationTracker | None = None,
           obs=None) -> tuple[DB, RepairReport]:
    """Rebuild a usable DB from whatever tables survive on ``storage``.

    Unreadable tables are dropped (their data is lost) -- each drop is
    recorded with its reason in the report and, when ``obs`` is given,
    emitted as a :class:`~repro.obs.events.RepairDrop` event.  The
    rebuilt manifest replaces the old meta log (which also clears any
    quarantine marks -- a table either reads clean end to end here or
    it is dropped); the WAL is replayed if intact, discarded if not.
    """
    options = options if options is not None else Options()
    report = RepairReport()
    recovered: list[FileMetaData] = []
    max_number = 0
    max_sequence = 0

    def drop(name: str, reason: str) -> None:
        report.dropped.append((name, reason))
        report.tables_dropped += 1
        if obs is not None:
            obs.emit(RepairDrop(ts=storage.drive.now, name=name,
                                reason=reason))

    for name in sorted(storage.list_files()):
        if not name.endswith(".sst"):
            continue
        try:
            number = int(name.split(".")[0])
        except ValueError:
            drop(name, "unparseable file number")
            continue
        try:
            meta, entries, top_seq = _inspect_table(storage, name, number)
        except ReproError as exc:
            drop(name, str(exc) or type(exc).__name__)
            storage.delete_file(name)
            continue
        recovered.append(meta)
        report.tables_recovered += 1
        report.entries_recovered += entries
        max_number = max(max_number, number)
        max_sequence = max(max_sequence, top_seq)

    versions = VersionSet(options.max_levels,
                          tiered=options.style == "two-tier")
    edit = VersionEdit()
    for meta in recovered:
        edit.add_file(0, meta)
    versions.log_and_apply(edit)
    versions.next_file_number = max_number + 1
    versions.last_sequence = max_sequence

    # replace the meta log with a fresh snapshot of the rebuilt state
    storage.reset_meta()
    storage.append_meta_record(Storage.META_SNAPSHOT, versions.serialize())

    # WAL: replay if parseable, else discard
    try:
        db = DB.recover(storage, options, tracker)
    except ReproError:
        storage.reset_log()
        db = DB.recover(storage, options, tracker)
    return db, report


def _inspect_table(storage: Storage, name: str,
                   number: int) -> tuple[FileMetaData, int, int]:
    """Read one table end to end; returns (meta, entries, max sequence)."""
    size = storage.file_size(name)
    reader = SSTableReader(storage, name, size)
    smallest = previous = None
    count = 0
    top_seq = 0
    for key, _value in reader:
        if previous is not None and not previous < key:
            raise ReproError(f"{name}: keys out of order")
        previous = key
        if smallest is None:
            smallest = key
        top_seq = max(top_seq, -key[1] >> 8)
        count += 1
    if smallest is None or previous is None:
        raise ReproError(f"{name}: empty table")
    meta = FileMetaData(number, size, InternalKey.from_key(smallest),
                        InternalKey.from_key(previous), count, run=number)
    return meta, count, top_seq
