"""Offline integrity verification (``fsck`` for the store).

Walks everything the manifest references and validates:

* every table file opens, its footer magic and block CRCs hold, and its
  entries are in strict internal-key order;
* the manifest's per-file key ranges and entry counts match the table
  contents;
* sorted levels are ordered and disjoint; a tiered last level is
  tolerated per the engine style;
* the WAL parses end to end in strict mode (torn tails and checksum
  mismatches are problems here, even though recovery would salvage
  around them) and every record deserializes as a write batch;
* both manifest slots parse; damage to the slot of record is a problem,
  stale damage in the inactive slot is reported as such;
* (dynamic-band storage) every live file's extent lies inside allocated
  space and no two files overlap.

``verify_db(db, scrub=True)`` additionally runs the media scrubber
(:mod:`repro.resilience.scrub`) and folds its findings in -- this is
what ``repro verify --scrub`` invokes.

Returns a :class:`VerifyReport`; ``ok`` is False with per-problem
messages rather than raising, so operators can inspect damage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CorruptionError, ReproError
from repro.lsm.db import DB
from repro.lsm.sstable import SSTableReader
from repro.lsm.wal import WriteBatch, read_log_records


@dataclass
class VerifyReport:
    """Outcome of one verification pass."""

    tables_checked: int = 0
    entries_checked: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, message: str) -> None:
        self.problems.append(message)

    def render(self) -> str:
        status = "OK" if self.ok else f"{len(self.problems)} PROBLEM(S)"
        lines = [f"verify: {status} -- {self.tables_checked} tables, "
                 f"{self.entries_checked:,} entries"]
        lines += [f"  - {p}" for p in self.problems]
        return "\n".join(lines)


def verify_db(db: DB, scrub: bool = False) -> VerifyReport:
    """Validate the full on-disk state of ``db``.

    With ``scrub=True`` also run the media scrubber, which re-reads
    every live block off the device (bypassing caches) and quarantines
    tables that fail persistently; its findings join the report.
    """
    report = VerifyReport()
    version = db.versions.current

    for level in range(version.num_levels):
        files = version.files[level]
        for meta in files:
            if meta.quarantined:
                report.add(f"L{level}: {meta.name} quarantined "
                           f"(range fenced off after media errors)")
                continue
            _verify_table(db, level, meta, report)
        if level >= 1 and not version.level_is_tiered(level):
            for a, b in zip(files, files[1:]):
                if b.smallest.user_key <= a.largest.user_key:
                    report.add(
                        f"L{level}: files {a.number} and {b.number} overlap")

    _verify_wal(db, report)
    _verify_manifest(db, report)
    _verify_placement(db, report)
    if scrub:
        scrub_report = db.scrub()
        for name, reason in scrub_report.errors:
            report.add(f"scrub: {name} failed verification: {reason}")
        for problem in scrub_report.placement_problems:
            report.add(f"scrub: {problem}")
    return report


def _verify_wal(db: DB, report: VerifyReport) -> None:
    """Strict-parse the WAL: recovery would salvage around damage, but
    an fsck must name it."""
    data = db.storage.read_log_bytes()
    records = 0
    try:
        for payload in read_log_records(data, db.options.wal_block_size,
                                        strict=True):
            WriteBatch.deserialize(payload)
            records += 1
    except CorruptionError as exc:
        report.add(f"wal: {exc} (after {records} good records)")


def _verify_manifest(db: DB, report: VerifyReport) -> None:
    """Walk both manifest slots (the two-slot rollover scheme).

    Damage in the slot of record is a real problem; damage in the
    inactive slot is stale by construction (``reset_meta`` wipes it on
    rollover) but still worth naming.
    """
    slot_state = getattr(db.storage, "_slot_state", None)
    if slot_state is None:
        return
    active = db.storage._active_meta
    for index in (0, 1):
        try:
            _gen, body, usable, damaged, crc_error = slot_state(index)
        except ReproError as exc:
            report.add(f"manifest slot {index}: unreadable: {exc}")
            continue
        role = "active" if index == active else "inactive"
        if index == active:
            if not usable:
                report.add(f"manifest slot {index} (active): not usable "
                           f"({'crc mismatch' if crc_error else 'no snapshot'})")
            elif crc_error:
                report.add(f"manifest slot {index} (active): crc mismatch")
            elif damaged:
                report.add(f"manifest slot {index} (active): torn tail")
        elif crc_error and body:
            report.add(f"manifest slot {index} ({role}): stale crc damage")


def _verify_table(db: DB, level: int, meta, report: VerifyReport) -> None:
    name = meta.name
    if not db.storage.exists(name):
        report.add(f"L{level}: {name} referenced by manifest but missing")
        return
    size = db.storage.file_size(name)
    if size != meta.size:
        report.add(f"L{level}: {name} size {size} != manifest {meta.size}")
        return
    try:
        reader = SSTableReader(db.storage, name, size)
        smallest = previous = None
        count = 0
        for key, _value in reader:
            if previous is not None and not previous < key:
                report.add(f"L{level}: {name} keys out of order at #{count}")
                return
            if smallest is None:
                smallest = key
            previous = key
            count += 1
        report.tables_checked += 1
        report.entries_checked += count
    except ReproError as exc:
        report.add(f"L{level}: {name} unreadable: {exc}")
        return
    if count != meta.entries:
        report.add(f"L{level}: {name} has {count} entries, "
                   f"manifest says {meta.entries}")
    if smallest is not None and smallest[0] != meta.smallest.user_key:
        report.add(f"L{level}: {name} smallest key mismatch")
    if previous is not None and previous[0] != meta.largest.user_key:
        report.add(f"L{level}: {name} largest key mismatch")


def _verify_placement(db: DB, report: VerifyReport) -> None:
    """Dynamic-band placement checks (no-op for other storages)."""
    manager = getattr(db.storage, "manager", None)
    if manager is None:
        return
    try:
        manager.check_invariants()
    except ReproError as exc:
        report.add(f"band manager invariants: {exc}")
    extents = []
    for name in db.storage.list_files():
        for ext in db.storage.file_extents(name):
            if not manager.allocated.contains_range(ext.start, ext.end):
                report.add(f"{name}: extent {ext} outside allocated space")
            extents.append((ext.start, ext.end, name))
    extents.sort()
    for (s1, e1, n1), (s2, e2, n2) in zip(extents, extents[1:]):
        if s2 < e1:
            report.add(f"files {n1} and {n2} overlap on disk")
