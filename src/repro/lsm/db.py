"""The key-value store engine: LevelDB's write/read/compaction paths.

One :class:`DB` instance drives one :class:`~repro.fs.storage.Storage`
(and through it one simulated drive).  Compactions run synchronously on
the simulated clock -- there is no concurrency to model because the
paper's evaluation is throughput of a single foreground load against a
single disk arm.

Set-awareness (``Options.use_sets``) changes exactly two things, as in
the paper:

* compaction **inputs** are prefetched with one whole-file sequential
  read per table (the tables of a set are physically contiguous, so the
  whole compaction unit streams off the disk), instead of on-demand
  block reads interleaved across input files;
* compaction **outputs** are buffered and handed to the storage as one
  group (``write_files``), which a set-aware placement policy lays out
  contiguously.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro import faults
from repro.errors import (
    CorruptionError,
    InvariantViolation,
    KeyRangeUnavailable,
    MediaError,
)
from repro.fs.storage import Storage
from repro.lsm.cache import LRUCache
from repro.lsm.compaction import Compaction, CompactionPicker, compact_entries
from repro.lsm.ikey import Key, lookup_key
from repro.lsm.iterator import DBIterator, merge_iterators, take_range
from repro.lsm.memtable import Memtable
from repro.lsm.options import Options
from repro.lsm.sstable import SSTableBuilder, SSTableReader
from repro.lsm.version import FileMetaData, VersionEdit, VersionSet
from repro.lsm.wal import LogWriter, WriteBatch, scan_log
from repro.obs.events import (
    CompactionEnd,
    CompactionStart,
    FlushEnd,
    FlushStart,
    QuarantineEvent,
)
from repro.smr.extent import Extent
from repro.smr.stats import AmplificationTracker


@dataclass
class CompactionRecord:
    """Everything the experiments need to know about one compaction."""

    index: int
    level: int
    output_level: int
    start_time: float
    end_time: float
    input_names: list[str]
    output_names: list[str]
    input_extents: list[list[Extent]]
    output_extents: list[list[Extent]]
    input_bytes: int
    output_bytes: int
    trivial_move: bool = False

    @property
    def latency(self) -> float:
        return self.end_time - self.start_time

    @property
    def num_input_files(self) -> int:
        return len(self.input_names)

    @property
    def num_output_files(self) -> int:
        return len(self.output_names)


def _compaction_end_event(record: CompactionRecord) -> CompactionEnd:
    return CompactionEnd(
        ts=record.end_time, index=record.index, level=record.level,
        output_level=record.output_level,
        num_inputs=record.num_input_files,
        num_outputs=record.num_output_files,
        input_bytes=record.input_bytes, output_bytes=record.output_bytes,
        duration=record.latency, trivial_move=record.trivial_move)


@dataclass
class FlushRecord:
    """One memtable flush."""

    start_time: float
    end_time: float
    name: str
    nbytes: int


@dataclass
class DBStats:
    """Operation counters (separate from drive-level stats)."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    scans: int = 0
    get_hits: int = 0
    tables_opened: int = 0
    #: device re-reads after a checksum/media failure (resilience)
    read_retries: int = 0
    #: reads that hit a latent sector error
    media_errors: int = 0
    #: tables fenced off after persistent read failures (cumulative)
    quarantines: int = 0


class DB:
    """An LSM-tree key-value store over a placement policy."""

    def __init__(self, storage: Storage, options: Options | None = None,
                 tracker: AmplificationTracker | None = None,
                 stats: DBStats | None = None) -> None:
        self.storage = storage
        self.options = options if options is not None else Options()
        self.tracker = tracker if tracker is not None else AmplificationTracker()
        self._obs = None
        self.versions = VersionSet(self.options.max_levels,
                                   tiered=self.options.style == "two-tier")
        self.picker = CompactionPicker(self.options, self.versions)
        self.memtable = Memtable(seed=self.options.seed)
        self.log = LogWriter(storage.append_log, self.options.wal_block_size)
        self.block_cache = (LRUCache(self.options.block_cache_bytes)
                            if self.options.block_cache_bytes > 0 else None)
        self._tables: dict[str, SSTableReader] = {}
        self.compaction_records: list[CompactionRecord] = []
        self.flush_records: list[FlushRecord] = []
        # Callers (the store facade) may pass a long-lived DBStats so
        # operation counters survive crash-recovery.
        self.stats = stats if stats is not None else DBStats()
        self._mem_seed = self.options.seed
        self._flushes_since_scrub = 0

    # -- convenience ------------------------------------------------------

    @property
    def drive(self):
        return self.storage.drive

    @property
    def now(self) -> float:
        return self.drive.now

    @property
    def last_sequence(self) -> int:
        return self.versions.last_sequence

    # -- write path -------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self.stats.puts += 1
        self.write(WriteBatch().put(key, value))

    def delete(self, key: bytes) -> None:
        self.stats.deletes += 1
        self.write(WriteBatch().delete(key))

    def write(self, batch: WriteBatch) -> None:
        """Apply an atomic batch: WAL first, then the memtable."""
        if len(batch) == 0:
            return
        sequence = self.versions.last_sequence + 1
        self.log.add_record(batch.serialize(sequence))
        for offset, (type_, key, value) in enumerate(batch.ops):
            self.memtable.add(sequence + offset, type_, key, value)
        self.versions.last_sequence += len(batch)
        self.tracker.add_user_write(batch.byte_size())
        if self.memtable.approximate_size >= self.options.write_buffer_size:
            self.flush()

    def flush(self) -> None:
        """Dump the memtable to an L0 table and run due compactions."""
        if len(self.memtable) == 0:
            return
        start = self.now
        obs = self._obs
        if obs is not None:
            obs.emit(FlushStart(ts=start, entries=len(self.memtable),
                                nbytes=self.memtable.approximate_size))
        builder = SSTableBuilder(self.options)
        for key, value in self.memtable.entries():
            builder.add(key, value)
        data, props = builder.finish()
        number = self.versions.new_file_number()
        meta = FileMetaData(number, props.file_size, props.smallest,
                            props.largest, props.num_entries, run=number)
        self.storage.write_files([(meta.name, data)])
        self.tracker.add_lsm_write(props.file_size, is_flush=True)
        if self.options.compaction_cpu_per_byte > 0:
            self.drive.clock.advance(
                self.options.compaction_cpu_per_byte * props.file_size)

        faults.trip(faults.FLUSH_INSTALL, self.drive.clock)
        edit = VersionEdit()
        edit.add_file(0, meta)
        self.versions.log_and_apply(edit)
        self._persist_manifest(edit)
        self.storage.reset_log()
        self.log.reset()
        self._mem_seed += 1
        self.memtable = Memtable(seed=self._mem_seed)
        self.flush_records.append(FlushRecord(start, self.now, meta.name,
                                              props.file_size))
        if obs is not None:
            obs.emit(FlushEnd(ts=self.now, name=meta.name,
                              nbytes=props.file_size,
                              duration=self.now - start))
        self.maybe_compact()
        # Idle-path scrubbing: the engine just finished a flush (and any
        # due compactions), which is the closest thing the synchronous
        # simulation has to idle time.  Off by default (interval 0).
        if self.options.scrub_interval_flushes > 0:
            self._flushes_since_scrub += 1
            if self._flushes_since_scrub >= self.options.scrub_interval_flushes:
                self._flushes_since_scrub = 0
                self.scrub()

    def scrub(self):
        """Run one scrub pass over every live table (see
        :mod:`repro.resilience.scrub`)."""
        from repro.resilience.scrub import scrub
        return scrub(self)

    # -- read path ----------------------------------------------------------

    def get(self, key: bytes, snapshot: int | None = None) -> bytes | None:
        """Newest value for ``key`` visible at ``snapshot`` (None = latest)."""
        self.stats.gets += 1
        if self.options.read_cpu_seconds > 0:
            self.drive.clock.advance(self.options.read_cpu_seconds)
        sequence = self.versions.last_sequence if snapshot is None else snapshot
        found, value = self.memtable.get(key, sequence)
        if found:
            if value is not None:
                self.stats.get_hits += 1
            return value
        for level, meta in self.versions.current.files_for_get(key):
            if meta.quarantined:
                # Every newer table already missed, so the answer may
                # live behind the fence: refuse rather than guess.
                raise KeyRangeUnavailable(
                    f"key range of quarantined table {meta.name} "
                    f"(L{level}) is unavailable",
                    smallest=meta.smallest.user_key,
                    largest=meta.largest.user_key)
            try:
                reader = self._table(meta)
                found, value = reader.get(key, sequence)
            except (CorruptionError, MediaError) as exc:
                self._quarantine(level, meta, repr(exc))
                raise KeyRangeUnavailable(
                    f"table {meta.name} (L{level}) quarantined mid-read: {exc}",
                    smallest=meta.smallest.user_key,
                    largest=meta.largest.user_key) from exc
            if found:
                if value is not None:
                    self.stats.get_hits += 1
                return value
        return None

    def scan(self, start: bytes | None = None, end: bytes | None = None,
             limit: int | None = None,
             snapshot: int | None = None) -> Iterator[tuple[bytes, bytes]]:
        """Ordered iteration of live pairs in ``[start, end)``."""
        self.stats.scans += 1
        if self.options.read_cpu_seconds > 0:
            self.drive.clock.advance(self.options.read_cpu_seconds)
        sequence = self.versions.last_sequence if snapshot is None else snapshot
        target = lookup_key(start, sequence) if start is not None else None
        sources: list[Iterator[tuple[Key, bytes]]] = []
        if target is not None:
            sources.append(self.memtable.entries_from(target))
        else:
            sources.append(self.memtable.entries())
        version = self.versions.current
        if version.num_quarantined:
            # A scan cannot skip a fenced table and stay correct: it
            # might hold the newest version of any key in its range.
            self._check_scan_range(version, start, end)
        # Set-granular reads (the paper changes the get/put unit from
        # SSTables to sets) pay off for long scans; a short limited scan
        # touches a fraction of a table, so it keeps block reads.
        prefetch = self.options.use_sets and (limit is None or limit >= 500)
        for meta in version.files[0]:
            if end is not None and meta.smallest.user_key >= end:
                continue
            sources.append(self._table_scan_source(0, meta, target, prefetch))
        for level in range(1, version.num_levels):
            files = version.overlapping_files(level, start, None)
            if end is not None:
                files = [f for f in files if f.smallest.user_key < end]
            if not files:
                continue
            if version.level_is_tiered(level):
                # Overlapping runs cannot be concatenated: one source each.
                for meta in files:
                    sources.append(self._table_scan_source(level, meta,
                                                           target, prefetch))
            else:
                sources.append(self._level_iterator(level, files, target,
                                                    prefetch))
        merged = merge_iterators(sources)
        yield from take_range(DBIterator(merged, sequence), start, end, limit)

    def _check_scan_range(self, version, start: bytes | None,
                          end: bytes | None) -> None:
        """Refuse a scan whose range touches a quarantined table."""
        for level, meta in version.quarantined_files():
            if end is not None and meta.smallest.user_key >= end:
                continue
            if start is not None and meta.largest.user_key < start:
                continue
            raise KeyRangeUnavailable(
                f"scan range intersects quarantined table {meta.name} "
                f"(L{level})",
                smallest=meta.smallest.user_key,
                largest=meta.largest.user_key)

    def _table_scan_source(self, level: int, meta: FileMetaData,
                           target: Key | None,
                           prefetch: bool
                           ) -> Iterator[tuple[Key, bytes]]:
        """One table as a scan source.

        With ``prefetch`` the whole table is streamed with one
        sequential read the moment the scan first touches it (set
        granularity), and the buffer is dropped once the scan moves
        past.  A persistent read failure mid-scan quarantines the table
        and surfaces as :class:`~repro.errors.KeyRangeUnavailable` to
        the consumer of the iterator.
        """
        try:
            reader = self._table(meta)
            prefetched = False
            if prefetch and reader._buffer is None:
                reader.prefetch()
                prefetched = True
            try:
                if target is not None:
                    yield from reader.iterate_from(target)
                else:
                    yield from reader
            finally:
                if prefetched:
                    reader.release()
        except (CorruptionError, MediaError) as exc:
            self._quarantine(level, meta, repr(exc))
            raise KeyRangeUnavailable(
                f"table {meta.name} (L{level}) quarantined mid-scan: {exc}",
                smallest=meta.smallest.user_key,
                largest=meta.largest.user_key) from exc

    def _level_iterator(self, level: int, files: list[FileMetaData],
                        target: Key | None,
                        prefetch: bool
                        ) -> Iterator[tuple[Key, bytes]]:
        for index, meta in enumerate(files):
            yield from self._table_scan_source(
                level, meta, target if index == 0 else None, prefetch)

    # -- compaction ----------------------------------------------------------

    def maybe_compact(self) -> None:
        """Run compactions until every level is within budget.

        While a level holds a quarantined table the tree may stay over
        budget: a compaction that would have to *read* fenced-off bytes
        is deferred rather than crashed, and the store serves degraded
        until ``repair()``.  A compaction that hits fresh corruption
        mid-merge scrubs its inputs, quarantines the sick ones, and
        likewise defers.
        """
        while True:
            compaction = self.picker.pick(self._invalid_count_fn())
            if compaction is None:
                return
            if any(m.quarantined for m in compaction.all_files):
                return
            try:
                self.run_compaction(compaction)
            except (CorruptionError, MediaError):
                if not self._quarantine_sick_inputs(compaction):
                    raise  # transient after all -- surface it
                self._remove_orphan_files()  # partial outputs, if any
                return

    def _quarantine_sick_inputs(self, compaction: Compaction) -> int:
        """Verify each input of a failed compaction; quarantine the
        tables that fail persistently.  Returns how many were fenced."""
        fenced = 0
        pairs = ([(compaction.level, m) for m in compaction.inputs]
                 + [(compaction.output_level, m) for m in compaction.overlaps])
        for level, meta in pairs:
            try:
                self._table(meta).verify_blocks()
            except (CorruptionError, MediaError) as exc:
                self._quarantine(level, meta, repr(exc))
                fenced += 1
        return fenced

    def compact_range(self, start: bytes | None = None,
                      end: bytes | None = None) -> int:
        """Manually push every key in ``[start, end]`` to deeper levels.

        LevelDB's ``CompactRange``: flushes the memtable, then walks the
        tree top-down compacting each level's overlapping files into the
        next.  Returns the number of compactions executed.  Useful for
        space-reclaim after bulk deletes (tombstones only die at the
        bottom level).
        """
        self.flush()
        executed = 0
        for level in range(self.options.max_levels - 1):
            while True:
                files = self.versions.current.overlapping_files(
                    level, start, end)
                if not files:
                    break
                sick = next((f for f in files if f.quarantined), None)
                if sick is not None:
                    raise KeyRangeUnavailable(
                        f"cannot compact range over quarantined table "
                        f"{sick.name} (L{level}); repair() first",
                        smallest=sick.smallest.user_key,
                        largest=sick.largest.user_key)
                if level == 0:
                    compaction = self.picker._pick_l0(self.versions.current)
                else:
                    victim = files[0]
                    overlaps = self.versions.current.overlapping_files(
                        level + 1, victim.smallest.user_key,
                        victim.largest.user_key)
                    compaction = Compaction(level, [victim], overlaps)
                self.run_compaction(compaction)
                executed += 1
        self.maybe_compact()
        return executed

    def _invalid_count_fn(self):
        if self.options.victim_policy != "invalid-set-first":
            return None
        counter = getattr(self.storage, "group_invalid_count", None)
        return counter

    def run_compaction(self, compaction: Compaction) -> None:
        start = self.now
        version = self.versions.current
        obs = self._obs
        if obs is not None:
            obs.emit(CompactionStart(
                ts=start, level=compaction.level,
                output_level=compaction.output_level,
                num_inputs=len(compaction.all_files),
                input_bytes=compaction.input_bytes,
                trivial_move=compaction.is_trivial_move()))

        if compaction.is_trivial_move():
            meta = compaction.inputs[0]
            faults.trip(faults.COMPACTION_INSTALL, self.drive.clock)
            edit = VersionEdit()
            edit.delete_file(compaction.level, meta.number)
            edit.add_file(compaction.output_level, meta)
            self.versions.log_and_apply(edit)
            self.versions.compact_pointer[compaction.level] = meta.largest.user_key
            self._persist_manifest(edit)
            extents = self.storage.file_extents(meta.name)
            record = CompactionRecord(
                len(self.compaction_records), compaction.level,
                compaction.output_level, start, self.now,
                [meta.name], [meta.name], [extents], [extents],
                meta.size, meta.size, trivial_move=True,
            )
            self.compaction_records.append(record)
            if obs is not None:
                obs.emit(_compaction_end_event(record))
            return

        readers = [self._table(meta) for meta in compaction.all_files]
        if self.options.do_prefetch:
            # Stream each input file with one sequential read.  Reading
            # in physical-address order keeps a contiguous set fully
            # sequential on the platter.
            for reader in sorted(readers,
                                 key=lambda r: self._first_offset(r.name)):
                reader.prefetch()
            sources = [iter(reader) for reader in readers]
        else:
            # k-way merges share one readahead budget: the more input
            # streams, the less runway each one gets before the head
            # must service another stream.
            per_source = max(1, self.options.compaction_readahead_budget
                             // max(1, len(readers)))
            sources = [reader.iterate(per_source) for reader in readers]

        merged = merge_iterators(sources)
        input_numbers = {meta.number for meta in compaction.all_files}
        entries = compact_entries(
            merged,
            self._base_level_checker(version, compaction.output_level,
                                     input_numbers),
        )

        outputs: list[tuple[str, bytes]] = []
        output_meta: list[FileMetaData] = []
        builder: SSTableBuilder | None = None
        stream = None
        current_number: int | None = None
        run_id = self.versions.next_file_number  # all outputs share a run
        if self.options.do_prefetch:
            chunk = self.options.readahead_blocks * self.options.block_size
        else:
            # Output writeback shares the same degraded granularity as
            # the merge's reads: a giant k-way merge thrashes its
            # buffers on both sides.
            per_source = max(1, self.options.compaction_readahead_budget
                             // max(1, len(compaction.all_files)))
            chunk = per_source * self.options.block_size

        def start_builder() -> None:
            nonlocal builder, stream, current_number
            builder = SSTableBuilder(self.options)
            current_number = self.versions.new_file_number()
            if not self.options.use_sets:
                # Stream the output so its writes interleave with the
                # merge's reads on the device -- stock LevelDB behaviour.
                stream = self.storage.create_stream(
                    f"{current_number:06d}.sst", chunk)

        def finish_builder() -> None:
            nonlocal builder, stream, current_number
            assert builder is not None and current_number is not None
            tail, props = builder.finish()
            meta = FileMetaData(current_number, props.file_size,
                                props.smallest, props.largest,
                                props.num_entries, run_id)
            output_meta.append(meta)
            if self.options.use_sets:
                outputs.append((meta.name, tail))
            else:
                assert stream is not None
                stream.append(tail)
                stream.close()
            builder = None
            stream = None
            current_number = None

        sstable_size = self.options.sstable_size
        try:
            for key, value in entries:
                if builder is None:
                    start_builder()
                size = builder.add(key, value)
                if stream is not None and builder.pending_bytes >= chunk:
                    stream.append(builder.drain())
                if size >= sstable_size:
                    finish_builder()
            if builder is not None and builder.num_entries > 0:
                finish_builder()
        except BaseException:
            # The merge died (bad input block, crash) with an output
            # half written: hand its space back; finished outputs are
            # swept as orphans by the caller or by recovery.
            if stream is not None:
                stream.abort()
            raise

        if self.options.use_sets and outputs:
            self.storage.write_files(outputs)

        for reader in readers:
            reader.release()

        output_total = sum(m.size for m in output_meta)
        if self.options.compaction_cpu_per_byte > 0:
            self.drive.clock.advance(
                self.options.compaction_cpu_per_byte
                * (compaction.input_bytes + output_total))

        input_extents = [self.storage.file_extents(m.name)
                         for m in compaction.all_files]
        output_extents = [self.storage.file_extents(m.name)
                          for m in output_meta]

        faults.trip(faults.COMPACTION_INSTALL, self.drive.clock)
        edit = VersionEdit()
        for meta in compaction.inputs:
            edit.delete_file(compaction.level, meta.number)
        for meta in compaction.overlaps:
            edit.delete_file(compaction.output_level, meta.number)
        for meta in output_meta:
            edit.add_file(compaction.output_level, meta)
        self.versions.log_and_apply(edit)
        self.versions.compact_pointer[compaction.level] = max(
            m.largest.user_key for m in compaction.inputs
        )
        self._persist_manifest(edit)

        doomed = [m.name for m in compaction.all_files]
        self.storage.delete_files(doomed)
        for name in doomed:
            self._tables.pop(name, None)
            if self.block_cache is not None:
                self.block_cache.evict_prefix((name,))

        output_bytes = output_total
        self.tracker.add_lsm_write(output_bytes)
        record = CompactionRecord(
            len(self.compaction_records), compaction.level,
            compaction.output_level, start, self.now,
            [m.name for m in compaction.all_files],
            [m.name for m in output_meta],
            input_extents, output_extents,
            compaction.input_bytes, output_bytes,
        )
        self.compaction_records.append(record)
        if obs is not None:
            obs.emit(_compaction_end_event(record))

    def _first_offset(self, name: str) -> int:
        extents = self.storage.file_extents(name)
        return extents[0].start if extents else 0

    def _base_level_checker(self, version, output_level: int,
                            input_numbers: set[int]):
        """A tombstone may be dropped iff no table *outside the
        compaction inputs* at the output level or deeper can hold an
        older version of the key (tiered levels keep peer runs at the
        output level itself, so they must be checked too)."""
        def is_base_level_for(user_key: bytes) -> bool:
            for level in range(output_level, version.num_levels):
                for f in version.overlapping_files(level, user_key, user_key):
                    if f.number not in input_numbers:
                        return False
            return True
        return is_base_level_for

    # -- tables / manifest / recovery -------------------------------------

    def _table(self, meta: FileMetaData) -> SSTableReader:
        reader = self._tables.get(meta.name)
        if reader is None:
            reader = SSTableReader(self.storage, meta.name, meta.size,
                                   self.block_cache,
                                   readahead_blocks=self.options.readahead_blocks,
                                   paranoid_checks=self.options.paranoid_checks,
                                   read_retries=self.options.read_retries,
                                   read_retry_backoff_s=self.options.read_retry_backoff_s,
                                   stats=self.stats)
            self._tables[meta.name] = reader
            self.stats.tables_opened += 1
        return reader

    # -- quarantine (media-fault state machine) ---------------------------

    def _quarantine(self, level: int, meta: FileMetaData, reason: str) -> None:
        """Fence off ``meta``: mark it QUARANTINED in the manifest, drop
        its reader and cached blocks, and record the degraded range.

        The table file itself stays on disk -- ``repair()`` may still
        salvage other tables around it, and keeping the entry in the
        manifest is what lets every read over the range fail *typed*
        instead of silently missing data.
        """
        if meta.quarantined:
            return
        edit = VersionEdit()
        edit.delete_file(level, meta.number)
        edit.add_file(level, replace(meta, quarantined=True))
        self.versions.log_and_apply(edit)
        self._persist_manifest(edit)
        self._tables.pop(meta.name, None)
        if self.block_cache is not None:
            self.block_cache.evict_prefix((meta.name,))
        self.stats.quarantines += 1
        obs = self._obs
        if obs is not None:
            obs.emit(QuarantineEvent(ts=self.now, name=meta.name,
                                     level=level, reason=reason))

    @property
    def quarantined_tables(self) -> int:
        """How many tables are currently fenced off."""
        return self.versions.current.num_quarantined

    def degraded_ranges(self) -> list[tuple[bytes, bytes]]:
        """User-key ranges currently unserveable, one per quarantined
        table (the ``DBStats``-level view of degradation)."""
        return [(meta.smallest.user_key, meta.largest.user_key)
                for _level, meta in self.versions.current.quarantined_files()]

    def _persist_manifest(self, edit: VersionEdit) -> None:
        """Append the edit to the manifest log; on overflow, restart the
        log with a full snapshot (LevelDB's manifest rollover)."""
        from repro.errors import AllocationError

        edit.next_file_number = self.versions.next_file_number
        edit.last_sequence = self.versions.last_sequence
        try:
            self.storage.append_meta_record(Storage.META_EDIT,
                                            edit.serialize())
        except AllocationError:
            self.storage.reset_meta()
            try:
                self.storage.append_meta_record(Storage.META_SNAPSHOT,
                                                self.versions.serialize())
            except AllocationError as exc:
                raise InvariantViolation(
                    "meta region too small to hold one manifest snapshot; "
                    "increase the profile's meta_region"
                ) from exc

    @classmethod
    def recover(cls, storage: Storage, options: Options | None = None,
                tracker: AmplificationTracker | None = None,
                stats: DBStats | None = None) -> "DB":
        """Reconstruct a DB from its manifest and WAL after a 'crash'."""
        db = cls(storage, options, tracker, stats=stats)
        tiered = db.options.style == "two-tier"
        for kind, payload in storage.read_meta_records():
            if kind == Storage.META_SNAPSHOT:
                db.versions = VersionSet.deserialize(payload, tiered=tiered)
                if db.versions.num_levels != db.options.max_levels:
                    raise InvariantViolation(
                        "manifest level count does not match options"
                    )
            elif kind == Storage.META_EDIT:
                edit = VersionEdit.deserialize(payload)
                db.versions.log_and_apply(edit)
                if edit.next_file_number:
                    db.versions.next_file_number = edit.next_file_number
                if edit.last_sequence:
                    db.versions.last_sequence = edit.last_sequence
            else:
                raise InvariantViolation(f"unknown meta record kind {kind}")
        db.picker = CompactionPicker(db.options, db.versions)
        wal_bytes = storage.read_log_bytes()
        payloads, valid_len = scan_log(wal_bytes, db.options.wal_block_size)
        max_seq = db.versions.last_sequence
        for payload in payloads:
            sequence, batch = WriteBatch.deserialize(payload)
            for offset, (type_, key, value) in enumerate(batch.ops):
                db.memtable.add(sequence + offset, type_, key, value)
            max_seq = max(max_seq, sequence + len(batch) - 1)
        db.versions.last_sequence = max_seq
        db.log = LogWriter(storage.append_log, db.options.wal_block_size)
        if valid_len < len(wal_bytes):
            # Torn tail: rewrite the salvaged records as a fresh log.
            # Appending after the garbage instead would make every
            # later record unreachable to the next recovery (it stops
            # at the damage) -- acked writes would vanish on the second
            # crash.
            storage.reset_log()
            for payload in payloads:
                db.log.add_record(payload)
        else:
            db.log._block_offset = valid_len % db.options.wal_block_size
        if storage.meta_log_damaged():
            # Same reasoning for the manifest: restart it from a clean
            # snapshot of the recovered state before anything appends.
            storage.reset_meta()
            storage.append_meta_record(Storage.META_SNAPSHOT,
                                       db.versions.serialize())
        db._remove_orphan_files()
        return db

    def _remove_orphan_files(self) -> None:
        """Delete table files the manifest does not reference.

        A crash between writing compaction outputs and logging the
        version edit leaves orphans on disk; LevelDB garbage-collects
        them during recovery by scanning the directory, and so do we.
        """
        live = {meta.name
                for level in self.versions.current.files
                for meta in level}
        for name in list(self.storage.list_files()):
            if name.endswith(".sst") and name not in live:
                self.storage.delete_file(name)

    def close(self) -> None:
        """Flush buffered writes so all state is on 'disk'."""
        self.flush()

    def delete_range(self, start: bytes, end: bytes,
                     batch_size: int = 256) -> int:
        """Delete every live key in ``[start, end)``; returns the count.

        Implemented as scan + batched tombstones (LevelDB has no range
        tombstones).  Follow with :meth:`compact_range` to reclaim the
        space immediately.
        """
        doomed: list[bytes] = []
        for key, _value in self.scan(start, end):
            doomed.append(key)
        deleted = 0
        batch = WriteBatch()
        for key in doomed:
            batch.delete(key)
            deleted += 1
            if len(batch) >= batch_size:
                self.write(batch)
                batch = WriteBatch()
        if len(batch):
            self.write(batch)
        return deleted

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> "Snapshot":
        """A consistent point-in-time view (LevelDB ``GetSnapshot``).

        Reads through the handle ignore every write issued after its
        creation.  Works as a context manager::

            with db.snapshot() as snap:
                old = snap.get(key)
        """
        return Snapshot(self, self.versions.last_sequence)

    # -- introspection ---------------------------------------------------

    def approximate_size(self, start: bytes | None = None,
                         end: bytes | None = None) -> int:
        """Approximate on-disk bytes holding keys in ``[start, end]``.

        LevelDB's ``GetApproximateSizes``: files fully inside the range
        count whole; boundary files count by the fraction of their key
        range inside (assuming uniform density).  The memtable is not
        included, matching LevelDB.
        """
        version = self.versions.current
        total = 0.0
        for level in range(version.num_levels):
            for meta in version.overlapping_files(level, start, end):
                total += meta.size * _range_overlap_fraction(meta, start, end)
        return int(total)

    def level_summary(self) -> list[tuple[int, int, int]]:
        """Per level: ``(level, file_count, total_bytes)``."""
        version = self.versions.current
        return [(level, len(version.files[level]), version.level_bytes(level))
                for level in range(version.num_levels)]

    def check_invariants(self) -> None:
        self.versions.current.check_invariants()


class Snapshot:
    """A sequence-number-pinned read view of one DB.

    Note the simulation's caveat: compactions drop versions older than
    the newest per key, so a snapshot taken *before* heavy overwrites
    and read *after* compactions may see the newer value.  Snapshots are
    intended for consistent multi-read sequences between writes (the
    paper's workloads never hold one across compactions).
    """

    def __init__(self, db: DB, sequence: int) -> None:
        self._db = db
        self.sequence = sequence

    def get(self, key: bytes) -> bytes | None:
        return self._db.get(key, snapshot=self.sequence)

    def scan(self, start: bytes | None = None, end: bytes | None = None,
             limit: int | None = None):
        return self._db.scan(start, end, limit, snapshot=self.sequence)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *_exc) -> None:
        return None


def _range_overlap_fraction(meta: FileMetaData, start: bytes | None,
                            end: bytes | None) -> float:
    """Rough fraction of ``meta``'s key range inside ``[start, end]``.

    Keys are compared via their first 8 bytes interpreted as integers --
    crude, but only the *approximation* quality depends on it.
    """
    lo = _key_to_float(meta.smallest.user_key)
    hi = _key_to_float(meta.largest.user_key)
    if hi <= lo:
        return 1.0
    clip_lo = max(lo, _key_to_float(start)) if start is not None else lo
    clip_hi = min(hi, _key_to_float(end)) if end is not None else hi
    if clip_hi <= clip_lo:
        return 0.0
    return (clip_hi - clip_lo) / (hi - lo)


def _key_to_float(key: bytes) -> float:
    padded = key[:8].ljust(8, b"\x00")
    return float(int.from_bytes(padded, "big"))
