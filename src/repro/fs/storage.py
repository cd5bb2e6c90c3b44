"""Storage abstraction: named byte objects placed on a simulated drive.

The LSM engine above is placement-agnostic; it writes whole SSTables,
reads ranges, appends to a write-ahead log, and checkpoints small
metadata blobs.  Every placement policy implements this interface.

Two fixed *regions* at the front of the drive serve the log and the
metadata checkpoints for **all** policies, so WAL/manifest traffic is
identical across stores and never pollutes the table-data accounting
(their drive categories are ``wal`` and ``meta``, see
:mod:`repro.smr.stats`).
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Sequence

from repro import faults
from repro.errors import (
    AllocationError,
    FileNotFoundStorageError,
    StorageError,
)
from repro.obs.events import ManifestAppend, WALAppend
from repro.smr.drive import Drive
from repro.smr.extent import Extent
from repro.smr.stats import CATEGORY_META, CATEGORY_TABLE, CATEGORY_WAL


class LogRegion:
    """An append-only region with whole-region reset.

    Appends advance a tail pointer; ``reset`` trims the region and
    rewinds.  Both patterns are sequential, hence legal on every drive
    model including raw HM-SMR (the caller leaves a guard gap after the
    region).
    """

    def __init__(self, drive: Drive, start: int, size: int, category: str) -> None:
        if start < 0 or size <= 0 or start + size > drive.capacity:
            raise StorageError(f"log region [{start}, {start + size}) does not fit drive")
        self.drive = drive
        self.start = start
        self.size = size
        self.category = category
        self.tail = start

    @property
    def used(self) -> int:
        return self.tail - self.start

    def append(self, data: bytes) -> None:
        if self.tail + len(data) > self.start + self.size:
            raise AllocationError(
                f"log region overflow: {len(data)} bytes at tail {self.tail}, "
                f"region ends at {self.start + self.size}"
            )
        self.drive.write_buffered(self.tail, data, category=self.category)
        self.tail += len(data)

    def read_all(self) -> bytes:
        """Return everything appended since the last reset."""
        if self.tail == self.start:
            return b""
        return self.drive.read(self.start, self.tail - self.start, category=self.category)

    def reset(self) -> None:
        self.drive.trim(self.start, self.size)
        self.tail = self.start


class Storage(ABC):
    """Named-object placement policy over a simulated drive.

    Concrete subclasses implement table-file placement; the WAL and the
    metadata checkpoint area are provided here.
    """

    def __init__(self, drive: Drive, *, wal_size: int, meta_size: int,
                 region_gap: int = 0) -> None:
        self.drive = drive
        self.region_gap = region_gap
        #: observability bus; None while no subscriber (zero-cost hooks)
        self._obs = None
        self.wal = LogRegion(drive, 0, wal_size, CATEGORY_WAL)
        meta_start = wal_size + region_gap
        # The manifest area is split into two half-size slots so a
        # rollover (reset + fresh snapshot) never destroys the only
        # copy: the old slot stays intact until the new one holds a
        # generation header *and* a snapshot.
        half = meta_size // 2
        if half <= 0:
            raise StorageError(f"meta region too small to slot: {meta_size}")
        self._meta_slots = [
            LogRegion(drive, meta_start, half, CATEGORY_META),
            LogRegion(drive, meta_start + half, meta_size - half, CATEGORY_META),
        ]
        self._active_meta = 0
        self._meta_generation = 1
        self._meta_damaged = False
        #: first byte available for table data
        self.data_start = meta_start + meta_size + region_gap
        #: the name -> location indirection shared by every policy
        self._files: dict[str, tuple[list[Extent], int]] = {}

    # -- write-ahead log -------------------------------------------------

    def append_log(self, data: bytes) -> None:
        """Append a record blob to the write-ahead log."""
        self.wal.append(data)
        obs = self._obs
        if obs is not None:
            obs.emit(WALAppend(ts=self.drive.now, nbytes=len(data)))

    def read_log_bytes(self) -> bytes:
        """All WAL bytes since the last reset (for recovery replay)."""
        return self.wal.read_all()

    def reset_log(self) -> None:
        """Discard the WAL (after a successful memtable flush)."""
        self.wal.reset()

    # -- metadata log (manifest) -------------------------------------------

    #: meta record kinds
    META_SNAPSHOT = 1
    META_EDIT = 2
    #: slot generation header, written by :meth:`reset_meta`
    META_OPEN = 3

    @property
    def meta_region(self) -> LogRegion:
        """The active manifest slot (see the two-slot rollover scheme)."""
        return self._meta_slots[self._active_meta]

    @staticmethod
    def _meta_frame(kind: int, payload: bytes) -> bytes:
        frame = bytearray([kind])
        frame += len(payload).to_bytes(4, "little")
        frame += zlib.crc32(payload).to_bytes(4, "little")
        frame += payload
        return bytes(frame)

    def _append_meta_frame(self, slot: LogRegion, kind: int,
                           payload: bytes) -> None:
        """Frame and append one record, threading the ``manifest.log``
        failpoint (a torn action appends only a prefix of the frame)."""
        frame = self._meta_frame(kind, payload)
        if slot.tail + len(frame) > slot.start + slot.size:
            raise AllocationError(
                f"meta slot overflow: {len(frame)} bytes at tail {slot.tail}, "
                f"slot ends at {slot.start + slot.size}"
            )
        inj = faults.fire(faults.MANIFEST_LOG, data=frame)
        if inj is not None:
            frame = inj.mutate_bytes(frame)
        if frame:
            slot.append(frame)
        if inj is not None:
            inj.finish()
        obs = self._obs
        if obs is not None:
            obs.emit(ManifestAppend(ts=self.drive.now, nbytes=len(frame)))

    def append_meta_record(self, kind: int, payload: bytes) -> None:
        """Append one framed record to the metadata log.

        Raises :class:`AllocationError` when the active slot is full;
        the caller then rolls over via :meth:`reset_meta` and writes a
        fresh snapshot.
        """
        self._append_meta_frame(self.meta_region, kind, payload)

    @staticmethod
    def _parse_meta(data: bytes) -> tuple[list[tuple[int, bytes]], int, bool]:
        """Parse framed records; -> ``(records, valid_len, crc_error)``.

        Stops at a truncated tail (torn append) without raising;
        ``valid_len`` is the length of the well-formed prefix.  A
        checksum mismatch in a complete frame stops the parse and sets
        ``crc_error`` instead -- the caller decides whether that is
        fatal.
        """
        records: list[tuple[int, bytes]] = []
        pos = 0
        while pos + 9 <= len(data):
            kind = data[pos]
            length = int.from_bytes(data[pos + 1 : pos + 5], "little")
            crc = int.from_bytes(data[pos + 5 : pos + 9], "little")
            if kind == 0 and length == 0:
                break  # unwritten space, not a record
            payload = data[pos + 9 : pos + 9 + length]
            if len(payload) < length:
                break  # truncated tail
            if zlib.crc32(payload) != crc:
                return records, pos, True
            records.append((kind, bytes(payload)))
            pos += 9 + length
        return records, pos, False

    def _slot_state(self, index: int):
        """-> ``(generation, body, usable, damaged, crc_error)`` for one slot.

        ``body`` excludes the generation header.  A slot opened by
        :meth:`reset_meta` is usable only once a snapshot follows its
        header -- until then the previous slot is the manifest of
        record.  Slot 0 with no header is the initial (generation 1)
        manifest and is usable even when empty (a fresh store).
        """
        data = self._meta_slots[index].read_all()
        records, valid_len, crc_error = self._parse_meta(data)
        if records and records[0][0] == self.META_OPEN:
            generation = int.from_bytes(records[0][1][:8], "little")
            body = records[1:]
            usable = (not crc_error and bool(body)
                      and body[0][0] == self.META_SNAPSHOT)
        else:
            generation = 1
            body = records
            usable = not crc_error and index == 0
        damaged = crc_error or valid_len < len(data)
        return generation, body, usable, damaged, crc_error

    def read_meta_records(self) -> list[tuple[int, bytes]]:
        """The records of the manifest of record, in append order.

        Prefers the active slot; falls back to the other slot when a
        crash left the active one mid-rollover (generation header
        without a snapshot).  Raises :class:`StorageError` when neither
        slot holds a readable manifest.
        """
        gen, body, usable, damaged, crc_error = self._slot_state(self._active_meta)
        if usable:
            self._meta_damaged = damaged
            return body
        other = 1 - self._active_meta
        ogen, obody, ousable, odamaged, ocrc = self._slot_state(other)
        if not ousable:
            if crc_error or ocrc:
                raise StorageError("meta record crc mismatch")
            raise StorageError("no usable manifest slot")
        self._active_meta = other
        self._meta_generation = ogen
        self._meta_damaged = odamaged
        return obody

    def meta_log_damaged(self) -> bool:
        """Whether the last :meth:`read_meta_records` found a torn tail.

        Recovery must then rewrite the manifest (reset + snapshot)
        before appending: records appended after garbage would be
        unreachable to the next recovery.
        """
        return self._meta_damaged

    def reset_meta(self) -> None:
        """Start a fresh manifest in the inactive slot (atomic rollover).

        The old slot stays intact until the new slot's generation header
        is durable, and :meth:`read_meta_records` keeps preferring the
        old slot until a snapshot follows the header -- so a crash
        anywhere inside a rollover loses at most the records the caller
        had not yet written.
        """
        target = 1 - self._active_meta
        slot = self._meta_slots[target]
        slot.reset()
        generation = self._meta_generation + 1
        self._append_meta_frame(slot, self.META_OPEN,
                                generation.to_bytes(8, "little"))
        self._active_meta = target
        self._meta_generation = generation
        self._meta_damaged = False

    # -- table files -------------------------------------------------------
    #
    # Policy contract.  This class owns the file table -- a file is
    # ``(list[Extent], size)`` and a read walks its extents -- together
    # with the name checks, the two failpoints and the chunking stream.
    # A policy implements ``write_file`` / ``delete_file`` (allocate the
    # extents of one file, release them), optionally ``_write_files``
    # (allocate one run for a group) and, if it streams, ``_extend`` /
    # ``_abandon``; it enters files through ``_commit`` or
    # ``_place_group`` and removes them through ``_pop``.

    def create_stream(self, name: str, chunk_size: int,
                      category: str = CATEGORY_TABLE) -> "FileStream":
        """Open a named object for incremental writing.

        Streaming matters for timing fidelity: a compaction that drains
        its output as the merge proceeds makes the disk head ping-pong
        between input reads and output writes.  The base implementation
        falls back to buffering (one ``write_file`` at close); policies
        with real incremental placement return a :class:`FileStream`.
        """
        return BufferedStream(self, name, chunk_size, category)

    @abstractmethod
    def write_file(self, name: str, data: bytes,
                   category: str = CATEGORY_TABLE) -> None:
        """Write a complete named object."""

    def write_files(self, files: Sequence[tuple[str, bytes]],
                    category: str = CATEGORY_TABLE) -> None:
        """Write a group of objects produced together (one compaction).

        Carries the ``storage.write_files`` failpoint: a torn action
        places only a prefix of the group before the simulated power
        failure.  Placement itself is :meth:`_write_files`, which the
        base class does one file at a time; set-aware policies override
        it to place the whole group contiguously.
        """
        inj = faults.fire(faults.STORAGE_WRITE_FILES, units=len(files))
        if inj is None:
            self._write_files(files, category)
            return
        keep = inj.keep_units(len(files))
        if keep > 0:
            self._write_files(list(files)[:keep], category)
        inj.finish()

    def _write_files(self, files: Sequence[tuple[str, bytes]],
                     category: str = CATEGORY_TABLE) -> None:
        for name, data in files:
            self.write_file(name, data, category)

    def _place_group(self, files, offset: int,
                     category: str) -> list[tuple[str, Extent]]:
        """Write ``files`` back to back from ``offset`` and enter them.

        Nothing is entered unless every write succeeds, so on failure
        the caller only has to release the run it allocated.
        """
        members: list[tuple[str, Extent]] = []
        for name, data in files:
            self.drive.write(offset, data, category=category)
            members.append((name, Extent(offset, offset + len(data))))
            offset += len(data)
        for name, extent in members:
            self._files[name] = ([extent], extent.length)
        return members

    def read_file(self, name: str, offset: int, length: int,
                  category: str = CATEGORY_TABLE) -> bytes:
        """Read ``length`` bytes of object ``name`` starting at ``offset``.

        Carries the ``storage.read`` failpoint, fired *after* the
        bytes were fetched so a ``corrupt`` action can flip the
        returned payload (a transient read glitch, distinct from the
        drive's persistent media-error map).
        """
        data = self._read_file(name, offset, length, category)
        inj = faults.fire(faults.STORAGE_READ, data=data)
        if inj is not None:
            data = inj.mutate_bytes(data)
            inj.finish()
        return data

    def _read_file(self, name: str, offset: int, length: int,
                   category: str = CATEGORY_TABLE) -> bytes:
        """Walk the file's extents (no failpoint handling)."""
        extents, size = self._entry(name)
        end = offset + length
        if offset < 0 or length < 0 or end > size:
            raise StorageError(
                f"read outside {name!r}: [{offset}, {end}) size {size}")
        if len(extents) == 1:  # nearly every file: skip the walk's host cost
            return self.drive.read(extents[0].start + offset, length,
                                   category=category)
        pieces = []
        pos = 0
        for ext in extents:
            ext_end = pos + ext.length
            if ext_end > offset and pos < end:
                lo, hi = max(offset, pos), min(end, ext_end)
                pieces.append(self.drive.read(ext.start + (lo - pos), hi - lo,
                                              category=category))
            pos = ext_end
            if pos >= end:
                break
        return b"".join(pieces)

    @abstractmethod
    def delete_file(self, name: str) -> None:
        """Delete object ``name`` and release its space."""

    def delete_files(self, names: Sequence[str]) -> None:
        """Delete a group of objects invalidated together."""
        for name in names:
            self.delete_file(name)

    def file_size(self, name: str) -> int:
        """Size in bytes of object ``name``."""
        return self._entry(name)[1]

    def file_extents(self, name: str) -> list[Extent]:
        """Physical extents of object ``name`` (for layout tracing)."""
        return list(self._entry(name)[0])

    def exists(self, name: str) -> bool:
        """Whether object ``name`` exists."""
        return name in self._files

    def list_files(self) -> list[str]:
        """All object names, unordered."""
        return list(self._files)

    def _entry(self, name: str) -> tuple[list[Extent], int]:
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundStorageError(name) from None

    def _check_new(self, name: str) -> None:
        if name in self._files:
            raise StorageError(f"object {name!r} already exists")

    def _commit(self, name: str, extents: list[Extent], size: int) -> None:
        """Enter a fully placed file in the table."""
        self._files[name] = (extents, size)

    def _pop(self, name: str) -> list[Extent]:
        """Remove ``name`` from the table; returns the extents to release."""
        extents, _size = self._entry(name)
        del self._files[name]
        return extents

    # -- observability -----------------------------------------------------

    def register_gauges(self, metrics) -> None:
        """Add this policy's lazy gauges to a store's metrics registry
        (none by default)."""


class FileStream:
    """Incremental writer for one named object.

    Buffers appends and hands the policy one ``chunk_size`` piece at a
    time through ``storage._extend(extents, chunk, category)``, which
    places the chunk after the file's earlier ``extents`` and returns
    the new pieces (undoing its own partial work if it fails).
    """

    def __init__(self, storage: Storage, name: str, chunk_size: int,
                 category: str) -> None:
        storage._check_new(name)
        self._storage = storage
        self._name = name
        self._chunk = max(1, chunk_size)
        self._category = category
        self._extents: list[Extent] = []
        self._size = 0
        self._pending = bytearray()

    def append(self, data: bytes) -> None:
        """Add bytes to the object."""
        self._pending += data
        while len(self._pending) >= self._chunk:
            self._flush(self._chunk)

    def _flush(self, nbytes: int) -> None:
        chunk = bytes(self._pending[:nbytes])
        del self._pending[:nbytes]
        try:
            pieces = self._storage._extend(self._extents, chunk,
                                           self._category)
        except BaseException:
            self.abort()
            raise
        for piece in pieces:
            # merge physically consecutive pieces
            if self._extents and self._extents[-1].end == piece.start:
                self._extents[-1] = Extent(self._extents[-1].start, piece.end)
            else:
                self._extents.append(piece)
        self._size += len(chunk)

    def close(self) -> int:
        """Finish the object; returns its total size."""
        if self._pending:
            self._flush(len(self._pending))
        self._storage._commit(self._name, self._extents, self._size)
        return self._size

    def abort(self) -> None:
        """Abandon the object, returning whatever space it already took."""
        self._pending.clear()
        extents, self._extents = self._extents, []
        if extents:
            self._storage._abandon(extents)


class BufferedStream(FileStream):
    """Fallback stream: buffers everything, one placement at close."""

    def append(self, data: bytes) -> None:
        self._pending += data

    def close(self) -> int:
        self._storage.write_file(self._name, bytes(self._pending),
                                 self._category)
        return len(self._pending)


class BandAlignedStorage(Storage):
    """SMRDB's placement: every file lives in its own dedicated band.

    Files must not exceed the band size (SMRDB sizes its SSTables to
    match the band).  Deleting a file trims its band, resetting the
    band's write frontier so the band can be sequentially reused --
    which is precisely how SMRDB avoids auxiliary write amplification.
    """

    def __init__(self, drive: Drive, band_size: int, *, wal_size: int,
                 meta_size: int, region_gap: int = 0) -> None:
        super().__init__(drive, wal_size=wal_size, meta_size=meta_size,
                         region_gap=region_gap)
        self.band_size = band_size
        first_band = (self.data_start + band_size - 1) // band_size
        last_band = drive.capacity // band_size
        self._free_bands: list[int] = list(range(first_band, last_band))

    def write_file(self, name: str, data: bytes,
                   category: str = CATEGORY_TABLE) -> None:
        self._check_new(name)
        self._commit(name, self._extend([], data, category), len(data))

    def create_stream(self, name: str, chunk_size: int,
                      category: str = CATEGORY_TABLE) -> FileStream:
        return FileStream(self, name, chunk_size, category)

    def _extend(self, extents: list[Extent], data: bytes,
                category: str) -> list[Extent]:
        # a band file is one extent: the stream merges consecutive pieces
        used = extents[0].length if extents else 0
        if used + len(data) > self.band_size:
            raise AllocationError(
                f"object of {used + len(data)} B exceeds band size "
                f"{self.band_size}")
        if extents:
            cursor = extents[0].end
        else:
            if not self._free_bands:
                raise AllocationError("no free bands left")
            cursor = self._free_bands.pop(0) * self.band_size
        try:
            self.drive.write(cursor, data, category=category)
        except BaseException:
            if not extents:  # later chunks: the stream abandons its extents
                self._abandon([Extent(cursor, cursor)])
            raise
        return [Extent(cursor, cursor + len(data))]

    def _abandon(self, extents: list[Extent]) -> None:
        # A crash or failure mid-file leaves a half-filled band: trim
        # it and put it back first in line so the space is not leaked.
        start = extents[0].start
        self.drive.trim(start, self.band_size)
        self._free_bands.insert(0, start // self.band_size)

    def delete_file(self, name: str) -> None:
        for extent in self._pop(name):
            self.drive.trim(extent.start, self.band_size)
            self._free_bands.append(extent.start // self.band_size)
