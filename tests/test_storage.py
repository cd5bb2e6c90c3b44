"""Tests for the storage policies: regions, ext4, band-aligned, dynamic-band."""

import pytest

from repro.core.storage import DynamicBandStorage
from repro.errors import (
    AllocationError,
    FileNotFoundStorageError,
    StorageError,
)
from repro.fs.ext4sim import Ext4Allocator, Ext4Storage
from repro.fs.storage import BandAlignedStorage, LogRegion, Storage
from repro.smr.drive import ConventionalDrive
from repro.smr.extent import Extent
from repro.smr.fixed_band import FixedBandSMRDrive
from repro.smr.raw_hmsmr import RawHMSMRDrive

KiB = 1024
MiB = 1024 * 1024


def ext4(capacity=4 * MiB, **kwargs):
    drive = ConventionalDrive(capacity)
    return Ext4Storage(drive, wal_size=32 * KiB, meta_size=32 * KiB,
                       block_size=1 * KiB, **kwargs)


def band_storage(capacity=4 * MiB, band=64 * KiB):
    drive = FixedBandSMRDrive(capacity, band)
    return BandAlignedStorage(drive, band_size=band, wal_size=64 * KiB,
                              meta_size=64 * KiB)


def dyn_storage(capacity=4 * MiB, guard=4 * KiB):
    drive = RawHMSMRDrive(capacity, guard_size=guard)
    return DynamicBandStorage(drive, wal_size=32 * KiB, meta_size=32 * KiB,
                              class_unit=4 * KiB)


class TestLogRegion:
    def test_append_read_reset(self):
        drive = ConventionalDrive(MiB)
        region = LogRegion(drive, 0, 16 * KiB, "wal")
        region.append(b"one")
        region.append(b"two")
        assert region.read_all() == b"onetwo"
        region.reset()
        assert region.read_all() == b""
        region.append(b"three")
        assert region.read_all() == b"three"

    def test_overflow(self):
        drive = ConventionalDrive(MiB)
        region = LogRegion(drive, 0, 1 * KiB, "wal")
        with pytest.raises(AllocationError):
            region.append(b"x" * 2048)

    def test_does_not_fit_drive(self):
        drive = ConventionalDrive(KiB)
        with pytest.raises(StorageError):
            LogRegion(drive, 0, 2 * KiB, "wal")


class TestMetaLog:
    def test_records_roundtrip(self):
        s = ext4()
        s.append_meta_record(Storage.META_SNAPSHOT, b"snap")
        s.append_meta_record(Storage.META_EDIT, b"edit1")
        s.append_meta_record(Storage.META_EDIT, b"edit2")
        assert s.read_meta_records() == [
            (Storage.META_SNAPSHOT, b"snap"),
            (Storage.META_EDIT, b"edit1"),
            (Storage.META_EDIT, b"edit2"),
        ]

    def test_reset(self):
        s = ext4()
        s.append_meta_record(Storage.META_EDIT, b"x")
        s.reset_meta()
        s.append_meta_record(Storage.META_SNAPSHOT, b"snap")
        assert s.read_meta_records() == [(Storage.META_SNAPSHOT, b"snap")]

    def test_reset_switches_slots(self):
        s = ext4()
        first = s.meta_region
        s.append_meta_record(Storage.META_SNAPSHOT, b"old")
        s.reset_meta()
        assert s.meta_region is not first
        s.reset_meta()
        assert s.meta_region is first

    def test_incomplete_rollover_falls_back_to_old_slot(self):
        # A crash after reset_meta but before the fresh snapshot lands
        # must recover the previous manifest, not an empty one.
        s = ext4()
        s.append_meta_record(Storage.META_SNAPSHOT, b"snap")
        s.append_meta_record(Storage.META_EDIT, b"edit")
        s.reset_meta()
        assert s.read_meta_records() == [
            (Storage.META_SNAPSHOT, b"snap"),
            (Storage.META_EDIT, b"edit"),
        ]
        # ... and the fallback is sticky: appends go to the old slot
        s.append_meta_record(Storage.META_EDIT, b"edit2")
        assert s.read_meta_records()[-1] == (Storage.META_EDIT, b"edit2")

    def test_torn_meta_tail_is_tolerated_and_flagged(self):
        s = ext4()
        s.append_meta_record(Storage.META_SNAPSHOT, b"snap")
        frame = Storage._meta_frame(Storage.META_EDIT, b"never-finished")
        s.meta_region.append(frame[: len(frame) - 4])  # torn append
        assert s.read_meta_records() == [(Storage.META_SNAPSHOT, b"snap")]
        assert s.meta_log_damaged()

    def test_crc_violation_detected(self):
        s = ext4()
        s.append_meta_record(Storage.META_EDIT, b"payload")
        # corrupt the payload in place on the raw device
        s.drive._data[s.meta_region.start + 9] ^= 0xFF
        with pytest.raises(StorageError):
            s.read_meta_records()


class _CommonStorageTests:
    """Behavioural contract every placement policy must satisfy."""

    def make(self):
        raise NotImplementedError

    def _file_bytes(self, n=10 * KiB, fill=b"a"):
        return fill * n

    def test_write_read_roundtrip(self):
        s = self.make()
        data = bytes(range(256)) * 40
        s.write_file("f1", data)
        assert s.read_file("f1", 0, len(data)) == data
        assert s.read_file("f1", 100, 50) == data[100:150]
        assert s.file_size("f1") == len(data)

    def test_duplicate_rejected(self):
        s = self.make()
        s.write_file("f1", self._file_bytes())
        with pytest.raises(StorageError):
            s.write_file("f1", self._file_bytes())

    def test_missing_file(self):
        s = self.make()
        with pytest.raises(FileNotFoundStorageError):
            s.read_file("ghost", 0, 1)
        with pytest.raises(FileNotFoundStorageError):
            s.delete_file("ghost")
        assert not s.exists("ghost")

    def test_read_outside_file(self):
        s = self.make()
        s.write_file("f0", self._file_bytes(1 * KiB, b"n"))  # a neighbour
        s.write_file("f1", self._file_bytes(1 * KiB))
        for offset, length in [(512, 1 * KiB), (-40, 40), (-1, 2), (8, -4)]:
            with pytest.raises(StorageError):
                s.read_file("f1", offset, length)

    def test_read_across_extents(self):
        """A read that starts in one extent and ends in the next."""
        s = self.make()
        a, b = self._file_bytes(4 * KiB, b"a"), self._file_bytes(4 * KiB, b"b")
        s.write_file("a", a)
        s.write_file("b", b)
        s._files["ab"] = (s.file_extents("a") + s.file_extents("b"), 8 * KiB)
        assert s.read_file("ab", 4 * KiB - 100, 300) == a[-100:] + b[:200]
        assert s.read_file("ab", 0, 8 * KiB) == a + b
        assert s.read_file("ab", 4 * KiB, 10) == b[:10]

    def test_delete_frees_name(self):
        s = self.make()
        s.write_file("f1", self._file_bytes())
        s.delete_file("f1")
        assert not s.exists("f1")
        assert "f1" not in s.list_files()

    def test_space_reuse_after_delete(self):
        s = self.make()
        for round_ in range(12):
            name = f"f{round_}"
            s.write_file(name, self._file_bytes(32 * KiB))
            s.delete_file(name)
        # twelve 32 KiB files through a small device only works if space
        # is actually reclaimed

    def test_write_files_group(self):
        s = self.make()
        group = [(f"g{i}", self._file_bytes(4 * KiB, bytes([i + 65])))
                 for i in range(3)]
        s.write_files(group)
        for name, data in group:
            assert s.read_file(name, 0, len(data)) == data

    def test_extents_cover_file(self):
        s = self.make()
        s.write_file("f1", self._file_bytes(10 * KiB))
        extents = s.file_extents("f1")
        assert sum(e.length for e in extents) >= 10 * KiB

    def test_stream_matches_write_file(self):
        s = self.make()
        data = bytes(range(256)) * 64
        stream = s.create_stream("st", chunk_size=4 * KiB)
        for i in range(0, len(data), 1000):
            stream.append(data[i : i + 1000])
        size = stream.close()
        assert size == len(data)
        assert s.read_file("st", 0, len(data)) == data

    def test_aborted_stream_leaves_free_space_unchanged(self):
        """Abandoned streams hand back everything they took: far more
        aborted bytes than the device holds, then a normal write."""
        s = self.make()
        for _ in range(150):
            stream = s.create_stream("st", chunk_size=4 * KiB)
            stream.append(self._file_bytes(40 * KiB))
            stream.abort()
        assert not s.exists("st")
        s.write_file("st", self._file_bytes(40 * KiB))
        assert s.read_file("st", 0, 40 * KiB) == self._file_bytes(40 * KiB)


class TestExt4Storage(_CommonStorageTests):
    def make(self):
        return ext4()

    def test_files_scatter_after_churn(self):
        """Deleted holes are reused: later files land at earlier offsets."""
        s = ext4()
        for i in range(6):
            s.write_file(f"a{i}", self._file_bytes(16 * KiB))
        first_extent = s.file_extents("a2")[0]
        s.delete_file("a2")
        s.write_file("b", self._file_bytes(8 * KiB))
        assert s.file_extents("b")[0].start == first_extent.start

    def test_fragmented_allocation(self):
        s = ext4(capacity=448 * KiB)
        # fill the device, then punch small holes, then allocate big
        names = []
        for i in range(14):
            name = f"f{i}"
            s.write_file(name, self._file_bytes(24 * KiB))
            names.append(name)
        for name in names[::2]:
            s.delete_file(name)
        s.write_file("big", self._file_bytes(60 * KiB))
        assert len(s.file_extents("big")) > 1  # fragmented

    def test_contiguous_groups_mode(self):
        s = ext4(contiguous_groups=True)
        # create churn so individual allocations would scatter
        for i in range(8):
            s.write_file(f"x{i}", self._file_bytes(8 * KiB))
        for i in range(0, 8, 2):
            s.delete_file(f"x{i}")
        group = [(f"g{i}", self._file_bytes(8 * KiB)) for i in range(3)]
        s.write_files(group)
        extents = [s.file_extents(f"g{i}")[0] for i in range(3)]
        assert extents[0].end == extents[1].start
        assert extents[1].end == extents[2].start

    def test_out_of_space(self):
        s = ext4(capacity=256 * KiB)
        with pytest.raises(AllocationError):
            s.write_file("huge", self._file_bytes(400 * KiB))


class TestExt4Allocator:
    def test_allocate_at(self):
        a = Ext4Allocator(0, 64 * KiB, block_size=1 * KiB)
        first = a.allocate(4 * KiB)[0]
        grown = a.allocate_at(first.end, 4 * KiB)
        assert grown == Extent(first.end, first.end + 4 * KiB)
        assert a.allocate_at(first.start, 1 * KiB) is None  # taken

    def test_block_rounding(self):
        a = Ext4Allocator(0, 64 * KiB, block_size=1 * KiB)
        ext = a.allocate(1500)[0]
        assert ext.length == 2 * KiB

    def test_free_bytes(self):
        a = Ext4Allocator(0, 64 * KiB, block_size=1 * KiB)
        before = a.free_bytes()
        extents = a.allocate(8 * KiB)
        assert a.free_bytes() == before - 8 * KiB
        a.release(extents)
        assert a.free_bytes() == before


class TestBandAlignedStorage(_CommonStorageTests):
    def make(self):
        return band_storage()

    def test_file_per_band(self):
        s = band_storage()
        s.write_file("f1", self._file_bytes(30 * KiB))
        s.write_file("f2", self._file_bytes(30 * KiB))
        e1, e2 = s.file_extents("f1")[0], s.file_extents("f2")[0]
        assert e1.start % s.band_size == 0
        assert e2.start % s.band_size == 0
        assert e1.start != e2.start

    def test_oversized_file_rejected(self):
        s = band_storage()
        with pytest.raises(AllocationError):
            s.write_file("big", self._file_bytes(65 * KiB))

    def test_no_rmw_ever(self):
        """Dedicated-band placement never writes below a frontier."""
        s = band_storage()
        for i in range(20):
            s.write_file(f"f{i}", self._file_bytes(30 * KiB))
            if i % 2:
                s.delete_file(f"f{i}")
                s.write_file(f"f{i}b", self._file_bytes(20 * KiB))
        assert s.drive.stats.rmw_count == 0

    def test_stream_respects_band_limit(self):
        s = band_storage()
        stream = s.create_stream("big", chunk_size=4 * KiB)
        with pytest.raises(AllocationError):
            for _ in range(20):
                stream.append(b"x" * 8 * KiB)


class TestZoneStorageContract(_CommonStorageTests):
    """The zoned policy satisfies the same behavioural contract."""

    def make(self):
        from repro.fs.zonefs import ZoneStorage
        from repro.smr.zoned import ZonedDrive

        drive = ZonedDrive(4 * MiB, 128 * KiB)
        return ZoneStorage(drive, wal_size=64 * KiB, meta_size=64 * KiB)


class TestDynamicBandStorage(_CommonStorageTests):
    def make(self):
        return dyn_storage()

    def test_group_written_contiguously(self):
        s = dyn_storage()
        group = [(f"g{i}", b"x" * 6 * KiB) for i in range(4)]
        s.write_files(group)
        extents = [s.file_extents(f"g{i}")[0] for i in range(4)]
        for a, b in zip(extents, extents[1:]):
            assert a.end == b.start
        info = s.sets.set_of("g0")
        assert info is not None and info.num_members == 4

    def test_space_reclaimed_only_when_set_fades(self):
        s = dyn_storage()
        group = [(f"g{i}", b"x" * 8 * KiB) for i in range(3)]
        s.write_files(group)
        allocated = s.manager.allocated_bytes()
        s.delete_file("g0")
        s.delete_file("g1")
        assert s.manager.allocated_bytes() == allocated  # still held
        s.delete_file("g2")
        assert s.manager.allocated_bytes() < allocated   # whole set freed

    def test_group_invalid_count(self):
        s = dyn_storage()
        s.write_files([(f"g{i}", b"x" * 4 * KiB) for i in range(3)])
        assert s.group_invalid_count("g1") == 0
        s.delete_file("g0")
        assert s.group_invalid_count("g1") == 1

    def test_never_violates_shingle_safety(self):
        """Heavy churn through the manager never trips the drive check."""
        s = dyn_storage(capacity=2 * MiB)
        live = []
        for i in range(60):
            name = f"f{i}"
            try:
                s.write_file(name, bytes([i % 251]) * ((i % 5 + 1) * 4 * KiB))
            except AllocationError:
                break
            live.append(name)
            if i % 3 == 2:
                s.delete_file(live.pop(0))
        s.manager.check_invariants()

    def test_deleted_member_unreadable(self):
        s = dyn_storage()
        s.write_files([("a", b"x" * 4 * KiB), ("b", b"y" * 4 * KiB)])
        s.delete_file("a")
        with pytest.raises(FileNotFoundStorageError):
            s.read_file("a", 0, 1)
        assert s.read_file("b", 0, 1) == b"y"
