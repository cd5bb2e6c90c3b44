"""Tests for the zoned drive, zone storage, and the ZoneKV store."""

import numpy as np
import pytest

from repro.fs.zonefs import ZoneStorage
from repro.registry import build_store
from repro.smr.zoned import ZonedDrive, ZoneViolation
from repro.workloads.generators import KeyValueGenerator

from tests.conftest import TEST_PROFILE

KiB = 1024
MiB = 1024 * 1024


class TestZonedDrive:
    def _drive(self, capacity=MiB, zone=64 * KiB):
        return ZonedDrive(capacity, zone)

    def test_sequential_writes_ok(self):
        d = self._drive()
        d.write(0, b"a" * 1000)
        d.write(1000, b"b" * 1000)
        assert d.read(0, 1) == b"a"
        assert d.write_pointer(0) == 2000

    def test_write_not_at_wp_rejected(self):
        d = self._drive()
        d.write(0, b"a" * 1000)
        with pytest.raises(ZoneViolation):
            d.write(500, b"x")
        with pytest.raises(ZoneViolation):
            d.write(5000, b"x")

    def test_zone_boundary_crossing_rejected(self):
        d = self._drive()
        with pytest.raises(ZoneViolation):
            d.write(0, b"x" * (65 * KiB))

    def test_reset_zone_rewinds(self):
        d = self._drive()
        d.write(0, b"a" * 1000)
        d.reset_zone(0)
        assert d.write_pointer(0) == 0
        d.write(0, b"b" * 10)   # sequential again
        assert d.zone_resets == 1

    def test_independent_zone_pointers(self):
        d = self._drive()
        d.write(64 * KiB, b"z" * 100)      # zone 1 from its start
        assert d.write_pointer(0) == 0
        assert d.write_pointer(1) == 64 * KiB + 100

    def test_zone_remaining_and_empty(self):
        d = self._drive()
        assert d.zone_remaining(0) == 64 * KiB
        d.write(0, b"a" * KiB)
        assert d.zone_remaining(0) == 63 * KiB
        assert 0 not in d.empty_zones()
        assert 1 in d.empty_zones()

    def test_capacity_rounded_to_zones(self):
        d = ZonedDrive(100 * KiB, 64 * KiB)
        assert d.capacity == 64 * KiB
        assert d.num_zones == 1


class TestZoneStorage:
    def _storage(self, capacity=2 * MiB, zone=64 * KiB, reserve=2):
        drive = ZonedDrive(capacity, zone)
        return ZoneStorage(drive, wal_size=32 * KiB, meta_size=32 * KiB,
                           gc_reserve_zones=reserve)

    def test_file_spans_zones(self):
        s = self._storage()
        big = b"\xab" * (100 * KiB)     # > one 64 KiB zone
        s.write_file("big", big)
        assert len(s.file_extents("big")) >= 2
        assert s.read_file("big", 0, len(big)) == big

    def test_delete_marks_garbage_and_resets_empty_zone(self):
        s = self._storage()
        s.write_file("a", b"x" * 64 * KiB)   # fills its zone exactly
        s.write_file("b", b"y" * 10 * KiB)   # opens the next zone
        resets_before = s.drive.zone_resets
        s.delete_file("a")
        # a fully-garbage, non-open zone resets for free
        assert s.drive.zone_resets > resets_before
        assert s.garbage_bytes() == 0

    def test_gc_relocates_live_data(self):
        s = self._storage(capacity=1 * MiB, zone=64 * KiB, reserve=8)
        # interleave two files per zone, delete one of each pair: every
        # zone is half garbage; GC must relocate the live halves
        names = []
        for i in range(8):
            s.write_file(f"keep{i}", bytes([i + 1]) * 30 * KiB)
            s.write_file(f"dead{i}", bytes([100 + i]) * 30 * KiB)
            names.append(f"keep{i}")
        for i in range(8):
            s.delete_file(f"dead{i}")
        s.write_file("trigger", b"t" * 30 * KiB)  # forces _maybe_collect
        assert s.gc_runs > 0
        for i, name in enumerate(names):
            assert s.read_file(name, 0, 1) == bytes([i + 1])

    def test_stream_spans_zones(self):
        s = self._storage()
        data = bytes(range(256)) * 300      # > one 64 KiB zone
        stream = s.create_stream("st", chunk_size=4 * KiB)
        for i in range(0, len(data), 777):
            stream.append(data[i : i + 777])
        assert stream.close() == len(data)
        assert s.read_file("st", 0, len(data)) == data


class TestZoneKVStore:
    def test_basic_kv(self):
        store = build_store("zonekv", TEST_PROFILE)
        store.put(b"0000000000000key", b"v")
        assert store.get(b"0000000000000key") == b"v"

    def test_random_load_and_read(self):
        store = build_store("zonekv", TEST_PROFILE)
        kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
        rng = np.random.default_rng(4)
        n = 10_000
        for i in rng.integers(0, n, size=n):
            store.put(kv.scrambled_key(int(i)), kv.value(int(i)))
        store.flush()
        store.db.check_invariants()
        hits = sum(store.get(kv.scrambled_key(i)) is not None
                   for i in range(0, n, 97))
        assert hits > 50
        # the zoned stack works but pays GC traffic once zones churn
        assert store.awa() >= 1.0
