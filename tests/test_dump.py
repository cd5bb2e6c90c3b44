"""Tests for the debug dump tools."""

import pytest

import repro
from repro.errors import ReproError
from repro.lsm.dump import dump_levels, dump_manifest, dump_table, dump_wal
from repro.workloads.generators import KeyValueGenerator

from tests.conftest import TEST_PROFILE


def _loaded(n=4000):
    store = repro.open("sealdb", profile=TEST_PROFILE)
    kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
    for i in range(n):
        store.put(kv.key(i), kv.value(i))
    return store, kv


class TestDumpTable:
    def test_lists_entries(self):
        store, kv = _loaded()
        store.flush()
        name = store.db.versions.current.files_for_get(kv.key(10))[0][1].name
        text = dump_table(store.storage, name, limit=5)
        assert name in text
        assert "total" in text
        assert "put" in text
        assert "ORDER VIOLATION" not in text

    def test_limit_truncates(self):
        store, kv = _loaded()
        store.flush()
        meta = next(f for level in store.db.versions.current.files
                    for f in level)
        text = dump_table(store.storage, meta.name, limit=2)
        assert "more" in text

    def test_missing_table(self):
        store, _kv = _loaded(100)
        with pytest.raises(ReproError):
            dump_table(store.storage, "nope.sst")


class TestDumpManifest:
    def test_shows_edits(self):
        store, _kv = _loaded()
        store.flush()
        text = dump_manifest(store.storage)
        assert "EDIT" in text
        assert "+[L0:" in text

    def test_shows_snapshot_after_rollover(self):
        # tiny meta region forces a snapshot rollover quickly
        from repro.lsm.db import DB
        from repro.core.storage import DynamicBandStorage
        from repro.smr.raw_hmsmr import RawHMSMRDrive
        from repro.lsm.options import Options

        drive = RawHMSMRDrive(8 * 1024 * 1024, guard_size=4096)
        storage = DynamicBandStorage(drive, wal_size=64 * 1024,
                                     meta_size=8 * 1024, class_unit=4096)
        db = DB(storage, Options(write_buffer_size=4096, sstable_size=4096,
                                 block_size=512, base_level_bytes=8192))
        for i in range(3000):
            db.put(b"key%08d" % i, b"v" * 20)
        text = dump_manifest(storage)
        assert "SNAPSHOT" in text


class TestDumpWal:
    def test_shows_pending_batches(self):
        store, _kv = _loaded(50)  # small: nothing flushed yet
        text = dump_wal(store.storage)
        assert "batch @ seq" in text
        assert "put" in text

    def test_empty_after_flush(self):
        store, _kv = _loaded(50)
        store.flush()
        text = dump_wal(store.storage)
        assert "0 bytes" in text


class TestDumpLevels:
    def test_tree_shape(self):
        store, kv = _loaded()
        store.flush()
        text = dump_levels(store.db)
        assert "L0" in text and "L1" in text
        assert ".sst" in text
        assert "run=" in text
