"""Tests for manifest repair from surviving table files."""

import numpy as np

import repro
from repro.lsm.repair import repair
from repro.lsm.verify import verify_db
from repro.workloads.generators import KeyValueGenerator

from tests.conftest import TEST_PROFILE


def _loaded(kind="sealdb", n=5000):
    store = repro.open(kind, profile=TEST_PROFILE)
    kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
    rng = np.random.default_rng(21)
    for i in rng.permutation(n):
        store.put(kv.key(int(i)), kv.value(int(i)))
    store.flush()
    return store, kv


class TestRepair:
    def test_repair_after_manifest_loss(self):
        store, kv = _loaded()
        # catastrophic manifest loss
        store.storage.reset_meta()
        db, report = repair(store.storage, store.options)
        assert report.tables_recovered > 0
        assert report.tables_dropped == 0
        for i in range(0, 5000, 173):
            assert db.get(kv.key(i)) == kv.value(i)

    def test_repaired_db_is_verifiable_and_writable(self):
        store, kv = _loaded(n=3000)
        store.storage.reset_meta()
        db, _report = repair(store.storage, store.options)
        assert verify_db(db).ok
        for i in range(3000, 4000):
            db.put(kv.key(i), kv.value(i))
        db.flush()
        db.check_invariants()
        assert db.get(kv.key(3500)) == kv.value(3500)

    def test_newest_version_wins_after_repair(self):
        store, kv = _loaded(n=2000)
        store.put(kv.key(7), b"NEWEST")
        store.flush()
        store.storage.reset_meta()
        db, _report = repair(store.storage, store.options)
        assert db.get(kv.key(7)) == b"NEWEST"

    def test_deletes_survive_repair(self):
        store, kv = _loaded(n=2000)
        store.delete(kv.key(42))
        store.flush()
        store.storage.reset_meta()
        db, _report = repair(store.storage, store.options)
        assert db.get(kv.key(42)) is None

    def test_corrupt_table_dropped(self):
        store, kv = _loaded(n=3000)
        meta = next(f for level in store.db.versions.current.files
                    for f in level)
        ext = store.storage.file_extents(meta.name)[0]
        store.drive._data[ext.start + 30] ^= 0xFF
        store.storage.reset_meta()
        db, report = repair(store.storage, store.options)
        assert report.tables_dropped >= 1
        assert meta.name in report.dropped_names
        # every drop carries a reason
        assert all(reason for _name, reason in report.dropped)
        # the rest of the database still reads
        hits = sum(db.get(kv.key(i)) is not None for i in range(0, 3000, 59))
        assert hits > 20

    def test_wal_replayed_when_intact(self):
        store, kv = _loaded(n=1000)
        store.put(b"wal-only", b"still-here")   # not flushed
        store.storage.reset_meta()
        db, _report = repair(store.storage, store.options)
        assert db.get(b"wal-only") == b"still-here"

    def test_report_render(self):
        store, _kv = _loaded(n=1000)
        store.storage.reset_meta()
        _db, report = repair(store.storage, store.options)
        text = report.render()
        assert "tables recovered" in text
