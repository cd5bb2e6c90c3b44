"""Tests for the offline integrity verifier."""

import numpy as np

import repro
from repro.lsm.verify import verify_db
from repro.workloads.generators import KeyValueGenerator

from tests.conftest import TEST_PROFILE


def _loaded(kind="sealdb", n=6000):
    store = repro.open(kind, profile=TEST_PROFILE)
    kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
    rng = np.random.default_rng(13)
    for i in rng.integers(0, n, size=n):
        store.put(kv.scrambled_key(int(i)), kv.value(int(i)))
    store.flush()
    return store


class TestVerifyClean:
    def test_sealdb_clean(self):
        store = _loaded("sealdb")
        report = verify_db(store.db)
        assert report.ok, report.render()
        assert report.tables_checked > 0
        assert report.entries_checked > 0

    def test_leveldb_clean(self):
        store = _loaded("leveldb")
        report = verify_db(store.db)
        assert report.ok, report.render()

    def test_smrdb_clean_despite_overlapping_l0(self):
        store = _loaded("smrdb")
        report = verify_db(store.db)
        assert report.ok, report.render()

    def test_clean_after_gc(self):
        store = _loaded("sealdb")
        store.collect_fragments(max_moves=64)
        report = verify_db(store.db)
        assert report.ok, report.render()

    def test_render_ok(self):
        store = _loaded("sealdb", n=1500)
        text = verify_db(store.db).render()
        assert text.startswith("verify: OK")


class TestVerifyDetectsDamage:
    def test_detects_corrupted_block(self):
        store = _loaded("sealdb", n=3000)
        meta = next(f for level in store.db.versions.current.files
                    for f in level)
        ext = store.storage.file_extents(meta.name)[0]
        store.drive._data[ext.start + 20] ^= 0xFF     # flip a byte
        report = verify_db(store.db)
        assert not report.ok
        assert any(meta.name in p for p in report.problems)

    def test_detects_missing_file(self):
        store = _loaded("leveldb", n=3000)
        meta = next(f for level in store.db.versions.current.files
                    for f in level)
        store.storage.delete_file(meta.name)
        report = verify_db(store.db)
        assert any("missing" in p for p in report.problems)

    def test_detects_size_mismatch(self):
        store = _loaded("leveldb", n=3000)
        meta = next(f for level in store.db.versions.current.files
                    for f in level)
        extents, _size = store.storage._files[meta.name]
        store.storage._files[meta.name] = (extents, meta.size + 7)
        report = verify_db(store.db)
        assert any("size" in p for p in report.problems)

    def test_report_render_lists_problems(self):
        store = _loaded("leveldb", n=2000)
        meta = next(f for level in store.db.versions.current.files
                    for f in level)
        store.storage.delete_file(meta.name)
        text = verify_db(store.db).render()
        assert "PROBLEM" in text and meta.name in text
