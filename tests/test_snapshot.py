"""Tests for the snapshot handle API."""

import repro

from tests.conftest import TEST_PROFILE


class TestSnapshotHandle:
    def _store(self):
        return repro.open("sealdb", profile=TEST_PROFILE)

    def test_snapshot_pins_view(self):
        store = self._store()
        store.put(b"k", b"v1")
        snap = store.db.snapshot()
        store.put(b"k", b"v2")
        assert snap.get(b"k") == b"v1"
        assert store.get(b"k") == b"v2"

    def test_snapshot_hides_later_inserts(self):
        store = self._store()
        store.put(b"a", b"1")
        snap = store.db.snapshot()
        store.put(b"b", b"2")
        assert snap.get(b"b") is None
        assert [k for k, _v in snap.scan()] == [b"a"]

    def test_snapshot_hides_later_deletes(self):
        store = self._store()
        store.put(b"k", b"v")
        snap = store.db.snapshot()
        store.delete(b"k")
        assert snap.get(b"k") == b"v"
        assert store.get(b"k") is None

    def test_context_manager(self):
        store = self._store()
        store.put(b"k", b"v1")
        with store.db.snapshot() as snap:
            store.put(b"k", b"v2")
            assert snap.get(b"k") == b"v1"

    def test_two_snapshots_independent(self):
        store = self._store()
        store.put(b"k", b"v1")
        s1 = store.db.snapshot()
        store.put(b"k", b"v2")
        s2 = store.db.snapshot()
        store.put(b"k", b"v3")
        assert s1.get(b"k") == b"v1"
        assert s2.get(b"k") == b"v2"
        assert store.get(b"k") == b"v3"

    def test_snapshot_scan_with_range(self):
        store = self._store()
        for i in range(20):
            store.put(b"k%02d" % i, b"v%d" % i)
        snap = store.db.snapshot()
        for i in range(20, 40):
            store.put(b"k%02d" % i, b"v%d" % i)
        got = [k for k, _v in snap.scan(b"k05", b"k25")]
        assert got == [b"k%02d" % i for i in range(5, 20)]
