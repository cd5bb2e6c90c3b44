"""Tests for the KVStoreBase facade surface."""

import repro
from repro.lsm.wal import WriteBatch
from repro.workloads.generators import KeyValueGenerator

from tests.conftest import TEST_PROFILE


class TestFacade:
    def _store(self):
        return repro.open("sealdb", profile=TEST_PROFILE)

    def test_write_batch_atomic_view(self):
        store = self._store()
        store.write_batch(WriteBatch().put(b"a", b"1").put(b"b", b"2"))
        assert store.get(b"a") == b"1"
        assert store.get(b"b") == b"2"

    def test_metrics_delegate_to_tracker(self):
        store = self._store()
        kv = KeyValueGenerator(16, 32)
        for i in range(3000):
            store.put(kv.scrambled_key(i % 500), kv.value(i))
        store.flush()
        assert store.wa() == store.tracker.wa()
        assert store.mwa() == store.wa() * store.awa()

    def test_tracker_survives_reopen(self):
        store = self._store()
        store.put(b"k", b"v")
        user_before = store.tracker.user_bytes
        store.reopen()
        assert store.tracker.user_bytes == user_before
        store.put(b"k2", b"v2")
        assert store.tracker.user_bytes > user_before

    def test_level_summary_shape(self):
        store = self._store()
        kv = KeyValueGenerator(16, 32)
        for i in range(3000):
            store.put(kv.key(i), kv.value(i))
        store.flush()
        summary = store.level_summary()
        assert len(summary) == store.options.max_levels
        assert all(len(row) == 3 for row in summary)

    def test_real_compactions_excludes_moves(self):
        store = self._store()
        kv = KeyValueGenerator(16, 32)
        for i in range(6000):           # sequential: moves dominate
            store.put(kv.key(i), kv.value(i))
        store.flush()
        real = store.real_compactions()
        assert all(not r.trivial_move for r in real)
        assert len(real) <= len(store.compaction_records)

    def test_compact_range_via_facade(self):
        store = self._store()
        kv = KeyValueGenerator(16, 32)
        for i in range(2000):
            store.put(kv.key(i), kv.value(i))
        executed = store.compact_range()
        assert executed >= 0
        assert store.get(kv.key(100)) == kv.value(100)

    def test_describe_mentions_every_layer(self):
        text = self._store().describe()
        assert "SEALDB" in text
        assert "DynamicBandStorage" in text
        assert "levels=7" in text
        assert "sets=True" in text
