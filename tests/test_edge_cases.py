"""Engine edge cases: oversized values, extreme keys, heavy versioning."""

import pytest

import repro
from repro.lsm.wal import WriteBatch

from tests.conftest import TEST_PROFILE

KiB = 1024


def _store(kind="sealdb"):
    return repro.open(kind, profile=TEST_PROFILE)


class TestExtremeValues:
    def test_value_larger_than_block(self):
        store = _store()
        big = bytes(range(256)) * 8     # 2 KiB > 512 B block
        store.put(b"big", big)
        store.flush()
        assert store.get(b"big") == big

    def test_value_larger_than_sstable_target(self):
        store = _store()
        huge = b"\x5a" * (12 * KiB)     # 3x the 4 KiB table target
        store.put(b"huge", huge)
        store.put(b"other", b"x")
        store.flush()
        assert store.get(b"huge") == huge
        assert store.get(b"other") == b"x"

    def test_many_large_values_compact(self):
        store = _store()
        for i in range(40):
            store.put(b"k%02d" % i, bytes([i]) * (3 * KiB))
        store.flush()
        store.db.check_invariants()
        for i in range(0, 40, 7):
            assert store.get(b"k%02d" % i) == bytes([i]) * (3 * KiB)

    def test_empty_value_everywhere(self):
        store = _store()
        for i in range(300):
            store.put(b"e%04d" % i, b"")
        store.flush()
        assert store.get(b"e0000") == b""
        assert store.get(b"e0299") == b""
        assert sum(1 for _ in store.scan(b"e")) == 300


class TestExtremeKeys:
    def test_binary_keys_with_high_bytes(self):
        store = _store()
        keys = [bytes([0xFF, i]) for i in range(50)] + [b"\xff\xff\xff"]
        for k in keys:
            store.put(k, b"v" + k)
        store.flush()
        for k in keys:
            assert store.get(k) == b"v" + k
        scanned = [k for k, _v in store.scan(b"\xff")]
        assert scanned == sorted(keys)

    def test_single_byte_and_long_keys(self):
        store = _store()
        long_key = b"L" * 300
        store.put(b"a", b"1")
        store.put(long_key, b"2")
        store.flush()
        assert store.get(b"a") == b"1"
        assert store.get(long_key) == b"2"

    def test_adjacent_keys_differ_by_one_bit(self):
        store = _store()
        store.put(b"key\x00", b"zero")
        store.put(b"key\x01", b"one")
        store.flush()
        assert store.get(b"key\x00") == b"zero"
        assert store.get(b"key\x01") == b"one"


class TestHeavyVersioning:
    def test_thousand_overwrites_of_one_key(self):
        store = _store()
        for i in range(1000):
            store.put(b"hot", b"v%d" % i)
        store.flush()
        assert store.get(b"hot") == b"v999"
        assert [kv for kv in store.scan(b"hot", b"hou")] == [(b"hot", b"v999")]

    def test_put_delete_cycles(self):
        store = _store()
        for round_ in range(60):
            store.put(b"cycle", b"r%d" % round_)
            store.delete(b"cycle")
        store.flush()
        assert store.get(b"cycle") is None
        # and a final resurrection works
        store.put(b"cycle", b"alive")
        assert store.get(b"cycle") == b"alive"

    def test_delete_only_database(self):
        store = _store()
        for i in range(2000):
            store.delete(b"never%05d" % i)
        store.flush()
        store.db.check_invariants()
        assert list(store.scan()) == []


class TestDegenerateUsage:
    def test_empty_db_operations(self):
        store = _store()
        assert store.get(b"x") is None
        assert list(store.scan()) == []
        store.flush()                       # no-op
        assert store.compact_range() == 0
        assert store.wa() == 0.0

    def test_empty_batch_is_noop(self):
        store = _store()
        seq = store.db.last_sequence
        store.write_batch(WriteBatch())
        assert store.db.last_sequence == seq

    def test_scan_limit_zero_and_reversed_range(self):
        store = _store()
        store.put(b"a", b"1")
        assert list(store.scan(limit=0)) == []
        assert list(store.scan(b"z", b"a")) == []

    def test_reopen_empty_store(self):
        store = _store()
        store.reopen()
        assert store.get(b"x") is None
        store.put(b"x", b"y")
        assert store.get(b"x") == b"y"

    @pytest.mark.parametrize("kind", ["leveldb", "smrdb", "zonekv"])
    def test_other_stores_edge_basics(self, kind):
        store = _store(kind)
        store.put(b"k", b"\x00" * (5 * KiB))
        store.flush()
        assert store.get(b"k") == b"\x00" * (5 * KiB)
        store.delete(b"k")
        assert store.get(b"k") is None