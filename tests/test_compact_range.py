"""Tests for manual range compaction (CompactRange parity)."""

import numpy as np
import pytest

import repro
from repro.workloads.generators import KeyValueGenerator

from tests.conftest import TEST_PROFILE


def _loaded(kind="sealdb", n=8000, seed=1):
    store = repro.open(kind, profile=TEST_PROFILE)
    kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
    rng = np.random.default_rng(seed)
    for i in rng.permutation(n):
        store.put(kv.key(int(i)), kv.value(int(i)))
    store.flush()
    return store, kv


@pytest.mark.parametrize("kind", ["leveldb", "sealdb", "smrdb"])
class TestCompactRange:
    def test_full_compaction_pushes_data_down(self, kind):
        store, kv = _loaded(kind)
        executed = store.compact_range()
        assert executed >= 0
        summary = store.level_summary()
        # all shallow levels (everything but the last) drained
        for level, count, _bytes in summary[:-1]:
            assert count == 0, f"L{level} still has {count} files"
        store.db.check_invariants()

    def test_data_survives(self, kind):
        store, kv = _loaded(kind, n=5000)
        store.compact_range()
        for i in range(0, 5000, 311):
            assert store.get(kv.key(i)) == kv.value(i)

    def test_reclaims_tombstone_space(self, kind):
        store, kv = _loaded(kind, n=5000)
        for i in range(0, 5000, 2):
            store.delete(kv.key(i))
        store.flush()
        before = store.db.versions.current.total_bytes()
        store.compact_range()
        after = store.db.versions.current.total_bytes()
        assert after < before
        # deleted keys stay deleted, survivors survive
        assert store.get(kv.key(0)) is None
        assert store.get(kv.key(1)) == kv.value(1)


class TestPartialRange:
    def test_range_limits_work(self):
        store, kv = _loaded("leveldb", n=6000)
        executed = store.compact_range(kv.key(0), kv.key(1000))
        assert executed > 0
        # keys outside the range are untouched and still readable
        assert store.get(kv.key(5000)) == kv.value(5000)
        assert store.get(kv.key(500)) == kv.value(500)
