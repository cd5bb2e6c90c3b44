"""Tests for the fragment garbage collector (paper future work)."""

import numpy as np

from repro.registry import build_store
from repro.workloads.generators import KeyValueGenerator

from tests.conftest import TEST_PROFILE


def _loaded_sealdb(n=15_000, seed=3):
    store = build_store("sealdb", TEST_PROFILE)
    kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
    rng = np.random.default_rng(seed)
    for i in rng.integers(0, n, size=n):
        store.put(kv.scrambled_key(int(i)), kv.value(int(i)))
    store.flush()
    return store, kv


class TestFragmentGC:
    def test_gc_reduces_fragments(self):
        store, _kv = _loaded_sealdb()
        before = sum(f.length for f in store.fragments())
        assert before > 0, "random load should leave fragments"
        moves, rewritten = store.storage.collect_fragments(max_moves=64)
        assert moves > 0
        after = sum(f.length for f in store.fragments())
        assert after < before

    def test_gc_preserves_data(self):
        store, kv = _loaded_sealdb(n=8_000)
        snapshot = {}
        for i in range(0, 8_000, 211):
            key = kv.scrambled_key(i)
            snapshot[key] = store.get(key)
        store.storage.collect_fragments(max_moves=64)
        store.band_manager.check_invariants()
        for key, expected in snapshot.items():
            assert store.get(key) == expected
        # scans still see a consistent ordered view
        scanned = list(store.scan(limit=200))
        keys = [k for k, _v in scanned]
        assert keys == sorted(keys)

    def test_gc_cost_is_accounted(self):
        store, _kv = _loaded_sealdb()
        device_before = store.drive.stats.bytes_written
        moves, rewritten = store.storage.collect_fragments(max_moves=16)
        if moves:
            assert rewritten >= 0
            assert store.drive.stats.bytes_written >= device_before + rewritten

    def test_gc_drops_dead_members(self):
        store, _kv = _loaded_sealdb()
        dead_before = store.set_registry.dead_bytes()
        store.storage.collect_fragments(max_moves=128)
        # relocation copies only live members, shedding dead weight
        assert store.set_registry.dead_bytes() <= dead_before

    def test_gc_idempotent_when_clean(self):
        store, _kv = _loaded_sealdb(n=4_000)
        store.storage.collect_fragments(max_moves=256)
        moves_again, _ = store.storage.collect_fragments(max_moves=256)
        # a second pass finds little or nothing left to move
        assert moves_again <= 2

    def test_store_keeps_working_after_gc(self):
        store, kv = _loaded_sealdb(n=6_000)
        store.storage.collect_fragments(max_moves=64)
        for i in range(6_000, 9_000):
            store.put(kv.scrambled_key(i), kv.value(i))
        store.flush()
        store.band_manager.check_invariants()
        store.db.check_invariants()
        assert store.get(kv.scrambled_key(6_500)) == kv.value(6_500)
