"""Tests for DB.approximate_size (GetApproximateSizes parity)."""

import repro
from repro.workloads.generators import KeyValueGenerator

from tests.conftest import TEST_PROFILE

N = 6000


def _loaded():
    store = repro.open("sealdb", profile=TEST_PROFILE)
    kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
    for i in range(N):
        store.put(kv.key(i), kv.value(i))
    store.flush()
    return store, kv


class TestApproximateSize:
    def test_full_range_equals_total(self):
        store, _kv = _loaded()
        total = store.db.versions.current.total_bytes()
        approx = store.db.approximate_size()
        assert abs(approx - total) / total < 0.02

    def test_half_range_about_half(self):
        store, kv = _loaded()
        total = store.db.versions.current.total_bytes()
        half = store.db.approximate_size(kv.key(0), kv.key(N // 2))
        assert 0.3 * total < half < 0.7 * total

    def test_empty_range_near_zero(self):
        store, kv = _loaded()
        total = store.db.versions.current.total_bytes()
        tiny = store.db.approximate_size(kv.key(N + 100), kv.key(N + 200))
        assert tiny < total * 0.05

    def test_monotone_in_range_width(self):
        store, kv = _loaded()
        quarter = store.db.approximate_size(kv.key(0), kv.key(N // 4))
        half = store.db.approximate_size(kv.key(0), kv.key(N // 2))
        full = store.db.approximate_size(kv.key(0), kv.key(N))
        assert quarter <= half <= full
