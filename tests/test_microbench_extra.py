"""Tests for the additional db_bench workloads."""

import repro
from repro.workloads.generators import KeyValueGenerator
from repro.workloads.microbench import EXTRA_WORKLOADS, MicroBenchmark

from tests.conftest import TEST_PROFILE

N = 2500


def _loaded(kind="sealdb", sequential=False):
    store = repro.open(kind, profile=TEST_PROFILE)
    kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
    bench = MicroBenchmark(kv, N, seed=6)
    if sequential:
        bench.fill_seq(store)
    else:
        bench.fill_random(store)
    return store, bench


class TestExtraWorkloads:
    def test_names(self):
        assert EXTRA_WORKLOADS == ("overwrite", "readmissing", "seekrandom",
                                   "deleteseq")

    def test_overwrite_updates_values(self):
        store, bench = _loaded()
        r = bench.overwrite(store, 800)
        assert r.ops == 800 and r.sim_seconds > 0
        # at least one overwritten key now carries the new value
        found_new = any(
            store.get(bench.kv.scrambled_key(i)) == bench.kv.value(i + 1)
            for i in range(200)
        )
        assert found_new

    def test_read_missing_fast_and_empty(self):
        store, bench = _loaded()
        hit = bench.read_random(store, 200)
        miss = bench.read_missing(store, 200)
        assert miss.sim_seconds > 0
        # bloom filters make missing lookups cheaper than hits
        assert miss.sim_seconds < hit.sim_seconds

    def test_seek_random(self):
        store, bench = _loaded(sequential=True)
        r = bench.seek_random(store, 100, scan_length=5)
        assert r.ops == 100 and r.sim_seconds > 0

    def test_delete_seq_removes_everything(self):
        store, bench = _loaded(sequential=True)
        r = bench.delete_seq(store)
        assert r.ops == N
        assert store.get(bench.kv.key(0)) is None
        assert store.get(bench.kv.key(N - 1)) is None
        assert list(store.scan(limit=5)) == []

    def test_fill_batch_equals_fill_random_content(self):
        kv_store, bench = _loaded()
        batch_store = repro.open("sealdb", profile=TEST_PROFILE)
        r = bench.fill_batch(batch_store, batch_size=64)
        assert r.ops == N
        # the two loads apply the same (index, value) stream, so any key
        # present in one is present with the same value in the other
        for i in range(0, N, 137):
            key = bench.kv.scrambled_key(i)
            assert kv_store.get(key) == batch_store.get(key)

    def test_fill_batch_faster_than_singles(self):
        bench = self._batchless_bench()
        single = repro.open("sealdb", profile=TEST_PROFILE)
        r1 = bench.fill_random(single)
        batched = repro.open("sealdb", profile=TEST_PROFILE)
        r2 = bench.fill_batch(batched, batch_size=100)
        assert r2.sim_seconds < r1.sim_seconds

    def _batchless_bench(self):
        kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
        return MicroBenchmark(kv, N, seed=6)

    def test_delete_then_compact_range_reclaims(self):
        store, bench = _loaded(sequential=True)
        total_before = store.db.versions.current.total_bytes()
        bench.delete_seq(store)
        store.compact_range()
        assert store.db.versions.current.total_bytes() < total_before
