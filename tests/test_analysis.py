"""Tests for the store-analysis helpers."""

import numpy as np

import repro
from repro.harness.analysis import (
    analyze,
    bytes_by_level_flow,
    compaction_histogram,
    stats_string,
)
from repro.workloads.generators import KeyValueGenerator

from tests.conftest import TEST_PROFILE


def _loaded(kind="sealdb", n=8000):
    store = repro.open(kind, profile=TEST_PROFILE)
    kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
    rng = np.random.default_rng(9)
    for i in rng.integers(0, n, size=n):
        store.put(kv.scrambled_key(int(i)), kv.value(int(i)))
    store.flush()
    return store


class TestAnalyze:
    def test_structure_consistent_with_version(self):
        store = _loaded()
        a = analyze(store)
        version = store.db.versions.current
        assert a.total_files == version.num_files()
        assert a.total_bytes == version.total_bytes()
        assert sum(s.files for s in a.levels) == a.total_files
        assert len(a.levels) == store.options.max_levels

    def test_amplification_matches_store(self):
        store = _loaded()
        a = analyze(store)
        assert a.wa == store.wa()
        assert a.awa == store.awa()
        assert a.mwa == store.mwa()

    def test_compaction_attribution(self):
        store = _loaded()
        a = analyze(store)
        from_counts = sum(s.compactions_from for s in a.levels)
        assert from_counts == len(store.real_compactions())

    def test_device_counters_positive(self):
        store = _loaded()
        a = analyze(store)
        assert a.device_writes > 0
        assert a.busy_time > 0
        assert a.flushes > 0


class TestStatsString:
    def test_renders(self):
        store = _loaded(n=4000)
        text = stats_string(store)
        assert "level structure" in text
        assert "WA=" in text and "MWA=" in text
        assert "block cache hit rate" in text


class TestHistogramsAndFlows:
    def test_histogram_counts_all(self):
        store = _loaded()
        hist = compaction_histogram(store, bucket_seconds=0.5)
        assert sum(hist.values()) == len(store.real_compactions())

    def test_flow_levels_adjacent(self):
        store = _loaded()
        flow = bytes_by_level_flow(store)
        assert flow
        for (src, dst), moved in flow.items():
            assert dst in (src, src + 1)
            assert moved > 0
