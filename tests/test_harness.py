"""Tests for the harness: profiles, metrics, reporting, store factory."""

import pytest

import repro
from repro.errors import ReproError
from repro.harness.metrics import (
    WorkloadResult,
    bands_written_per_compaction,
    compaction_span,
    contiguous_output_fraction,
    summarize_compactions,
)
from repro.harness.profiles import DEFAULT_PROFILE, SMALL_PROFILE, ScaleProfile
from repro.harness.report import normalize, render_table
from repro.harness.runner import STORE_KINDS
from repro.lsm.db import CompactionRecord
from repro.smr.extent import Extent

from tests.conftest import TEST_PROFILE


class TestScaleProfile:
    def test_io_scale(self):
        assert DEFAULT_PROFILE.io_scale == 4 * 1024 * 1024 / DEFAULT_PROFILE.sstable_size

    def test_options_derivation(self):
        options = DEFAULT_PROFILE.options()
        assert options.sstable_size == DEFAULT_PROFILE.sstable_size
        assert options.write_buffer_size == DEFAULT_PROFILE.write_buffer_size
        assert options.base_level_bytes == \
            DEFAULT_PROFILE.level_base_tables * DEFAULT_PROFILE.sstable_size
        assert options.compaction_cpu_per_byte > 0

    def test_options_overrides(self):
        options = DEFAULT_PROFILE.options(max_levels=2, use_sets=True)
        assert options.max_levels == 2 and options.use_sets

    def test_entries_for_bytes(self):
        profile = ScaleProfile(name="x", key_size=16, value_size=84)
        assert profile.entries_for_bytes(1000) == 10

    def test_scaled_copy(self):
        bigger = SMALL_PROFILE.scaled(capacity=64 * 1024 * 1024)
        assert bigger.capacity == 64 * 1024 * 1024
        assert bigger.sstable_size == SMALL_PROFILE.sstable_size


class TestMakeStore:
    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_all_kinds_construct_and_work(self, kind):
        store = repro.open(kind, profile=TEST_PROFILE)
        store.put(b"0000000000000key", b"v")
        assert store.get(b"0000000000000key") == b"v"

    def test_unknown_kind(self):
        with pytest.raises(ReproError):
            repro.open("rocksdb", profile=TEST_PROFILE)

    def test_store_names(self):
        names = {repro.open(k, profile=TEST_PROFILE).name for k in STORE_KINDS}
        assert names == {"LevelDB", "SMRDB", "LevelDB+sets", "SEALDB",
                         "ZoneKV"}


def _record(index, level, inputs, outputs, in_extents, out_extents,
            in_bytes=100, out_bytes=100, t0=0.0, t1=1.0, trivial=False):
    return CompactionRecord(index, level, level + 1, t0, t1, inputs, outputs,
                            in_extents, out_extents, in_bytes, out_bytes,
                            trivial)


class TestMetrics:
    def test_workload_result(self):
        r = WorkloadResult("s", "w", 100, 4.0)
        assert r.ops_per_sec == 25.0
        assert WorkloadResult("s", "w", 10, 0.0).ops_per_sec == 0.0

    def test_summarize_skips_trivial(self):
        records = [
            _record(0, 1, ["a"], ["b"], [[Extent(0, 10)]], [[Extent(10, 20)]]),
            _record(1, 1, ["c"], ["c"], [[Extent(0, 10)]], [[Extent(0, 10)]],
                    trivial=True),
        ]
        s = summarize_compactions(records)
        assert s.count == 1
        assert s.avg_latency == 1.0
        assert s.total_input_bytes == 100

    def test_compaction_span(self):
        r = _record(0, 1, ["a"], ["b"],
                    [[Extent(100, 200)]], [[Extent(5000, 5100)]])
        assert compaction_span(r) == 4900

    def test_contiguous_output_fraction(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        for i in range(6000):
            store.put(b"%016d" % (i * 2654435761 % 6000), b"v" * 30)
        store.flush()
        assert contiguous_output_fraction(store) == 1.0

    def test_bands_written_requires_banded_drive(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        with pytest.raises(TypeError):
            bands_written_per_compaction(store)

    def test_bands_written_counts(self):
        store = repro.open("leveldb", profile=TEST_PROFILE)
        for i in range(6000):
            store.put(b"%016d" % (i * 2654435761 % 6000), b"v" * 30)
        store.flush()
        counts = bands_written_per_compaction(store)
        assert counts and all(c >= 1 for c in counts)


class TestReport:
    def test_render_table_alignment(self):
        text = render_table("Title", ["a", "bb"], [[1, 2.5], ["xx", 10000.0]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "10,000" in text        # thousands formatting
        assert "2.50" in text          # float formatting

    def test_normalize(self):
        normed = normalize({"a": 2.0, "b": 6.0}, "a")
        assert normed == {"a": 1.0, "b": 3.0}

    def test_normalize_zero_base(self):
        with pytest.raises(ZeroDivisionError):
            normalize({"a": 0.0, "b": 1.0}, "a")
