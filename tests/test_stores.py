"""Behavioural tests for the paper's Section IV store configurations,
at tiny scale."""

import pytest

from repro.errors import ReproError
from repro.harness.metrics import contiguous_output_fraction
from repro.registry import build_store
from repro.smr.drive import ConventionalDrive
from repro.smr.fixed_band import FixedBandSMRDrive
from repro.smr.raw_hmsmr import RawHMSMRDrive
from repro.workloads.generators import KeyValueGenerator
from repro.workloads.microbench import MicroBenchmark

from tests.conftest import TEST_PROFILE

KiB = 1024
N = 12_000


def _random_load(store, n=N):
    kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
    MicroBenchmark(kv, n, seed=2).fill_random(store)
    return store


class TestConfigurations:
    def test_leveldb_stack(self):
        store = build_store("leveldb", TEST_PROFILE)
        assert isinstance(store.drive, FixedBandSMRDrive)
        assert not store.options.use_sets
        assert store.options.max_levels == 7

    def test_leveldb_on_hdd(self):
        store = build_store("leveldb", TEST_PROFILE, drive_kind="hdd")
        assert isinstance(store.drive, ConventionalDrive)

    def test_leveldb_bad_drive_kind(self):
        with pytest.raises(ReproError):
            build_store("leveldb", TEST_PROFILE, drive_kind="ssd")

    def test_smrdb_stack(self):
        store = build_store("smrdb", TEST_PROFILE)
        assert isinstance(store.drive, FixedBandSMRDrive)
        assert store.options.max_levels == 2
        assert store.options.sstable_size <= TEST_PROFILE.band_size

    def test_sealdb_stack(self):
        store = build_store("sealdb", TEST_PROFILE)
        assert isinstance(store.drive, RawHMSMRDrive)
        assert store.options.use_sets
        assert store.drive.guard_size == TEST_PROFILE.guard_size

    def test_leveldb_sets_stack(self):
        store = build_store("leveldb+sets", TEST_PROFILE)
        assert isinstance(store.drive, FixedBandSMRDrive)
        assert store.options.use_sets
        assert store.storage.contiguous_groups

    def test_io_scaling_applied(self):
        store = build_store("sealdb", TEST_PROFILE)
        # TEST_PROFILE sstable is 4 KiB -> io_scale 1024
        assert store.drive.profile.seq_write_bps < 1024 * 1024


class TestPaperInvariants:
    """The structural claims of the paper, verified end-to-end."""

    def test_sealdb_awa_is_one(self):
        store = _random_load(build_store("sealdb", TEST_PROFILE))
        assert store.awa() == 1.0

    def test_smrdb_awa_is_one(self):
        store = _random_load(build_store("smrdb", TEST_PROFILE))
        assert store.awa() == 1.0
        assert store.drive.stats.rmw_count == 0

    def test_leveldb_awa_above_one(self):
        store = _random_load(build_store("leveldb", TEST_PROFILE))
        assert store.awa() > 1.5
        assert store.drive.stats.rmw_count > 0

    def test_sets_do_not_change_wa(self):
        plain = _random_load(build_store("leveldb", TEST_PROFILE))
        sealdb = _random_load(build_store("sealdb", TEST_PROFILE))
        assert sealdb.wa() == pytest.approx(plain.wa(), rel=0.01)

    def test_smrdb_lowers_wa(self):
        plain = _random_load(build_store("leveldb", TEST_PROFILE))
        smrdb = _random_load(build_store("smrdb", TEST_PROFILE))
        assert smrdb.wa() < plain.wa()

    def test_sealdb_outputs_contiguous_leveldb_not(self):
        sealdb = _random_load(build_store("sealdb", TEST_PROFILE))
        leveldb = _random_load(build_store("leveldb", TEST_PROFILE))
        assert contiguous_output_fraction(sealdb) == 1.0
        assert contiguous_output_fraction(leveldb) < 0.5

    def test_sealdb_average_set_matches_compaction_size(self):
        store = _random_load(build_store("sealdb", TEST_PROFILE))
        from repro.harness.metrics import summarize_compactions
        summary = summarize_compactions(store.real_compactions())
        # "the average set size is equivalent to the average compaction
        # data size" (Section IV-B1) -- sets are registered per output
        # group (flushes included), so allow a loose band
        assert store.set_registry.average_set_size() > 0
        assert summary.avg_input_bytes > 0

    def test_sealdb_mwa_reduction(self):
        leveldb = _random_load(build_store("leveldb", TEST_PROFILE))
        sealdb = _random_load(build_store("sealdb", TEST_PROFILE))
        assert leveldb.mwa() / sealdb.mwa() > 2.0

    def test_reopen_preserves_data(self):
        store = _random_load(build_store("sealdb", TEST_PROFILE), n=4000)
        kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
        probe = None
        for i in range(4000):
            if store.get(kv.scrambled_key(i)) is not None:
                probe = i
                break
        assert probe is not None
        store.reopen()
        assert store.get(kv.scrambled_key(probe)) is not None

    def test_describe(self):
        text = build_store("sealdb", TEST_PROFILE).describe()
        assert "SEALDB" in text and "RawHMSMRDrive" in text
