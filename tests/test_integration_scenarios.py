"""Cross-feature integration scenarios.

Each test composes several subsystems end to end -- churn + GC +
recovery + verification, range deletion + space reclamation, trace
replay across reopen, two-tier engine with recovery -- the kinds of
sequences a downstream user would actually run.
"""

import numpy as np

import repro
from repro.lsm.repair import repair
from repro.lsm.verify import verify_db
from repro.workloads.generators import KeyValueGenerator
from repro.workloads.trace import ChurnTraceGenerator, replay

from tests.conftest import TEST_PROFILE


def kv():
    return KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)


class TestChurnGcRecoverVerify:
    def test_full_lifecycle(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        generator = kv()
        churn = ChurnTraceGenerator(generator, working_set=800, drift=300,
                                    ops_per_phase=2000, seed=5)
        for _phase in range(3):
            replay(store, (next(iter([op]))
                           for op in churn.generate(2000)))
            store.flush()
            store.storage.collect_fragments(max_moves=24)
            store.reopen()                    # crash between phases
        report = verify_db(store.db)
        assert report.ok, report.render()
        store.band_manager.check_invariants()
        # the store still serves reads and writes
        store.put(b"final-key", b"final")
        assert store.get(b"final-key") == b"final"


class TestDeleteRangeReclaims:
    def test_delete_range_then_compact(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        generator = kv()
        for i in range(4000):
            store.put(generator.key(i), generator.value(i))
        store.flush()
        before = store.db.versions.current.total_bytes()

        deleted = store.db.delete_range(generator.key(1000),
                                        generator.key(3000))
        assert deleted == 2000
        assert store.get(generator.key(1500)) is None
        assert store.get(generator.key(999)) is not None
        assert store.get(generator.key(3000)) is not None

        store.compact_range()
        after = store.db.versions.current.total_bytes()
        assert after < before * 0.75
        remaining = sum(1 for _ in store.scan())
        assert remaining == 2000

    def test_delete_range_empty_window(self):
        store = repro.open("leveldb", profile=TEST_PROFILE)
        assert store.db.delete_range(b"a", b"b") == 0


class TestTraceAcrossReopen:
    def test_replay_interrupted_by_crashes(self):
        generator = kv()
        churn = ChurnTraceGenerator(generator, working_set=500, drift=100,
                                    ops_per_phase=1500, seed=9)
        ops = list(churn.generate(4500))

        # reference: replay everything on one store without crashes
        reference = repro.open("sealdb", profile=TEST_PROFILE)
        replay(reference, ops)

        # subject: same ops with a crash-reopen every 1500 ops
        subject = repro.open("sealdb", profile=TEST_PROFILE)
        for i in range(0, 4500, 1500):
            replay(subject, ops[i : i + 1500])
            subject.reopen()

        assert list(subject.scan()) == list(reference.scan())


class TestTwoTierLifecycle:
    def test_two_tier_with_recovery_and_verify(self):
        from repro.fs.storage import BandAlignedStorage
        from repro.lsm.db import DB
        from repro.lsm.options import Options
        from repro.smr.fixed_band import FixedBandSMRDrive

        drive = FixedBandSMRDrive(16 * 1024 * 1024, 40 * 1024)
        storage = BandAlignedStorage(drive, band_size=40 * 1024,
                                     wal_size=80 * 1024, meta_size=80 * 1024)
        db = DB(storage, Options(max_levels=2, style="two-tier",
                                 tier_merge_trigger=4,
                                 sstable_size=35 * 1024,
                                 write_buffer_size=30 * 1024,
                                 block_size=512))
        rng = np.random.default_rng(3)
        generator = kv()
        for i in rng.integers(0, 8000, size=8000):
            db.put(generator.key(int(i)), generator.value(int(i)))
        db.flush()
        db.check_invariants()
        db2 = DB.recover(storage, db.options)
        assert verify_db(db2).ok
        hits = sum(db2.get(generator.key(i)) is not None
                   for i in range(0, 8000, 131))
        assert hits > 30


class TestRepairAfterGcAndChurn:
    def test_repair_an_aged_store(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        generator = kv()
        churn = ChurnTraceGenerator(generator, working_set=600, drift=200,
                                    ops_per_phase=2000, seed=8)
        replay(store, churn.generate(6000))
        store.flush()
        store.storage.collect_fragments(max_moves=32)
        expected = dict(store.scan())

        store.storage.reset_meta()            # lose the manifest
        db, report = repair(store.storage, store.options)
        assert report.tables_dropped == 0
        assert dict(db.scan()) == expected
