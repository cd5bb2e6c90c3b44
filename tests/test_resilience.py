"""Media-fault resilience: latent errors, rot, retry, quarantine, scrub.

The contract under test, end to end: a single flipped bit (or an
unreadable sector) anywhere on the media results in the correct value,
a typed corruption error, or a typed ``KeyRangeUnavailable`` -- never
silently wrong data -- and the rest of the store keeps serving.
"""

import pytest

import repro
from repro import SMALL_PROFILE, faults
from repro.errors import (
    KeyRangeUnavailable,
    MediaError,
    ShardUnavailable,
    StorageError,
)
from repro.lsm.verify import verify_db
from repro.resilience import MediaErrorMap
from repro.workloads.generators import KeyValueGenerator

from tests.conftest import TEST_PROFILE


def _loaded(kind="sealdb", n=3000):
    store = repro.open(kind, profile=TEST_PROFILE)
    kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
    for i in range(n):
        store.put(kv.key(i), kv.value(i))
    store.flush()
    return store, kv


def _rot_table(store):
    """Rot one live table end to end; returns ``(meta, victim_key)``.

    One rotted byte per 256 on-disk bytes corrupts every block, so any
    read into the table fails.  ``victim_key`` is a user key whose only
    version lives in the sick table.  The store is reopened afterwards
    so the block cache cannot mask the on-media damage.
    """
    version = store.db.versions.current
    meta = next(f for level in reversed(version.files) for f in level)
    keys = [key[0] for key, _ in store.db._table(meta)]
    victim = keys[len(keys) // 2]
    media = store.drive.inject_media_errors(seed=1)
    for ext in store.storage.file_extents(meta.name):
        for off in range(0, ext.length, 256):
            media.add_rot(ext.start + off)
    store.reopen()
    return meta, victim


class TestMediaErrorMap:
    def test_latent_error_raises_on_overlap(self):
        media = MediaErrorMap()
        media.add_latent_error(100, 8)
        with pytest.raises(MediaError):
            media.check_read(96, 16)
        media.check_read(0, 100)  # disjoint: fine
        assert media.read_errors == 1

    def test_rot_is_deterministic_under_seed(self):
        a, b = MediaErrorMap(seed=7), MediaErrorMap(seed=7)
        a.add_rot(50, 4)
        b.add_rot(50, 4)
        data = bytes(range(40, 70))
        assert a.corrupt(40, data) == b.corrupt(40, data)
        assert a.corrupt(40, data) != data

    def test_rot_never_identity(self):
        # the XOR mask is never zero, so a rotted byte always differs
        media = MediaErrorMap(seed=0)
        media.add_rot(0, 64)
        data = bytes(64)
        corrupted = media.corrupt(0, data)
        assert all(c != 0 for c in corrupted)

    def test_overwrite_heals(self):
        media = MediaErrorMap()
        media.add_latent_error(10, 4)
        media.add_rot(100)
        media.note_write(0, 200)
        media.check_read(0, 200)  # no raise
        assert media.corrupt(90, bytes(20)) == bytes(20)
        assert not media


@pytest.mark.single_shard
class TestDriveMediaFaults:
    def test_latent_error_fails_read(self):
        store, kv = _loaded(n=500)
        ext = store.storage.file_extents(
            next(f for level in store.db.versions.current.files
                 for f in level).name)[0]
        media = store.drive.inject_media_errors()
        media.add_latent_error(ext.start, 1)
        with pytest.raises(MediaError):
            store.drive.read(ext.start, 16)

    def test_rot_flips_read_payload(self):
        store, _kv = _loaded(n=500)
        drive = store.drive
        offsets = drive.rot_valid_bytes(count=3, seed=5)
        assert len(offsets) == 3
        for offset in offsets:
            clean = bytes(drive._data[offset : offset + 1])
            assert drive.read(offset, 1) != clean

    def test_rot_valid_bytes_deterministic(self):
        a, _ = _loaded(n=500)
        b, _ = _loaded(n=500)
        assert (a.drive.rot_valid_bytes(count=4, seed=9)
                == b.drive.rot_valid_bytes(count=4, seed=9))


@pytest.mark.single_shard
class TestRetry:
    def test_transient_corruption_clears_with_retry(self):
        store, kv = _loaded(n=1000)
        faults.arm(faults.DRIVE_READ, "corrupt", at=1, times=1)
        assert store.get(kv.key(10)) == kv.value(10)
        faults.reset()
        assert store.stats.read_retries >= 1
        assert store.stats.quarantines == 0

    def test_retry_charges_simulated_backoff(self):
        store, kv = _loaded(n=1000)
        before = store.now
        faults.arm(faults.DRIVE_READ, "corrupt", at=1, times=1)
        store.get(kv.key(10))
        faults.reset()
        assert store.now > before


@pytest.mark.single_shard
class TestQuarantine:
    def test_persistent_rot_quarantines_and_degrades(self):
        store, kv = _loaded()
        _meta, victim = _rot_table(store)
        with pytest.raises(KeyRangeUnavailable):
            store.get(victim)
        assert store.stats.quarantines >= 1
        assert store.quarantined_tables >= 1
        assert store.degraded_ranges()
        # the quarantined range stays typed-unavailable, not corrupt
        with pytest.raises(KeyRangeUnavailable):
            store.get(victim)
        # keys outside every degraded range still serve correctly
        ranges = store.degraded_ranges()
        served = 0
        for i in range(0, 3000, 17):
            key = kv.key(i)
            if any(lo <= key <= hi for lo, hi in ranges):
                continue
            assert store.get(key) == kv.value(i)
            served += 1
        assert served > 20

    def test_scan_over_degraded_range_raises_typed(self):
        store, kv = _loaded()
        meta, victim = _rot_table(store)
        lo, hi = meta.smallest.user_key, meta.largest.user_key
        with pytest.raises(KeyRangeUnavailable):
            store.get(victim)
        with pytest.raises(KeyRangeUnavailable):
            list(store.scan(lo, hi + b"\xff"))

    def test_quarantine_survives_reopen(self):
        store, kv = _loaded()
        _meta, victim = _rot_table(store)
        with pytest.raises(KeyRangeUnavailable):
            store.get(victim)
        quarantined = store.quarantined_tables
        store.reopen()  # the mark is persisted in the manifest
        assert store.quarantined_tables == quarantined
        with pytest.raises(KeyRangeUnavailable):
            store.get(victim)

    def test_repair_restores_service(self):
        store, kv = _loaded()
        _rot_table(store)
        report = store.scrub()
        assert store.quarantined_tables >= 1
        report = store.repair()
        assert report.tables_dropped >= 1
        assert store.quarantined_tables == 0
        # every key now serves (dropped-table keys read as misses or
        # older versions; nothing raises, nothing is silently wrong)
        for i in range(0, 3000, 13):
            got = store.get(kv.key(i))
            assert got is None or got == kv.value(i)

    def test_failed_compaction_returns_its_output_band(self):
        """A merge that dies on a sick input abandons a half-written
        output stream; SMRDB must get that stream's band back."""
        store = repro.open("smrdb", profile=SMALL_PROFILE)
        kv = KeyValueGenerator(SMALL_PROFILE.key_size, SMALL_PROFILE.value_size)
        storage, db = store.storage, store.db
        total_bands = len(storage._free_bands) + len(storage.list_files())
        keys = iter(range(10 ** 6))

        def put_until(done):
            while not done():
                i = next(keys)
                store.put(kv.scrambled_key(i), kv.value(i))

        # one table short of the L0 trigger, with an L1 to merge into
        put_until(lambda: db.versions.current.files[1] and len(
            db.versions.current.files[0]) == db.options.l0_compaction_trigger - 1)
        sick = storage.file_extents(db.versions.current.files[1][-1].name)[0]
        store.drive.inject_media_errors().add_latent_error(
            sick.start + sick.length // 2, 1)
        put_until(lambda: store.quarantined_tables)  # compaction hits it
        assert store.quarantined_tables == 1
        assert (len(storage._free_bands) + len(storage.list_files())
                == total_bands)


@pytest.mark.scrub
@pytest.mark.single_shard
class TestScrubber:
    def test_scrub_detects_rot_before_any_read(self):
        store, _kv = _loaded()
        store.drive.rot_valid_bytes(count=2, seed=3)
        report = store.scrub()
        assert not report.clean
        assert report.quarantined
        assert store.quarantined_tables == len(set(report.quarantined))
        # second pass skips the quarantined tables and is clean
        again = store.scrub()
        assert again.tables_checked < report.tables_checked

    def test_clean_store_scrubs_clean(self):
        store, _kv = _loaded(n=800)
        report = store.scrub()
        assert report.clean
        assert report.blocks_checked > 0
        assert report.duration > 0  # device reads cost simulated time

    def test_scrub_emits_event_and_metrics(self):
        store, _kv = _loaded(n=800)
        events = []
        store.obs.subscribe(events.append, ["scrub.pass"])
        store.drive.rot_valid_bytes(count=1, seed=2)
        store.scrub()
        assert [e.TYPE for e in events] == ["scrub.pass"]
        metrics = store.obs.metrics
        assert metrics.counter("scrub.passes").value == 1
        assert metrics.counter("scrub.blocks").value > 0
        assert metrics.counter("scrub.errors").value >= 1
        assert metrics.counter("resilience.quarantine_events").value >= 1

    def test_idle_path_scrub_interval(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        store.options.scrub_interval_flushes = 1
        events = []
        store.obs.subscribe(events.append, ["scrub.pass"])
        kv = KeyValueGenerator(TEST_PROFILE.key_size,
                               TEST_PROFILE.value_size)
        for i in range(800):
            store.put(kv.key(i), kv.value(i))
        store.flush()
        assert events, "flushes should have triggered idle-path scrubs"


@pytest.mark.single_shard
class TestVerifyExtensions:
    def test_verify_reports_quarantined_table(self):
        store, kv = _loaded()
        _meta, victim = _rot_table(store)
        with pytest.raises(KeyRangeUnavailable):
            store.get(victim)
        report = verify_db(store.db)
        assert not report.ok
        assert any("quarantined" in p for p in report.problems)

    def test_verify_walks_wal_damage(self):
        store, _kv = _loaded(n=300)
        store.put(b"unflushed", b"value")  # leaves a live WAL record
        wal = store.storage.wal
        # flip the last byte of the live WAL region
        store.drive._data[wal.tail - 1] ^= 0xFF
        report = verify_db(store.db)
        assert any(p.startswith("wal:") for p in report.problems)

    def test_verify_walks_manifest_slots(self):
        store, _kv = _loaded(n=300)
        region = store.storage.meta_region
        store.drive._data[region.tail - 1] ^= 0xFF
        report = verify_db(store.db)
        assert any(p.startswith("manifest slot") for p in report.problems)

    @pytest.mark.scrub
    def test_verify_scrub_flag_folds_media_findings(self):
        store, _kv = _loaded()
        store.drive.rot_valid_bytes(count=1, seed=4)
        report = verify_db(store.db, scrub=True)
        assert any(p.startswith("scrub:") for p in report.problems)


@pytest.mark.single_shard
class TestRepairEvents:
    def test_dropped_table_emits_event_with_reason(self):
        from repro.lsm.repair import repair

        store, _kv = _loaded()
        meta = next(f for level in store.db.versions.current.files
                    for f in level)
        ext = store.storage.file_extents(meta.name)[0]
        store.drive._data[ext.start + 40] ^= 0xFF
        store.storage.reset_meta()
        events = []
        store.obs.arm()
        store.obs.subscribe(events.append, ["repair.drop"])
        _db, report = repair(store.storage, store.options, obs=store.obs)
        assert report.tables_dropped >= 1
        assert len(events) == report.tables_dropped
        assert all(e.reason for e in events)
        assert store.obs.metrics.counter("repair.drops").value >= 1


@pytest.mark.shards
class TestShardFaultIsolation:
    def _sharded(self, n=3000):
        import repro

        store = repro.open("sealdb", profile=TEST_PROFILE, shards=2)
        kv = KeyValueGenerator(TEST_PROFILE.key_size,
                               TEST_PROFILE.value_size)
        for i in range(n):
            store.put(kv.key(i), kv.value(i))
        store.flush()
        return store, kv

    @pytest.mark.scrub
    def test_quarantine_end_to_end(self):
        """The acceptance scenario: persistent bit-rot in one shard of a
        two-shard store degrades only its key range; ``reopen()`` (which
        routes through repair) restores full service."""
        store, kv = self._sharded()
        sick = store.shards[0]
        sick.drive.rot_valid_bytes(count=3, seed=11)
        report = store.scrub()
        assert report.quarantined
        assert store.shard_health() == ["degraded", "healthy"]
        # reads inside the degraded ranges raise typed; all other keys
        # (including the whole sibling shard) serve correct values
        ranges = store.degraded_ranges()
        assert ranges
        unavailable = served = 0
        for i in range(0, 3000, 7):
            key = kv.key(i)
            try:
                got = store.get(key)
            except KeyRangeUnavailable:
                # only keys inside a degraded range may be refused
                assert any(lo <= key <= hi for lo, hi in ranges)
                unavailable += 1
            else:
                # a degraded-range key may still be served by a newer
                # healthy table -- but never with wrong data
                assert got == kv.value(i)
                served += 1
        assert unavailable and served
        # `repro metrics` surface: the merged gauge reports the fleet sum
        merged = store.merged_metrics()
        assert (merged.gauge("resilience.quarantined_tables").value
                == store.quarantined_tables > 0)
        # recovery: reopen() runs the repair path on quarantined shards
        store.reopen()
        assert store.quarantined_tables == 0
        assert store.shard_health() == ["healthy", "healthy"]
        for i in range(0, 3000, 7):
            got = store.get(kv.key(i))  # never raises now
            assert got is None or got == kv.value(i)

    def test_failed_shard_isolated(self, monkeypatch):
        store, kv = self._sharded(n=1000)
        # find keys on each shard
        on0 = next(kv.key(i) for i in range(1000)
                   if store.router.shard_of(kv.key(i)) == 0)
        on1 = next(kv.key(i) for i in range(1000)
                   if store.router.shard_of(kv.key(i)) == 1)
        monkeypatch.setattr(store.shards[0], "get",
                            lambda key: (_ for _ in ()).throw(
                                StorageError("drive detached")))
        with pytest.raises(ShardUnavailable):
            store.get(on0)
        assert store.shard_health()[0] == "failed"
        # sticky: the next op is refused without touching the shard
        with pytest.raises(ShardUnavailable):
            store.put(on0, b"x")
        # the sibling keeps serving
        assert store.get(on1) is not None

    def test_scan_skips_failed_shard_and_flags_partial(self, monkeypatch):
        store, kv = self._sharded(n=1000)
        scan = store.scan()
        assert not scan.partial
        total = sum(1 for _ in scan)
        assert total == 1000
        monkeypatch.setattr(
            store.shards[0], "get",
            lambda key: (_ for _ in ()).throw(StorageError("gone")))
        try:
            store.get(next(kv.key(i) for i in range(1000)
                           if store.router.shard_of(kv.key(i)) == 0))
        except ShardUnavailable:
            pass
        partial = store.scan()
        got = sum(1 for _ in partial)
        assert partial.partial
        assert partial.skipped_shards == [0]
        assert 0 < got < total

    def test_write_batch_refused_on_failed_shard(self):
        import repro

        store, kv = self._sharded(n=200)
        store._failed.add(0)
        batch = repro.WriteBatch()
        for i in range(50):
            batch.put(kv.key(i), b"new")
        with pytest.raises(ShardUnavailable):
            store.write_batch(batch)


@pytest.mark.scrub
class TestReadFaultCrashSweep:
    """Crash mid-read at every read failpoint: recovery must hold."""

    def test_bounded_read_fault_sweep(self):
        from repro.harness.crashsweep import (
            READ_ACTIONS,
            READ_POINTS,
            CrashSweepConfig,
            sweep,
        )

        config = CrashSweepConfig(kind="dynamic", ops=300,
                                  max_hits_per_point=2, post_ops=20,
                                  points=READ_POINTS, actions=READ_ACTIONS)
        report = sweep(config)
        assert report.ok, report.render()
        assert set(report.points_exercised) == set(READ_POINTS)


class TestCLI:
    @pytest.mark.scrub
    def test_scrub_command_detects_injected_rot(self, capsys):
        from repro.cli import main

        code = main(["scrub", "--kind", "sealdb", "--ops", "800",
                     "--inject-rot", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "BAD TABLE" in out
        assert "quarantined" in out

    def test_scrub_command_clean_store(self, capsys):
        from repro.cli import main

        code = main(["scrub", "--kind", "sealdb", "--ops", "500"])
        assert code == 0
        assert "CLEAN" in capsys.readouterr().out

    @pytest.mark.scrub
    def test_verify_command_with_scrub_flag(self, capsys):
        from repro.cli import main

        code = main(["verify", "--kind", "sealdb", "--ops", "800",
                     "--inject-rot", "1", "--scrub"])
        out = capsys.readouterr().out
        assert code == 1
        assert "scrub:" in out

    def test_verify_command_clean(self, capsys):
        from repro.cli import main

        code = main(["verify", "--kind", "sealdb", "--ops", "500"])
        assert code == 0
        assert "OK" in capsys.readouterr().out


@pytest.mark.single_shard
class TestZeroCost:
    def test_disarmed_media_map_is_one_attribute_check(self):
        store, kv = _loaded(n=500)
        assert store.drive._media is None  # never allocated until injected
        assert store.drive.media_errors is None

    def test_quarantine_bit_is_wire_invisible_when_healthy(self):
        # healthy manifests must serialize bit-identically to pre-
        # resilience builds: the flag rides a high bit of `run` that is
        # zero for every healthy file
        from repro.lsm.version import _QUARANTINE_BIT

        store, _kv = _loaded(n=500)
        payload = store.db.versions.serialize()
        restored = type(store.db.versions).deserialize(payload)
        for level in restored.current.files:
            for meta in level:
                assert not meta.quarantined
                assert meta.run < _QUARANTINE_BIT
