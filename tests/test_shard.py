"""Tests for the sharded frontend: routers, merge, and store equivalence.

The core property: a sharded store and a single store fed the same
operation sequence must return identical ``get``/``scan`` results, for
both routers, including deletes and range scans spanning shard
boundaries.
"""

from __future__ import annotations

import pytest

import repro
from repro.errors import ReproError
from repro.lsm.wal import WriteBatch
from repro.shard import (
    HashRouter,
    RangeRouter,
    ShardedStore,
    make_router,
    merge_shard_scans,
)
from repro.util.rng import make_rng

from tests.conftest import TEST_PROFILE

pytestmark = pytest.mark.shards


def key(i: int) -> bytes:
    return b"%08d" % i


# -- routers ------------------------------------------------------------------

class TestRouters:
    def test_hash_router_is_deterministic_and_in_range(self):
        router = HashRouter(4)
        for i in range(500):
            shard = router.shard_of(key(i))
            assert 0 <= shard < 4
            assert shard == router.shard_of(key(i))

    def test_hash_router_spreads_keys(self):
        router = HashRouter(4)
        counts = [0] * 4
        for i in range(2000):
            counts[router.shard_of(key(i))] += 1
        assert min(counts) > 0.15 * 2000 / 4 * 4 / 4  # no empty shard
        assert max(counts) < 0.5 * 2000

    def test_hash_scan_consults_every_shard(self):
        assert HashRouter(3).shards_for_range(b"a", b"b") == (0, 1, 2)

    def test_range_router_boundaries(self):
        router = RangeRouter([b"b", b"d"])
        assert router.num_shards == 3
        assert router.shard_of(b"a") == 0
        assert router.shard_of(b"b") == 1  # boundary goes up
        assert router.shard_of(b"c") == 1
        assert router.shard_of(b"d") == 2
        assert router.shard_of(b"zzz") == 2

    def test_range_router_scan_subset(self):
        router = RangeRouter([b"b", b"d"])
        assert router.shards_for_range(b"a", b"aa") == (0,)
        assert router.shards_for_range(b"b", b"c") == (1,)
        assert router.shards_for_range(b"a", b"e") == (0, 1, 2)
        assert router.shards_for_range(None, None) == (0, 1, 2)

    def test_range_router_rejects_unsorted_boundaries(self):
        with pytest.raises(ReproError):
            RangeRouter([b"d", b"b"])
        with pytest.raises(ReproError):
            RangeRouter([b"b", b"b"])

    def test_uniform_split_covers_space(self):
        router = RangeRouter.uniform(4)
        seen = {router.shard_of(bytes([b, 0, 7])) for b in range(256)}
        assert seen == {0, 1, 2, 3}

    def test_make_router(self):
        assert isinstance(make_router("hash", 2), HashRouter)
        assert isinstance(make_router("range", 3), RangeRouter)
        custom = RangeRouter([b"m"])
        assert make_router(custom, 2) is custom
        with pytest.raises(ReproError):
            make_router(custom, 3)  # shard-count mismatch
        with pytest.raises(ReproError):
            make_router("bogus", 2)
        with pytest.raises(ReproError):
            make_router("range", 3, boundaries=[b"a"])  # needs 2


# -- merge iterator -----------------------------------------------------------

class TestMerge:
    def test_merges_disjoint_sorted_streams(self):
        a = [(key(i), b"a") for i in range(0, 30, 3)]
        b = [(key(i), b"b") for i in range(1, 30, 3)]
        c = [(key(i), b"c") for i in range(2, 30, 3)]
        merged = list(merge_shard_scans([iter(a), iter(b), iter(c)]))
        assert [k for k, _v in merged] == [key(i) for i in range(30)]

    def test_empty_streams(self):
        assert list(merge_shard_scans([])) == []
        assert list(merge_shard_scans([iter([]), iter([(b"k", b"v")])])) == \
            [(b"k", b"v")]

    def test_lazy_consumption(self):
        """Taking a few heads must not drain the sources."""
        pulled = []

        def source(tag, n):
            for i in range(n):
                pulled.append(tag)
                yield (b"%s%04d" % (tag, i), b"v")

        merged = merge_shard_scans([source(b"a", 1000), source(b"b", 1000)])
        for _ in range(5):
            next(merged)
        assert len(pulled) < 20


# -- single vs sharded equivalence --------------------------------------------

def apply_ops(store, ops):
    for op in ops:
        if op[0] == "put":
            store.put(op[1], op[2])
        elif op[0] == "delete":
            store.delete(op[1])
        else:
            batch = WriteBatch()
            for kind, k, v in op[1]:
                batch.put(k, v) if kind == "put" else batch.delete(k)
            store.write_batch(batch)


def random_ops(seed: int, count: int, universe: int = 400):
    """A deterministic mixed workload: puts, overwrites, deletes, and
    multi-key batches that straddle shard boundaries."""
    rng = make_rng(seed)
    ops = []
    for step in range(count):
        roll = int(rng.integers(0, 10))
        i = int(rng.integers(0, universe))
        if roll < 6:
            ops.append(("put", key(i), b"v%d-%d" % (step, i)))
        elif roll < 8:
            ops.append(("delete", key(i)))
        else:
            entries = []
            for _ in range(int(rng.integers(2, 6))):
                j = int(rng.integers(0, universe))
                if int(rng.integers(0, 4)) == 0:
                    entries.append(("delete", key(j), b""))
                else:
                    entries.append(("put", key(j), b"b%d-%d" % (step, j)))
            ops.append(("batch", entries))
    return ops


@pytest.mark.parametrize("router", ["hash", "range"])
@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_equals_single(router, shards):
    ops = random_ops(seed=7, count=600)
    single = repro.open("sealdb", profile=TEST_PROFILE, shards=1)
    boundaries = None
    if router == "range":
        # split inside the dense ASCII key region so every shard is hit
        step = 400 // shards
        boundaries = [key(step * i) for i in range(1, shards)]
    sharded = repro.open("sealdb", profile=TEST_PROFILE, shards=shards,
                         router=router, router_boundaries=boundaries)
    assert isinstance(sharded, ShardedStore)

    apply_ops(single, ops)
    apply_ops(sharded, ops)

    for i in range(400):
        assert sharded.get(key(i)) == single.get(key(i)), key(i)
    assert sharded.get(b"missing") is None

    assert list(sharded.scan()) == list(single.scan())
    # range scans spanning shard boundaries, plus limits
    ranges = [(key(0), key(50)), (key(95), key(210)), (key(130), key(131)),
              (None, key(260)), (key(390), None), (key(210), key(210))]
    for start, end in ranges:
        assert list(sharded.scan(start, end)) == list(single.scan(start, end))
        assert list(sharded.scan(start, end, limit=17)) == \
            list(single.scan(start, end, limit=17))
    assert list(sharded.scan(limit=0)) == []

    single.close()
    sharded.close()


def test_equivalence_survives_reopen():
    ops = random_ops(seed=11, count=300)
    single = repro.open("sealdb", profile=TEST_PROFILE, shards=1)
    sharded = repro.open("sealdb", profile=TEST_PROFILE, shards=3)
    apply_ops(single, ops)
    apply_ops(sharded, ops)
    single.reopen()
    sharded.reopen()
    assert list(sharded.scan()) == list(single.scan())


def test_serial_and_parallel_fanout_agree():
    ops = random_ops(seed=3, count=250)
    serial = repro.open("sealdb", profile=TEST_PROFILE, shards=2,
                        shard_parallel=False)
    parallel = repro.open("sealdb", profile=TEST_PROFILE, shards=2,
                          shard_parallel=True)
    apply_ops(serial, ops)
    apply_ops(parallel, ops)
    assert list(serial.scan()) == list(parallel.scan())
    assert serial.now == parallel.now  # simulated clocks are identical
    serial.close()
    parallel.close()


# -- sharded store surface ----------------------------------------------------

class TestShardedStore:
    def _store(self, **kwargs):
        kwargs.setdefault("shards", 2)
        return repro.open("sealdb", profile=TEST_PROFILE, **kwargs)

    def test_open_shards_one_returns_plain_store(self):
        store = repro.open("sealdb", profile=TEST_PROFILE, shards=1)
        assert not isinstance(store, ShardedStore)
        assert store.name == "SEALDB"

    def test_rejects_shared_clock(self):
        from repro.smr.timing import SimClock
        with pytest.raises(ReproError):
            repro.open("sealdb", profile=TEST_PROFILE, shards=2,
                       clock=SimClock())

    def test_write_batch_splits_and_applies_atomically(self):
        store = self._store()
        batch = WriteBatch()
        for i in range(40):
            batch.put(key(i), b"v%d" % i)
        store.write_batch(batch)
        for i in range(40):
            assert store.get(key(i)) == b"v%d" % i

    def test_snapshot_pins_all_shards(self):
        store = self._store()
        for i in range(50):
            store.put(key(i), b"old")
        with store.snapshot() as snap:
            for i in range(50):
                store.put(key(i), b"new")
            assert [v for _k, v in snap.scan()] == [b"old"] * 50
        assert [v for _k, v in store.scan()] == [b"new"] * 50

    def test_facade_snapshot_single_store(self):
        store = repro.open("sealdb", profile=TEST_PROFILE, shards=1)
        store.put(b"k", b"1")
        with store.snapshot() as snap:
            store.put(b"k", b"2")
            assert snap.get(b"k") == b"1"
        assert store.get(b"k") == b"2"

    def test_timeline_and_now(self):
        store = self._store()
        for i in range(200):
            store.put(key(i), b"x" * 32)
        store.flush()
        timeline = store.timeline()
        assert len(timeline.per_shard) == 2
        assert store.now == timeline.max_seconds
        assert timeline.total_seconds >= timeline.max_seconds
        assert 0.0 < timeline.balance <= 1.0
        assert "max=" in timeline.render()

    def test_bulk_load_parallel(self):
        store = self._store(shards=4)
        timeline = store.bulk_load(
            (key(i), b"v" * 16) for i in range(1000))
        assert len(timeline.per_shard) == 4
        assert timeline.max_seconds > 0
        assert store.get(key(999)) == b"v" * 16
        assert len(list(store.scan())) == 1000

    def test_merged_measurements(self):
        store = self._store()
        for i in range(2000):
            store.put(key(i % 300), b"y" * 48)
        store.flush()
        assert store.tracker.user_bytes == sum(
            s.tracker.user_bytes for s in store.shards)
        assert store.stats.puts == 2000
        assert store.wa() > 1.0
        assert store.mwa() == pytest.approx(store.wa() * store.awa())
        merged_files = sum(count for _l, count, _b in store.level_summary())
        assert merged_files == sum(
            count for s in store.shards
            for _l, count, _b in s.level_summary())
        records = store.compaction_records
        assert len(records) == sum(
            len(s.compaction_records) for s in store.shards)
        starts = [r.start_time for r in records]
        assert starts == sorted(starts)

    def test_compact_range_fans_out(self):
        store = self._store()
        for i in range(800):
            store.put(key(i), b"z" * 40)
        for i in range(0, 800, 2):
            store.delete(key(i))
        executed = store.compact_range()
        assert executed >= 0
        assert len(list(store.scan())) == 400

    def test_merged_metrics_registry(self):
        store = self._store()
        store.obs.arm()
        for i in range(50):
            store.put(key(i), b"v")
        store.get(key(1))
        list(store.scan(limit=5))
        merged = store.merged_metrics()
        assert merged.counters["ops.put"].value == 50
        assert merged.counters["ops.get"].value == 1
        # facade emits the cross-shard scan; shards emit their own
        assert merged.counters["ops.scan"].value >= 1
        assert merged.gauges["amp.wa"].value == store.wa()
        per_shard_puts = sum(
            s.obs.metrics.counters["ops.put"].value for s in store.shards)
        assert per_shard_puts == 50

    def test_fanout_subscribe_sees_shard_events(self):
        store = self._store()
        events = []
        store.obs.subscribe(events.append, events={"flush.end"})
        for i in range(400):
            store.put(key(i), b"w" * 40)
        store.flush()
        assert len(events) >= 2  # every shard flushed at least once
        store.obs.unsubscribe(events.append)

    def test_describe_mentions_router_and_width(self):
        store = self._store()
        text = store.describe()
        assert "2 x" in text and "HashRouter" in text


# -- scan events (facade/obs gap fix) ----------------------------------------

class TestScanEvent:
    def test_single_store_scan_emits_event(self):
        store = repro.open("sealdb", profile=TEST_PROFILE, shards=1)
        for i in range(20):
            store.put(key(i), b"v")
        events = []
        store.obs.subscribe(events.append, events={"op.scan"})
        assert len(list(store.scan(limit=7))) == 7
        assert len(events) == 1
        assert events[0].keys == 7
        assert events[0].latency >= 0
        assert store.obs.metrics.counters["ops.scan"].value == 1
        assert store.obs.metrics.counters["ops.scan_keys"].value == 7

    def test_unarmed_scan_pays_nothing(self):
        store = repro.open("sealdb", profile=TEST_PROFILE, shards=1)
        store.put(b"a", b"1")
        assert list(store.scan()) == [(b"a", b"1")]
        assert store.obs.metrics.counters.get("ops.scan") is None

    def test_sharded_scan_emits_facade_event(self):
        store = repro.open("sealdb", profile=TEST_PROFILE, shards=2)
        for i in range(20):
            store.put(key(i), b"v")
        store.obs.arm()
        list(store.scan())
        assert store.obs.metrics.counters["ops.scan"].value == 1
        assert store.obs.metrics.counters["ops.scan_keys"].value == 20


# -- environment default ------------------------------------------------------

class TestDefaultShards:
    def test_env_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_SHARDS", "2")
        store = repro.open("sealdb", profile=TEST_PROFILE)
        assert isinstance(store, ShardedStore)
        assert len(store.shards) == 2
        # explicit shards wins over the environment
        plain = repro.open("sealdb", profile=TEST_PROFILE, shards=1)
        assert not isinstance(plain, ShardedStore)

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_SHARDS", "many")
        with pytest.raises(ReproError):
            repro.open("sealdb", profile=TEST_PROFILE)
        monkeypatch.setenv("REPRO_DEFAULT_SHARDS", "0")
        with pytest.raises(ReproError):
            repro.open("sealdb", profile=TEST_PROFILE)

    def test_unset_means_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEFAULT_SHARDS", raising=False)
        assert repro.default_shards() == 1


# -- public surface -----------------------------------------------------------

class TestPublicSurface:
    def test_facade_exports(self):
        assert repro.WriteBatch is WriteBatch
        assert repro.ShardedStore is ShardedStore
        assert repro.HashRouter is HashRouter
        assert repro.RangeRouter is RangeRouter
        assert "default" in repro.PROFILES
        assert "small" in repro.PROFILES
        for name in ("open", "WriteBatch", "Options", "PROFILES",
                     "Snapshot", "ShardedStore"):
            assert name in repro.__all__

    def test_old_import_paths_still_work(self):
        from repro.lsm.wal import WriteBatch as OldWriteBatch
        from repro.lsm.options import Options as OldOptions
        assert OldWriteBatch is repro.WriteBatch
        assert OldOptions is repro.Options
