"""`ShardedStore`: N independent stores behind one `KVStoreBase` surface.

Keyspace partitioning with independent per-partition compaction is the
standard lever for scaling LSM throughput without raising write
amplification: each shard owns a full store stack (simulated drive,
storage backend, WAL, manifest, compaction state), a router assigns
every user key to exactly one shard, and the facade re-exposes the
single-store API on top.

Timeline semantics
------------------
Every shard owns an *independent* simulated clock, modelling N drives
working in parallel.  ``store.now`` is the **max** across shard clocks
(the parallel wall-clock of the fleet); :meth:`timeline` additionally
reports the per-shard clocks and their sum (aggregate device-seconds),
so experiments can quote both "how long did the parallel system take"
and "how much total drive time was consumed".

Cross-shard batch semantics
---------------------------
``write_batch`` splits a :class:`~repro.lsm.wal.WriteBatch` by router
and applies each sub-batch *atomically within its shard* (one WAL
record per shard).  There is **no cross-shard atomicity**: a crash can
persist the sub-batch on shard A but not on shard B.  Readers never
see a partially applied sub-batch, and single-key operations keep full
per-key atomicity -- the same contract sharded production stores
(e.g. partitioned column families) document.

Bulk operations (:meth:`bulk_load`, multi-shard ``write_batch``) fan
out over a ``ThreadPoolExecutor``; shards never share mutable state,
so each worker thread drives exactly one shard.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, ContextManager, Iterable, Iterator, Sequence

from repro.errors import (
    DriveError,
    InvariantViolation,
    KeyRangeUnavailable,
    ReproError,
    ShardUnavailable,
    StorageError,
)
from repro.harness.metrics import ShardTimeline
from repro.kvstore import KVStoreBase
from repro.lsm.db import CompactionRecord, DBStats
from repro.lsm.ikey import TYPE_VALUE
from repro.lsm.wal import WriteBatch
from repro.obs.bus import Observability
from repro.obs.events import ScanEvent
from repro.obs.metrics import MetricsRegistry, merge_registries
from repro.shard.merge import merge_shard_scans
from repro.shard.router import Router
from repro.smr.stats import CATEGORY_TABLE, AmplificationTracker


class FanoutObservability(Observability):
    """The sharded facade's bus: arming / subscribing propagates to every
    shard's bus, so ``store.obs.subscribe(cb)`` sees facade-level events
    (cross-shard scans) *and* every per-shard event stream."""

    def __init__(self, name: str, shards: Sequence[KVStoreBase]) -> None:
        super().__init__(name)
        self._children = [shard.obs for shard in shards]

    def arm(self) -> None:
        super().arm()
        for child in self._children:
            child.arm()

    def disarm(self) -> None:
        super().disarm()
        for child in self._children:
            child.disarm()

    def subscribe(self, callback, events=None):
        super().subscribe(callback, events)
        for child in self._children:
            child.subscribe(callback, events)
        return callback

    def unsubscribe(self, callback) -> None:
        super().unsubscribe(callback)
        for child in self._children:
            child.unsubscribe(callback)


# Shard health states.  HEALTHY and DEGRADED are derived (a shard with
# quarantined tables is degraded but still serves every other range);
# FAILED is sticky -- set when a shard raises a fatal drive/storage/
# invariant error -- and only cleared by a successful recovery in
# :meth:`ShardedStore.reopen`.
HEALTHY = "healthy"
DEGRADED = "degraded"
FAILED = "failed"


class ShardedScan:
    """A merged cross-shard scan that knows whether it is complete.

    Iterates like the plain generator it wraps; additionally exposes
    ``skipped_shards`` (indices whose shard was failed at scan start or
    failed mid-stream) and ``partial`` (true when any shard was
    skipped).  A shard failing *mid-stream* ends its contribution but
    not the scan -- surviving shards keep feeding the merge.

    :meth:`close` (or leaving the ``with`` block) releases the merge
    *and* every per-shard guarded stream deterministically -- an early
    termination (e.g. a network client disconnecting mid-SCAN) must not
    leave shard iterators suspended until garbage collection.
    """

    def __init__(self, pairs: Iterator[tuple[bytes, bytes]],
                 skipped: list[int],
                 streams: Sequence[Iterator[tuple[bytes, bytes]]] = ()
                 ) -> None:
        self._pairs = pairs
        self._streams = list(streams)
        #: shared with the stream guards, so mid-scan failures appear here
        self.skipped_shards = skipped

    @property
    def partial(self) -> bool:
        return bool(self.skipped_shards)

    def __iter__(self) -> "ShardedScan":
        return self

    def __next__(self) -> tuple[bytes, bytes]:
        return next(self._pairs)

    def close(self) -> None:
        """Release the merged stream and each per-shard source."""
        for it in (self._pairs, *self._streams):
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "ShardedScan":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class _MultiLock:
    """Acquire several locks in a fixed order (release in reverse)."""

    __slots__ = ("_locks",)

    def __init__(self, locks: Sequence[ContextManager]) -> None:
        self._locks = list(locks)

    def __enter__(self) -> "_MultiLock":
        for lock in self._locks:
            lock.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for lock in reversed(self._locks):
            lock.__exit__(exc_type, exc, tb)


class ShardedSnapshot:
    """Composed point-in-time view: one engine snapshot per shard.

    ``get``/``scan`` pin each shard's sequence number at creation time;
    the composition is consistent per shard (and therefore per key),
    with the same cross-shard caveat as ``write_batch``: the per-shard
    sequence points were taken one after another, not atomically.
    """

    def __init__(self, store: "ShardedStore") -> None:
        self._store = store
        self._snapshots = [shard.snapshot() for shard in store.shards]

    @property
    def sequences(self) -> tuple[int, ...]:
        return tuple(snap.sequence for snap in self._snapshots)

    def get(self, key: bytes) -> bytes | None:
        return self._snapshots[self._store.router.shard_of(key)].get(key)

    def scan(self, start: bytes | None = None, end: bytes | None = None,
             limit: int | None = None) -> Iterator[tuple[bytes, bytes]]:
        candidates = self._store.router.shards_for_range(start, end)
        streams = [self._snapshots[i].scan(start, end, limit)
                   for i in candidates]
        return _limited(merge_shard_scans(streams), limit)

    def __enter__(self) -> "ShardedSnapshot":
        return self

    def __exit__(self, *_exc) -> None:
        return None


def _limited(pairs: Iterator[tuple[bytes, bytes]],
             limit: int | None) -> Iterator[tuple[bytes, bytes]]:
    if limit is None:
        yield from pairs
        return
    if limit <= 0:
        return
    count = 0
    for pair in pairs:
        yield pair
        count += 1
        if count >= limit:
            break


class ShardedStore(KVStoreBase):
    """Routes the `KVStoreBase` surface over N independent shards."""

    name = "sharded"

    def __init__(self, shards: Sequence[KVStoreBase], router: Router, *,
                 name: str | None = None, parallel: bool = True,
                 max_workers: int | None = None) -> None:
        if not shards:
            raise ReproError("a sharded store needs at least one shard")
        if router.num_shards != len(shards):
            raise ReproError(
                f"router expects {router.num_shards} shards, got "
                f"{len(shards)}")
        clocks = {id(shard.drive.clock) for shard in shards}
        if len(clocks) != len(shards):
            raise ReproError(
                "shards must own independent simulated clocks; a shared "
                "clock would serialize the parallel timeline")
        self.shards = list(shards)
        self.router = router
        self.name = name if name is not None else (
            f"{self.shards[0].name}x{len(self.shards)}")
        self.options = self.shards[0].options
        self._parallel = parallel
        self._max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None
        self._failed: set[int] = set()
        self._closed = False
        self._obs = None
        self.obs = FanoutObservability(self.name, self.shards)
        self._register_gauges(self.obs.metrics)
        self.obs.bind(self)

    # -- routing / fan-out helpers -----------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers or len(self.shards),
                thread_name_prefix=f"{self.name}-shard")
        return self._pool

    def _fanout(self, fn: Callable, jobs: Sequence[tuple]) -> list:
        """Run ``fn(*job)`` once per job, in the pool when parallel.

        Jobs touch disjoint shards (each shard's entire stack is
        single-threaded within one job), so this is safe without locks.
        """
        if self._parallel and len(jobs) > 1:
            pool = self._ensure_pool()
            futures = [pool.submit(fn, *job) for job in jobs]
            return [future.result() for future in futures]
        return [fn(*job) for job in jobs]

    # -- fault isolation -----------------------------------------------------

    def _check_available(self, index: int) -> None:
        if index in self._failed:
            raise ShardUnavailable(f"shard {index} is failed")

    def _guarded(self, index: int, fn: Callable):
        """Run one shard operation behind the fault boundary.

        A typed :class:`KeyRangeUnavailable` (quarantined table) passes
        through untouched -- the shard is degraded, not dead, and the
        caller gets the precise range error.  Anything fatal below the
        engine (drive, storage, broken invariant) marks the shard FAILED
        and surfaces as :class:`ShardUnavailable`; the sibling shards
        keep serving.
        """
        try:
            return fn()
        except ShardUnavailable:
            raise
        except KeyRangeUnavailable:
            raise
        except (DriveError, StorageError, InvariantViolation) as exc:
            self._failed.add(index)
            raise ShardUnavailable(f"shard {index} failed: {exc}") from exc

    def shard_health(self) -> list[str]:
        """Per-shard health: FAILED is sticky until recovery; a live
        shard with quarantined tables is DEGRADED."""
        return [FAILED if index in self._failed
                else DEGRADED if shard.quarantined_tables
                else HEALTHY
                for index, shard in enumerate(self.shards)]

    # -- operations ---------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        index = self.router.shard_of(key)
        self._check_available(index)
        self._guarded(index, lambda: self.shards[index].put(key, value))

    def get(self, key: bytes) -> bytes | None:
        index = self.router.shard_of(key)
        self._check_available(index)
        return self._guarded(index, lambda: self.shards[index].get(key))

    def delete(self, key: bytes) -> None:
        index = self.router.shard_of(key)
        self._check_available(index)
        self._guarded(index, lambda: self.shards[index].delete(key))

    def _guarded_stream(self, index: int, skipped: list[int],
                        start: bytes | None, end: bytes | None,
                        limit: int | None) -> Iterator[tuple[bytes, bytes]]:
        """One shard's scan stream behind the fault boundary: a fatal
        failure mid-stream marks the shard FAILED, records it in the
        scan's ``skipped_shards`` and ends this stream -- the merge
        continues over the survivors.  Range quarantines still raise."""
        try:
            yield from self.shards[index].scan(start, end, limit)
        except ShardUnavailable:
            raise
        except KeyRangeUnavailable:
            raise
        except (DriveError, StorageError, InvariantViolation):
            self._failed.add(index)
            skipped.append(index)

    def scan(self, start: bytes | None = None, end: bytes | None = None,
             limit: int | None = None) -> ShardedScan:
        """Scatter-gather scan over the live shards.

        Failed shards are skipped rather than failing the whole scan;
        the returned :class:`ShardedScan` flags the result ``partial``
        and names the ``skipped_shards``.
        """
        candidates = self.router.shards_for_range(start, end)
        skipped = [i for i in candidates if i in self._failed]
        streams = [self._guarded_stream(i, skipped, start, end, limit)
                   for i in candidates if i not in self._failed]
        merged = _limited(merge_shard_scans(streams), limit)
        if self._obs is not None:
            merged = self._observed_scan(merged)
        return ShardedScan(merged, skipped, streams)

    def _observed_scan(self, merged: Iterator[tuple[bytes, bytes]]
                       ) -> Iterator[tuple[bytes, bytes]]:
        t0 = self.now
        keys = 0
        try:
            for pair in merged:
                yield pair
                keys += 1
        finally:
            obs = self._obs
            if obs is not None:
                obs.emit(ScanEvent(ts=t0, keys=keys, latency=self.now - t0))

    def write_batch(self, batch: WriteBatch) -> None:
        """Split ``batch`` by router; apply each sub-batch atomically on
        its shard (see the module docstring for cross-shard semantics)."""
        subs: dict[int, WriteBatch] = {}
        for type_, key, value in batch.ops:
            sub = subs.setdefault(self.router.shard_of(key), WriteBatch())
            if type_ == TYPE_VALUE:
                sub.put(key, value)
            else:
                sub.delete(key)
        jobs = sorted(subs.items())
        # Refuse up front if any target shard is failed -- better no
        # sub-batch lands than a surprise subset.
        for index, _sub in jobs:
            self._check_available(index)
        self._fanout(
            lambda index, sub: self._guarded(
                index, lambda: self.shards[index].write_batch(sub)),
            jobs)

    def bulk_load(self, pairs: Iterable[tuple[bytes, bytes]],
                  batch_size: int = 256) -> ShardTimeline:
        """Partition ``pairs`` by router and load every shard in
        parallel, batching ``batch_size`` puts per WAL record.  Returns
        the resulting :class:`ShardTimeline` (per-shard, max, and total
        simulated seconds spent)."""
        per_shard: list[list[tuple[bytes, bytes]]] = [
            [] for _ in self.shards]
        for key, value in pairs:
            per_shard[self.router.shard_of(key)].append((key, value))
        starts = [shard.now for shard in self.shards]

        def load(shard: KVStoreBase, items: list[tuple[bytes, bytes]]) -> None:
            batch = WriteBatch()
            for key, value in items:
                batch.put(key, value)
                if len(batch) >= batch_size:
                    shard.write_batch(batch)
                    batch = WriteBatch()
            if len(batch):
                shard.write_batch(batch)

        for index, items in enumerate(per_shard):
            if items:
                self._check_available(index)
        self._fanout(
            lambda index, items: self._guarded(
                index, lambda: load(self.shards[index], items)),
            list(enumerate(per_shard)))
        spent = [shard.now - start
                 for shard, start in zip(self.shards, starts)]
        return ShardTimeline(per_shard=spent)

    def _live_shards(self) -> list[tuple[int, KVStoreBase]]:
        return [(index, shard) for index, shard in enumerate(self.shards)
                if index not in self._failed]

    def compact_range(self, start: bytes | None = None,
                      end: bytes | None = None) -> int:
        return sum(self._fanout(
            lambda index, shard: self._guarded(
                index, lambda: shard.compact_range(start, end)),
            self._live_shards()))

    def flush(self) -> None:
        self._fanout(
            lambda index, shard: self._guarded(index, shard.flush),
            self._live_shards())

    def close(self) -> None:
        """Close every shard and the fan-out pool.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._fanout(lambda shard: shard.close(),
                     [(shard,) for shard in self.shards])
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def lock_for(self, key: bytes | None = None) -> ContextManager:
        """Per-shard serialization for out-of-simulation callers: a
        keyed request locks only its owning shard (so the net server's
        executor threads drive different shards in parallel); key-less
        operations (scans, batches, flush) take every shard's lock in
        index order."""
        if key is not None:
            return self.shards[self.router.shard_of(key)].lock_for(key)
        return _MultiLock([shard.lock_for() for shard in self.shards])

    def reopen(self) -> "ShardedStore":
        """Crash-restart every shard, running per-shard recovery.

        A shard that recovers cleanly but still carries quarantined
        tables -- or that cannot recover at all -- goes through the
        repair path (rebuild the manifest from surviving tables,
        dropping the bad ones) and rejoins.  Only a shard whose repair
        itself fails stays FAILED; the facade never stops serving the
        others.
        """
        self._closed = False
        for index, shard in enumerate(self.shards):
            try:
                shard.reopen()
            except ReproError:
                self._failed.add(index)
                try:
                    shard.repair()
                except ReproError:
                    continue  # stays failed; siblings keep serving
            if shard.quarantined_tables:
                try:
                    shard.repair()
                except ReproError:
                    self._failed.add(index)
                    continue
            self._failed.discard(index)
        return self

    def snapshot(self) -> ShardedSnapshot:
        return ShardedSnapshot(self)

    # -- resilience ---------------------------------------------------------

    def scrub(self):
        """Scrub every live shard; returns one merged
        :class:`~repro.resilience.scrub.ScrubReport`."""
        from repro.resilience.scrub import ScrubReport
        merged = ScrubReport()
        for index, shard in self._live_shards():
            merged.merge(self._guarded(index, shard.scrub))
        return merged

    def repair(self) -> list:
        """Repair every shard (failed ones included -- this is the
        recovery path); shards whose repair succeeds rejoin the fleet.
        Returns the per-shard repair reports."""
        reports = []
        for index, shard in enumerate(self.shards):
            try:
                reports.append(shard.repair())
            except ReproError:
                self._failed.add(index)
                reports.append(None)
            else:
                self._failed.discard(index)
        return reports

    # -- measurements -------------------------------------------------------

    @property
    def now(self) -> float:
        """Parallel wall-clock: the furthest shard clock."""
        return max(shard.now for shard in self.shards)

    def timeline(self) -> ShardTimeline:
        """Per-shard simulated clocks plus max (parallel wall time) and
        sum (aggregate device-seconds)."""
        return ShardTimeline(per_shard=[shard.now for shard in self.shards])

    @property
    def stats(self) -> DBStats:
        """Merged operation counters across shards."""
        merged = DBStats()
        for shard in self.shards:
            s = shard.stats
            merged.puts += s.puts
            merged.gets += s.gets
            merged.deletes += s.deletes
            merged.scans += s.scans
            merged.get_hits += s.get_hits
            merged.tables_opened += s.tables_opened
            merged.read_retries += s.read_retries
            merged.media_errors += s.media_errors
            merged.quarantines += s.quarantines
        return merged

    @property
    def quarantined_tables(self) -> int:
        """Quarantined tables across all live shards."""
        return sum(shard.quarantined_tables
                   for index, shard in enumerate(self.shards)
                   if index not in self._failed)

    def degraded_ranges(self) -> list[tuple[bytes, bytes]]:
        """Unavailable user-key ranges across all live shards."""
        return [rng for index, shard in enumerate(self.shards)
                if index not in self._failed
                for rng in shard.degraded_ranges()]

    @property
    def tracker(self) -> AmplificationTracker:
        """Merged WA inputs across shards (a fresh aggregate per read)."""
        merged = AmplificationTracker()
        for shard in self.shards:
            merged.user_bytes += shard.tracker.user_bytes
            merged.lsm_bytes += shard.tracker.lsm_bytes
            merged.flush_bytes += shard.tracker.flush_bytes
            merged.compaction_bytes += shard.tracker.compaction_bytes
        return merged

    @property
    def compaction_records(self) -> list[CompactionRecord]:
        """Every shard's compactions, merged on the start timestamp."""
        records = [record for shard in self.shards
                   for record in shard.compaction_records]
        records.sort(key=lambda r: (r.start_time, r.end_time))
        return records

    def wa(self) -> float:
        return self.tracker.wa()

    def awa(self) -> float:
        """AWA over the summed device/table byte streams of all drives."""
        lsm = sum(shard.tracker.lsm_bytes for shard in self.shards)
        if lsm == 0:
            return 0.0
        device = sum(
            shard.drive.stats.bytes_written_by_category.get(CATEGORY_TABLE, 0)
            for shard in self.shards)
        return device / lsm

    def mwa(self) -> float:
        return self.wa() * self.awa()

    def level_summary(self) -> list[tuple[int, int, int]]:
        """Per level, summed across shards: ``(level, files, bytes)``."""
        levels = max(shard.options.max_levels for shard in self.shards)
        files = [0] * levels
        nbytes = [0] * levels
        for shard in self.shards:
            for level, count, total in shard.level_summary():
                files[level] += count
                nbytes[level] += total
        return [(level, files[level], nbytes[level])
                for level in range(levels)]

    def merged_metrics(self) -> MetricsRegistry:
        """One registry folding every shard's metrics plus the facade's
        own (cross-shard scans), with amplification gauges recomputed
        from the merged trackers.  Per-shard registries stay available
        at ``store.shards[i].obs.metrics``."""
        merged = merge_registries([shard.obs.metrics
                                   for shard in self.shards])
        merged.merge(self.obs.metrics)
        merged.gauge("amp.wa").set(self.wa())
        merged.gauge("amp.awa").set(self.awa())
        merged.gauge("amp.mwa").set(self.mwa())
        # Gauges merge keep-last, so resilience totals must be summed
        # here explicitly or `repro metrics` would show one shard's view.
        merged.gauge("resilience.quarantined_tables").set(
            self.quarantined_tables)
        merged.gauge("resilience.degraded_ranges").set(
            len(self.degraded_ranges()))
        merged.gauge("resilience.failed_shards").set(len(self._failed))
        health = self.shard_health()
        for state in (HEALTHY, DEGRADED, FAILED):
            merged.gauge(f"shard.{state}").set(health.count(state))
        return merged

    def describe(self) -> str:
        return (f"{self.name}: {len(self.shards)} x "
                f"[{self.shards[0].describe()}] "
                f"router={self.router.describe()}")
