"""The one store facade every store kind is built as.

Each store bundles a drive, a placement policy, and an engine
configuration (one row of :data:`repro.registry.STORE_SPECS`);
:class:`KVStoreBase` wires them together and exposes the operations plus
the measurements every experiment needs (WA / AWA / MWA, compaction
traces, simulated time).

Every store also owns one :class:`~repro.obs.Observability` handle at
``store.obs`` — the single instrumentation surface (typed events +
metrics registry) shared by experiments, the CLI and the crash
sweeper.  The facade works as a context manager::

    with repro.open("sealdb") as db:
        db.put(b"k", b"v")
"""

from __future__ import annotations

import threading
from typing import ContextManager, Iterator

from repro.fs.storage import Storage
from repro.lsm.db import DB, CompactionRecord, DBStats, Snapshot
from repro.lsm.options import Options
from repro.obs.bus import Observability
from repro.obs.events import DeleteEvent, GetEvent, PutEvent, ScanEvent
from repro.smr.drive import Drive
from repro.smr.stats import AmplificationTracker


class KVStoreBase:
    """A named store: drive + placement + engine."""

    def __init__(self, drive: Drive, storage: Storage, options: Options,
                 name: str = "base") -> None:
        self.name = name
        self.drive = drive
        self.storage = storage
        self.options = options
        self.tracker = AmplificationTracker()
        # Stats live on the facade so counters survive crash-recovery
        # (DB.recover used to build a fresh DBStats, orphaning the old
        # object anyone held); the engine mutates this same instance.
        self.stats = DBStats()
        self.db = DB(storage, options, self.tracker, stats=self.stats)
        self._op_lock = threading.RLock()
        self._closed = False
        self._obs = None
        self.obs = Observability(self.name)
        self._register_gauges(self.obs.metrics)
        self.storage.register_gauges(self.obs.metrics)
        self._wire_obs()

    def _wire_obs(self) -> None:
        """Bind every instrumented component to the store's bus.  Called
        again after ``reopen()`` replaces the engine."""
        components = [self, self.drive, self.storage, self.db]
        for attr in ("manager", "allocator"):
            extra = getattr(self.storage, attr, None)
            if extra is not None:
                components.append(extra)
        self.obs.bind(*components)

    def _register_gauges(self, metrics) -> None:
        """Lazy gauges evaluated on read; the placement policy adds its
        own through ``Storage.register_gauges``."""
        metrics.gauge("amp.wa", self.wa)
        metrics.gauge("amp.awa", self.awa)
        metrics.gauge("amp.mwa", self.mwa)
        metrics.gauge("resilience.quarantined_tables",
                      lambda: self.quarantined_tables)
        metrics.gauge("resilience.degraded_ranges",
                      lambda: len(self.degraded_ranges()))

    # -- operations ---------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        obs = self._obs
        if obs is None:
            self.db.put(key, value)
            return
        t0 = self.drive.now
        self.db.put(key, value)
        obs.emit(PutEvent(ts=t0, key_len=len(key), value_len=len(value),
                          latency=self.drive.now - t0))

    def get(self, key: bytes) -> bytes | None:
        obs = self._obs
        if obs is None:
            return self.db.get(key)
        t0 = self.drive.now
        value = self.db.get(key)
        obs.emit(GetEvent(ts=t0, key_len=len(key), hit=value is not None,
                          latency=self.drive.now - t0))
        return value

    def delete(self, key: bytes) -> None:
        obs = self._obs
        if obs is None:
            self.db.delete(key)
            return
        t0 = self.drive.now
        self.db.delete(key)
        obs.emit(DeleteEvent(ts=t0, key_len=len(key),
                             latency=self.drive.now - t0))

    def scan(self, start: bytes | None = None, end: bytes | None = None,
             limit: int | None = None) -> Iterator[tuple[bytes, bytes]]:
        if self._obs is None:
            return self.db.scan(start, end, limit)
        return self._observed_scan(self.db.scan(start, end, limit))

    def _observed_scan(self, pairs: Iterator[tuple[bytes, bytes]]
                       ) -> Iterator[tuple[bytes, bytes]]:
        """Wrap a lazy scan so one ``ScanEvent`` records the keys
        actually yielded; abandoned scans still report on close."""
        t0 = self.drive.now
        keys = 0
        try:
            for pair in pairs:
                yield pair
                keys += 1
        finally:
            obs = self._obs
            if obs is not None:
                obs.emit(ScanEvent(ts=t0, keys=keys,
                                   latency=self.drive.now - t0))

    def snapshot(self) -> Snapshot:
        """A consistent point-in-time read view (context manager whose
        ``get``/``scan`` pin the engine sequence number)::

            with db.snapshot() as snap:
                old = snap.get(key)
        """
        return self.db.snapshot()

    def write_batch(self, batch) -> None:
        """Apply a :class:`~repro.lsm.wal.WriteBatch` atomically."""
        self.db.write(batch)

    def compact_range(self, start: bytes | None = None,
                      end: bytes | None = None) -> int:
        """Manually compact ``[start, end]`` down the tree."""
        return self.db.compact_range(start, end)

    def flush(self) -> None:
        self.db.flush()

    def close(self) -> None:
        """Flush and close.  Idempotent: the serving layer's graceful
        drain and a ``with`` block's ``__exit__`` may both call it."""
        if self._closed:
            return
        self._closed = True
        self.db.close()

    def reopen(self) -> "KVStoreBase":
        """Simulate a crash-restart: rebuild the engine from the
        manifest log and WAL on the (surviving) simulated drive.
        Returns ``self`` so call sites can chain operations."""
        self.db = DB.recover(self.storage, self.options, self.tracker,
                             stats=self.stats)
        self._closed = False
        self._wire_obs()
        return self

    # -- multi-threaded callers ----------------------------------------------

    def lock_for(self, key: bytes | None = None) -> ContextManager:
        """Serialization lock for out-of-simulation callers (the
        ``repro.net`` server's executor threads).  The engine stack is
        single-threaded by design; a store-wide re-entrant lock makes
        blocking invocation from a thread pool safe.  ``key`` lets a
        sharded facade hand back a narrower (per-shard) lock so
        requests for different shards run in parallel; ``None`` means
        "the whole store" (scans, batches, flush, close)."""
        return self._op_lock

    # -- resilience -----------------------------------------------------------

    def scrub(self):
        """Verify every live table block-by-block off the device,
        quarantining persistent failures.  Returns a
        :class:`~repro.resilience.scrub.ScrubReport`."""
        return self.db.scrub()

    def repair(self):
        """Rebuild the manifest from surviving tables, dropping
        unreadable ones (this clears quarantine marks -- the repaired
        store either reads a table clean or drops it).  Returns the
        :class:`~repro.lsm.repair.RepairReport`; the store keeps
        serving from the rebuilt engine."""
        from repro.lsm.repair import repair
        self.db, report = repair(self.storage, self.options, self.tracker,
                                 obs=self._obs)
        self.db.stats = self.stats
        self._wire_obs()
        return report

    @property
    def quarantined_tables(self) -> int:
        """Live tables currently fenced off after persistent read
        failures."""
        return self.db.quarantined_tables

    def degraded_ranges(self) -> list[tuple[bytes, bytes]]:
        """User-key ranges currently unavailable (quarantined tables)."""
        return self.db.degraded_ranges()

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "KVStoreBase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- measurements ---------------------------------------------------------

    @property
    def now(self) -> float:
        return self.drive.now

    @property
    def compaction_records(self) -> list[CompactionRecord]:
        return self.db.compaction_records

    def real_compactions(self) -> list[CompactionRecord]:
        """Compactions that moved data (trivial moves excluded)."""
        return [r for r in self.compaction_records if not r.trivial_move]

    def wa(self) -> float:
        """Write amplification from the LSM-tree (Table I)."""
        return self.tracker.wa()

    def awa(self) -> float:
        """Auxiliary write amplification from the drive (Table I)."""
        return self.tracker.awa(self.drive.stats)

    def mwa(self) -> float:
        """Multiplicative overall write amplification (Table I)."""
        return self.tracker.mwa(self.drive.stats)

    def level_summary(self) -> list[tuple[int, int, int]]:
        return self.db.level_summary()

    # -- dynamic-band layout (stores on DynamicBandStorage) -------------------

    @property
    def band_manager(self):
        return self.storage.manager

    @property
    def set_registry(self):
        return self.storage.sets

    def fragments(self, max_useful: int | None = None):
        return self.storage.fragments(max_useful)

    def describe(self) -> str:
        return (f"{self.name}: drive={type(self.drive).__name__} "
                f"storage={type(self.storage).__name__} "
                f"levels={self.options.max_levels} sets={self.options.use_sets}")
