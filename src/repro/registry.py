"""Store kinds and the single public entry point ``repro.open``.

Every store kind is the same :class:`~repro.kvstore.KVStoreBase` over a
different drive, placement policy and engine configuration.  A kind is
one row of :data:`STORE_SPECS`, and callers construct stores
uniformly::

    import repro

    with repro.open("sealdb") as db:                 # default profile
        ...
    db = repro.open("leveldb", profile=SMALL_PROFILE, drive_kind="hdd")
    db = repro.build_store("sealdb", SMALL_PROFILE, max_levels=3)

:func:`build_store` returns one plain store.  ``repro.open`` also
shards it on request and applies any installed observability taps
(:func:`repro.obs.tapping`), which is how ``repro trace`` /
``repro metrics`` instrument stores that experiments construct
internally.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Callable

from repro.core.storage import DynamicBandStorage
from repro.errors import ReproError
from repro.fs.ext4sim import Ext4Storage
from repro.fs.storage import BandAlignedStorage, Storage
from repro.fs.zonefs import ZoneStorage
from repro.harness.profiles import DEFAULT_PROFILE, ScaleProfile
from repro.kvstore import KVStoreBase
from repro.lsm.options import Options
from repro.obs.bus import apply_taps
from repro.smr.drive import ConventionalDrive, Drive
from repro.smr.drive_managed import DriveManagedSMRDrive
from repro.smr.fixed_band import FixedBandSMRDrive
from repro.smr.raw_hmsmr import RawHMSMRDrive
from repro.smr.timing import HDD_PROFILE, SMR_PROFILE, SimClock
from repro.smr.zoned import ZonedDrive

#: a kind's drive, storage and ``Options`` overrides
Parts = tuple[Drive, Storage, dict]


@dataclass(frozen=True)
class StoreSpec:
    """One store kind: what :func:`build_store` wires together."""

    #: display name (``store.name``; table rows and metrics labels)
    name: str
    #: ``(profile, capacity, clock, **kind keywords) -> Parts``
    build: Callable[..., Parts]


def _leveldb(profile: ScaleProfile, capacity: int, clock: SimClock | None,
             band_size: int | None = None, drive_kind: str = "smr") -> Parts:
    """Stock LevelDB: ext4 over a fixed-band SMR drive.

    The ext4-like allocator scatters the files of one compaction over
    the used region (Fig. 2), and every write below a band's frontier
    costs a band read-modify-write (the source of AWA, Fig. 3).
    ``drive_kind="hdd"`` is the Fig. 2 motivation setup (plain HDD, no
    band RMW); ``"dm-smr"`` is drive-managed SMR with a persistent media
    cache, for the Section II-C claim that a media cache does not fix
    MWA.
    """
    band = band_size if band_size is not None else profile.band_size
    smr = SMR_PROFILE.scaled(profile.io_scale)
    if drive_kind == "smr":
        drive = FixedBandSMRDrive(capacity, band, profile=smr, clock=clock)
    elif drive_kind == "hdd":
        drive = ConventionalDrive(capacity,
                                  profile=HDD_PROFILE.scaled(profile.io_scale),
                                  clock=clock)
    elif drive_kind == "dm-smr":
        drive = DriveManagedSMRDrive(capacity, band, cache_size=capacity // 50,
                                     profile=smr, clock=clock)
    else:
        raise ReproError(f"unknown drive kind {drive_kind!r}")
    # On the DM-SMR model the low LBAs stand in for the drive's
    # internal media cache; table data must be placed past it (the
    # WAL/meta regions use buffered writes and coexist harmlessly).
    gap = 0
    native_start = getattr(drive, "native_start", 0)
    reserved = profile.wal_region + profile.meta_region
    if native_start > reserved:
        gap = (native_start - reserved + 1) // 2
    return drive, Ext4Storage(drive, wal_size=profile.wal_region,
                              meta_size=profile.meta_region,
                              block_size=profile.block_size,
                              region_gap=gap), {}


def _leveldb_sets(profile: ScaleProfile, capacity: int,
                  clock: SimClock | None,
                  band_size: int | None = None) -> Parts:
    """The Fig. 14 ablation: sets without dynamic bands.

    The engine groups compaction outputs and prefetches inputs, and the
    ext4 layer gives each group one contiguous run when it can -- but
    the fixed-band drive still charges band read-modify-writes.
    """
    band = band_size if band_size is not None else profile.band_size
    drive = FixedBandSMRDrive(capacity, band,
                              profile=SMR_PROFILE.scaled(profile.io_scale),
                              clock=clock)
    storage = Ext4Storage(drive, wal_size=profile.wal_region,
                          meta_size=profile.meta_region,
                          block_size=profile.block_size,
                          contiguous_groups=True)
    return drive, storage, {"use_sets": True}


def _smrdb(profile: ScaleProfile, capacity: int, clock: SimClock | None,
           band_size: int | None = None) -> Parts:
    """SMRDB (Pitchumani et al., SYSTOR'15) as the paper re-implemented
    it: "enlarging SSTables to the band size, assigning SSTables to
    dedicated bands and reserving only two levels".  Whole-band writes
    start at a freshly reset band frontier, so AWA = 1.
    """
    band = band_size if band_size is not None else profile.band_size
    drive = FixedBandSMRDrive(capacity, band,
                              profile=SMR_PROFILE.scaled(profile.io_scale),
                              clock=clock)
    storage = BandAlignedStorage(drive, band_size=band,
                                 wal_size=max(profile.wal_region, band),
                                 meta_size=profile.meta_region)
    # Leveled with exactly two levels: L0 holds overlapping band-sized
    # memtable dumps; when the L0 trigger fires, every overlapping L0
    # run merges with all overlapping L1 tables -- the few, enormous
    # compactions of Fig. 10.  The 1/8 reserve absorbs index/filter/
    # block-framing overhead so a finished table always fits its
    # dedicated band (the overhead fraction is larger at simulation
    # scale than at 40 MB scale).
    return drive, storage, {
        "max_levels": 2, "sstable_size": band * 7 // 8,
        "write_buffer_size": band * 3 // 4,
        "base_level_bytes": band * profile.level_base_tables}


def _zonekv(profile: ScaleProfile, capacity: int, clock: SimClock | None,
            zone_size: int | None = None) -> Parts:
    """ZoneKV (extension, not a paper configuration): the set-aware
    engine on a ZBC/ZNS zoned device through a ZenFS-style zone
    allocator, the modern counterfactual to dynamic bands
    (``benchmarks/test_ablation_zoned.py``).
    """
    # a zone is much larger than an SMR band (real ZNS zones are
    # ~1-2 GB vs 15-40 MB bands); default 4 bands' worth
    zone = zone_size if zone_size is not None else profile.band_size * 4
    drive = ZonedDrive(capacity, zone,
                       profile=SMR_PROFILE.scaled(profile.io_scale),
                       clock=clock)
    storage = ZoneStorage(drive, wal_size=min(profile.wal_region, zone),
                          meta_size=min(profile.meta_region, zone))
    return drive, storage, {"use_sets": True}


def _sealdb(profile: ScaleProfile, capacity: int,
            clock: SimClock | None) -> Parts:
    """SEALDB: dynamic bands on a raw HM-SMR drive (write-anywhere,
    damage-zone enforced), with a guard region of one SSTable size (the
    paper's 4 MB)."""
    drive = RawHMSMRDrive(capacity, guard_size=profile.guard_size,
                          profile=SMR_PROFILE.scaled(profile.io_scale),
                          clock=clock)
    storage = DynamicBandStorage(drive, wal_size=profile.wal_region,
                                 meta_size=profile.meta_region,
                                 class_unit=profile.sstable_size)
    return drive, storage, {"use_sets": True}


#: kind name -> row; ``store_kinds()`` lists the keys
STORE_SPECS: dict[str, StoreSpec] = {
    "leveldb": StoreSpec("LevelDB", _leveldb),
    "leveldb+sets": StoreSpec("LevelDB+sets", _leveldb_sets),
    "smrdb": StoreSpec("SMRDB", _smrdb),
    "zonekv": StoreSpec("ZoneKV", _zonekv),
    # Compaction outputs are written as contiguous sets and inputs
    # streamed with sequential whole-file reads.  The victim policy
    # stays the default round-robin "pointer", which keeps WA equal to
    # LevelDB's as Fig. 12(a) reports; the paper's "priority to compact
    # the set with more invalid SSTables" is victim_policy=
    # "invalid-set-first", which trades extra WA for faster space
    # recycling (benchmarks/test_ablation_victim_policy.py).
    "sealdb": StoreSpec("SEALDB", _sealdb),
}
_ALIASES: dict[str, str] = {
    "leveldb_sets": "leveldb+sets",  # shell-friendly spelling
}
_OPTION_FIELDS = frozenset(f.name for f in fields(Options))


def store_kinds() -> tuple[str, ...]:
    """The store kinds, sorted."""
    return tuple(sorted(STORE_SPECS))


def build_store(kind: str, profile: ScaleProfile = DEFAULT_PROFILE, *,
                capacity: int | None = None, clock: SimClock | None = None,
                **overrides) -> KVStoreBase:
    """One unsharded, untapped store of ``kind``.

    ``overrides`` are the kind's own keywords (``band_size`` on the
    fixed-band kinds, ``drive_kind`` on ``leveldb``, ``zone_size`` on
    ``zonekv``) and any :class:`~repro.lsm.options.Options` field, which
    wins over the kind's own engine configuration.  A keyword the kind
    does not take raises ``TypeError``.
    """
    key = kind.lower()
    spec = STORE_SPECS.get(_ALIASES.get(key, key))
    if spec is None:
        raise ReproError(
            f"unknown store kind {kind!r}; choose from {store_kinds()}")
    engine = {name: overrides.pop(name) for name in list(overrides)
              if name in _OPTION_FIELDS}
    drive, storage, options = spec.build(
        profile, capacity if capacity is not None else profile.capacity,
        clock, **overrides)
    options = profile.options(**{**options, **engine})
    return KVStoreBase(drive, storage, options, name=spec.name)


def default_shards() -> int:
    """The implicit shard count: ``REPRO_DEFAULT_SHARDS`` if set
    (used by the CI matrix to smoke out single-shard assumptions),
    else 1."""
    raw = os.environ.get("REPRO_DEFAULT_SHARDS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ReproError(
            f"REPRO_DEFAULT_SHARDS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ReproError(f"REPRO_DEFAULT_SHARDS must be >= 1, got {value}")
    return value


def open_store(kind: str, *, profile: ScaleProfile = DEFAULT_PROFILE,
               shards: int | None = None, router: str = "hash",
               router_boundaries: list[bytes] | None = None,
               shard_parallel: bool = True,
               **overrides) -> KVStoreBase:
    """Construct a store by kind name — the public entry point
    (exported as ``repro.open``).

    ``overrides`` are forwarded to :func:`build_store` (``capacity``,
    ``clock``, the kind's drive/placement keywords and ``Options``
    fields).

    ``shards`` > 1 returns a :class:`repro.shard.ShardedStore` over
    that many independent instances of ``kind`` (each with its own
    drive, WAL, and compaction state; ``capacity`` and the profile
    apply *per shard*), keys partitioned by ``router`` (``"hash"``,
    ``"range"``, or a :class:`repro.shard.Router`).  ``shards=1`` (or
    unset, with ``REPRO_DEFAULT_SHARDS`` empty) is exactly the
    single-store construction path.
    """
    if shards is None:
        shards = default_shards()
    if shards < 1:
        raise ReproError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        store = build_store(kind, profile, **overrides)
    else:
        if "clock" in overrides:
            raise ReproError(
                "cannot share one clock across shards; every shard owns an "
                "independent simulated timeline")
        from repro.shard import ShardedStore, make_router
        store = ShardedStore(
            [build_store(kind, profile, **overrides) for _ in range(shards)],
            make_router(router, shards, router_boundaries),
            parallel=shard_parallel)
    apply_taps(store)
    return store
