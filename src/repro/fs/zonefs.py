"""ZenFS-style placement on a zoned device.

The modern alternative to SEALDB's dynamic bands: run the LSM on a
standard zoned (ZBC/ZNS) device, appending files into fixed
sequential-write zones and garbage-collecting zones when free ones run
low.  This is the design point the paper argues against ("storing sets
in conventional SMR drives with fixed bands ... results in space
wastage"), implemented here so the trade-off is measurable
(``benchmarks/test_ablation_zoned.py``).

Policy:

* files append into the currently *open* zone, spilling into the next
  empty zone when full (files may span zones via extents);
* deletes only mark garbage; a fully-garbage zone is reset and becomes
  empty again for free;
* when empty zones run below a reserve, the zone with the most garbage
  is collected: its live extents are rewritten to the open zone, then
  the zone is reset -- the relocation traffic is the zoned-storage
  equivalent of AWA and is charged to the ``table`` category.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AllocationError, StorageError
from repro.fs.storage import FileStream, Storage
from repro.smr.extent import Extent
from repro.smr.stats import CATEGORY_TABLE
from repro.smr.zoned import ZonedDrive


@dataclass
class ZoneState:
    """Host-side bookkeeping for one zone."""

    index: int
    live: int = 0
    garbage: int = 0
    #: extents of live data in this zone: name -> positions in the
    #: file's extent list
    residents: dict[str, list[int]] = field(default_factory=dict)


class ZoneStorage(Storage):
    """Append-into-zones placement with greedy zone GC."""

    def __init__(self, drive: ZonedDrive, *, wal_size: int, meta_size: int,
                 gc_reserve_zones: int = 2) -> None:
        if wal_size + meta_size > 2 * drive.zone_size:
            raise StorageError("wal+meta regions must fit the journal zones")
        # zones 0 and 1 hold the WAL and manifest journals (conventional
        # zones on real hardware); data zones start at zone 2
        super().__init__(drive, wal_size=wal_size, meta_size=meta_size,
                         region_gap=drive.zone_size - wal_size)
        self.gc_reserve_zones = gc_reserve_zones
        self.first_data_zone = 2
        self.zones = {z: ZoneState(z)
                      for z in range(self.first_data_zone, drive.num_zones)}
        self._open_zone: int | None = None
        self.gc_runs = 0
        self.gc_bytes_moved = 0

    # -- zone helpers -----------------------------------------------------

    def _empty_zones(self) -> list[int]:
        return [z for z, s in self.zones.items()
                if s.live == 0 and s.garbage == 0
                and self.drive.zone_remaining(z) == self.drive.zone_size
                and z != self._open_zone]

    def _ensure_open_zone(self) -> int:
        if (self._open_zone is not None
                and self.drive.zone_remaining(self._open_zone) > 0):
            return self._open_zone
        empties = self._empty_zones()
        if not empties:
            raise AllocationError("no empty zones left")
        self._open_zone = empties[0]
        return self._open_zone

    def _extend(self, extents: list[Extent], data: bytes,
                category: str) -> list[Extent]:
        """Append ``data`` starting at the open zone's write pointer,
        spilling into further empty zones as needed.  (A file's earlier
        ``extents`` do not matter: zones only ever append.)"""
        pieces: list[Extent] = []
        cursor = 0
        while cursor < len(data):
            zone = self._ensure_open_zone()
            room = self.drive.zone_remaining(zone)
            chunk = data[cursor : cursor + room]
            offset = self.drive.write_pointer(zone)
            try:
                self.drive.write(offset, chunk, category=category)
            except BaseException:
                # A crash mid-append: turn the already-placed pieces
                # (and any torn prefix of this chunk) into garbage so
                # zone GC can reclaim them.
                torn = self.drive.write_pointer(zone) - offset
                if torn > 0:
                    self.zones[zone].garbage += torn
                self._mark_garbage(pieces)
                raise
            pieces.append(Extent(offset, offset + len(chunk)))
            self.zones[zone].live += len(chunk)
            cursor += len(chunk)
        return pieces

    def _mark_garbage(self, extents: list[Extent]) -> None:
        for ext in extents:
            state = self.zones[self.drive.zone_of(ext.start)]
            state.live -= ext.length
            state.garbage += ext.length

    def _abandon(self, extents: list[Extent]) -> None:
        """Turn ``extents`` into garbage; zones left with nothing live
        are reset on the spot."""
        self._mark_garbage(extents)
        for zone, state in self.zones.items():
            if state.live == 0 and state.garbage > 0 and zone != self._open_zone:
                self.drive.reset_zone(zone)
                state.garbage = 0
                state.residents.clear()

    def _commit(self, name: str, extents: list[Extent], size: int) -> None:
        super()._commit(name, extents, size)
        self._index_residents(name)

    def _index_residents(self, name: str) -> None:
        for position, ext in enumerate(self._files[name][0]):
            zone = self.drive.zone_of(ext.start)
            self.zones[zone].residents.setdefault(name, []).append(position)

    # -- garbage collection -------------------------------------------------

    def _maybe_collect(self) -> None:
        while len(self._empty_zones()) < self.gc_reserve_zones:
            if not self._collect_one():
                break

    def _collect_one(self) -> bool:
        """Reset the fullest-of-garbage zone, relocating its live data."""
        candidates = [s for z, s in self.zones.items()
                      if z != self._open_zone and s.garbage > 0]
        if not candidates:
            return False
        victim = max(candidates, key=lambda s: s.garbage)
        self.gc_runs += 1
        moved_before = self.gc_bytes_moved
        # relocate live resident extents; descending positions so the
        # splices never shift a not-yet-processed index
        for name, positions in list(victim.residents.items()):
            extents, _size = self._files[name]
            for position in sorted(positions, reverse=True):
                old = extents[position]
                payload = self.drive.read(old.start, old.length,
                                          category=CATEGORY_TABLE)
                new_pieces = self._extend(extents, payload, CATEGORY_TABLE)
                self.gc_bytes_moved += old.length
                extents[position : position + 1] = new_pieces
            self._reindex_residents(name)
        victim.residents.clear()
        victim.live = 0
        victim.garbage = 0
        self.drive.reset_zone(victim.index)
        obs = self._obs
        if obs is not None:
            from repro.obs.events import ZoneGC
            obs.emit(ZoneGC(ts=self.drive.now, zone=victim.index,
                            moved_bytes=self.gc_bytes_moved - moved_before))
        return True

    def _reindex_residents(self, name: str) -> None:
        """Rebuild zone->positions for one file after a splice."""
        for state in self.zones.values():
            state.residents.pop(name, None)
        self._index_residents(name)

    # -- Storage interface ---------------------------------------------------

    def write_file(self, name: str, data: bytes,
                   category: str = CATEGORY_TABLE) -> None:
        self._check_new(name)
        self._maybe_collect()
        self._commit(name, self._extend([], bytes(data), category), len(data))

    def create_stream(self, name: str, chunk_size: int,
                      category: str = CATEGORY_TABLE) -> FileStream:
        stream = FileStream(self, name, chunk_size, category)
        self._maybe_collect()
        return stream

    def delete_file(self, name: str) -> None:
        extents = self._pop(name)
        for ext in extents:
            self.zones[self.drive.zone_of(ext.start)].residents.pop(name, None)
        self._abandon(extents)

    # -- introspection ----------------------------------------------------

    def garbage_bytes(self) -> int:
        return sum(s.garbage for s in self.zones.values())

    def live_bytes(self) -> int:
        return sum(s.live for s in self.zones.values())
