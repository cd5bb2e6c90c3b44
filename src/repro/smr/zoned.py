"""Zoned block device (ZBC/ZAC host-managed SMR, ZNS-style semantics).

The paper builds SEALDB on a *raw* HM-SMR drive precisely to escape the
fixed-zone model standardized by T10/T13 ZBC (Section II-A cites the
standardization effort).  This module implements that standardized
alternative so the trade-off can be measured: fixed, equal-size
**sequential-write-required zones**, each with a write pointer.

Rules enforced (per ZBC):

* a write must start exactly at its zone's write pointer;
* a write must not cross the zone boundary;
* rewinding requires an explicit ``reset_zone`` (which discards the
  zone's contents).

Anything else raises :class:`ZoneViolation`.  Unlike the fixed-band SMR
model there is no drive-side read-modify-write: the device simply
refuses; the *host* (see :class:`repro.fs.zonefs.ZoneStorage`) must
garbage-collect zones, which is where the write amplification
reappears.
"""

from __future__ import annotations

from repro.errors import DriveError
from repro.obs.events import ZoneReset
from repro.smr.drive import Drive
from repro.smr.timing import DriveProfile, SMR_PROFILE, SimClock


class ZoneViolation(DriveError):
    """A write broke the zoned-device sequential-write rule."""


class ZonedDrive(Drive):
    """Host-managed zoned device with sequential-write-required zones."""

    def __init__(self, capacity: int, zone_size: int,
                 profile: DriveProfile = SMR_PROFILE,
                 clock: SimClock | None = None) -> None:
        if zone_size <= 0:
            raise ValueError("zone size must be positive")
        if capacity % zone_size:
            capacity -= capacity % zone_size
        super().__init__(capacity, profile, clock)
        self.zone_size = zone_size
        self.num_zones = capacity // zone_size
        #: per-zone write pointer, as an absolute offset
        self._wp = [z * zone_size for z in range(self.num_zones)]
        self.zone_resets = 0

    def zone_of(self, offset: int) -> int:
        return offset // self.zone_size

    def write_pointer(self, zone: int) -> int:
        """Absolute offset of ``zone``'s write pointer."""
        return self._wp[zone]

    def zone_remaining(self, zone: int) -> int:
        """Writable bytes left in ``zone``."""
        return (zone + 1) * self.zone_size - self._wp[zone]

    def _write_impl(self, offset: int, data: bytes, category: str = "data") -> None:
        length = len(data)
        self._check_range(offset, length)
        zone = self.zone_of(offset)
        if offset != self._wp[zone]:
            raise ZoneViolation(
                f"write at {offset} but zone {zone} write pointer is "
                f"{self._wp[zone]}"
            )
        if offset + length > (zone + 1) * self.zone_size:
            raise ZoneViolation(
                f"write [{offset}, {offset + length}) crosses the boundary "
                f"of zone {zone}"
            )
        self._timed_write(offset, data, category)
        self._wp[zone] = offset + length

    def reset_zone(self, zone: int) -> None:
        """Rewind ``zone``'s write pointer, discarding its contents."""
        if not 0 <= zone < self.num_zones:
            raise DriveError(f"no such zone {zone}")
        self._wp[zone] = zone * self.zone_size
        self.zone_resets += 1
        obs = self._obs
        if obs is not None:
            obs.emit(ZoneReset(ts=self.clock.now, zone=zone))

    def trim(self, offset: int, length: int) -> None:
        """Zones only reset wholesale; byte trims are advisory no-ops."""
        self._check_range(offset, length)

    def empty_zones(self) -> list[int]:
        return [z for z in range(self.num_zones)
                if self._wp[z] == z * self.zone_size]
