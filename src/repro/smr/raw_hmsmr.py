"""Raw host-managed SMR drive (Caveat-Scriptor model).

The paper builds SEALDB on "a raw HM-SMR drive without physically
divided bands and persistent cache ... preferably written sequentially
and allowed to write anywhere with the promise of never overlapping
valid data" (Section II-A), citing Caveat-Scriptor [29].

The physical hazard being modelled: writing a track destroys data on
the next few shingled tracks.  We express that in bytes: a write to
``[offset, end)`` *damages* the following ``guard_size`` bytes
``[end, end + guard_size)``.  The drive keeps an
:class:`~repro.smr.extent.ExtentMap` of valid data and enforces two
rules on every write:

1. the target range must not itself contain valid data (the host must
   ``trim`` before reuse -- in-place overwrite is impossible on SMR);
2. the damage zone must not contain valid data (Eq. 1's guard-region
   requirement).

Violations raise :class:`~repro.errors.ShingleOverwriteError`; the
dynamic-band manager is responsible for never triggering them, and the
property-based tests verify it never does.

There is **no** read-modify-write here: every byte the host writes is
exactly one byte of device traffic, which is why AWA = 1 for SEALDB.
"""

from __future__ import annotations

import random

from repro.errors import ShingleOverwriteError
from repro.smr.drive import Drive
from repro.smr.extent import ExtentMap
from repro.smr.timing import DriveProfile, SMR_PROFILE, SimClock


class RawHMSMRDrive(Drive):
    """Write-anywhere shingled drive with a valid-data damage check."""

    def __init__(self, capacity: int, guard_size: int,
                 profile: DriveProfile = SMR_PROFILE,
                 clock: SimClock | None = None,
                 enforce: bool = True) -> None:
        if guard_size < 0:
            raise ValueError(f"guard size must be non-negative, got {guard_size}")
        super().__init__(capacity, profile, clock)
        self.guard_size = guard_size
        self.enforce = enforce
        self.valid = ExtentMap()

    def _write_impl(self, offset: int, data: bytes, category: str = "data") -> None:
        length = len(data)
        self._check_range(offset, length)
        end = offset + length
        if self.enforce:
            hit = self.valid.first_overlap(offset, end)
            if hit is not None:
                raise ShingleOverwriteError(offset, length, (hit.start, hit.end))
            damage_end = min(end + self.guard_size, self.capacity)
            hit = self.valid.first_overlap(end, damage_end)
            if hit is not None:
                raise ShingleOverwriteError(offset, length, (hit.start, hit.end))

        self._timed_write(offset, data, category)
        self.valid.add(offset, end)

    def trim(self, offset: int, length: int) -> None:
        """Invalidate ``[offset, offset+length)`` so the space may be reused."""
        self._check_range(offset, length)
        self.valid.remove(offset, offset + length)

    def valid_bytes(self) -> int:
        """Total bytes currently holding valid data."""
        return self.valid.total_bytes

    def rot_valid_bytes(self, count: int = 1, seed: int = 0) -> list[int]:
        """Inject bit-rot at ``count`` seeded positions inside valid data.

        Models ageing shingled media: rot lands where data actually
        lives, never in trimmed gaps (which the next write would heal
        unnoticed).  Returns the chosen absolute offsets so tests can
        assert on which table was hit.  Deterministic for a given seed
        and valid-extent layout.
        """
        extents = list(self.valid)
        if not extents or count <= 0:
            return []
        rng = random.Random(seed)
        media = self.inject_media_errors(seed=seed)
        total = sum(e.length for e in extents)
        offsets = []
        for _ in range(count):
            pick = rng.randrange(total)
            for extent in extents:
                if pick < extent.length:
                    offsets.append(extent.start + pick)
                    break
                pick -= extent.length
        for offset in offsets:
            media.add_rot(offset)
        return offsets

    def highest_valid_offset(self) -> int:
        """End offset of the last valid extent (the append frontier)."""
        return self.valid.max_end()
