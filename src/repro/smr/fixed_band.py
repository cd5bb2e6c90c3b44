"""Fixed-band SMR drive with read-modify-write semantics.

This models the "emulated conventional SMR drives with band sizes
ranging from 20 MB to 60 MB" the paper uses for its baselines
(Section II-C).  The address space is divided into equal fixed-size
bands.  Within each band the drive tracks a *write frontier*: the end of
the highest byte ever written since the band was last reset.

* A write starting exactly at the frontier is a safe sequential append.
* A write starting **below** the frontier would overwrite shingled
  tracks, so the drive performs a band **read-modify-write**: it reads
  the valid prefix of the band, applies the modification, and rewrites
  the band up to the (possibly extended) frontier.  The extra device
  traffic is the paper's *auxiliary write amplification* (AWA).
* A write starting **above** the frontier leaves a never-written gap;
  that is physically safe on SMR (nothing downstream within the gap is
  valid), so it is treated as a sequential write and the frontier jumps.

Writes spanning multiple bands are split on band boundaries, exactly as
a real drive would handle them.
"""

from __future__ import annotations

from repro.obs.events import RMWEvent
from repro.smr.drive import Drive
from repro.smr.timing import DriveProfile, SMR_PROFILE, SimClock


class FixedBandSMRDrive(Drive):
    """Drive-emulated SMR with fixed bands and naive band RMW."""

    def __init__(self, capacity: int, band_size: int,
                 profile: DriveProfile = SMR_PROFILE,
                 clock: SimClock | None = None) -> None:
        if band_size <= 0:
            raise ValueError(f"band size must be positive, got {band_size}")
        super().__init__(capacity, profile, clock)
        self.band_size = band_size
        self.num_bands = (capacity + band_size - 1) // band_size
        #: per-band write frontier, as an absolute byte offset
        self._frontier = [band * band_size for band in range(self.num_bands)]
        #: band whose contents sit in the drive's buffer after an RMW;
        #: further sub-frontier writes to it are patched without another
        #: read-modify-write cycle (burst coalescing)
        self._open_band: int | None = None

    def band_of(self, offset: int) -> int:
        """Index of the band containing byte ``offset``."""
        return offset // self.band_size

    def band_frontier(self, band: int) -> int:
        """Absolute offset of ``band``'s write frontier."""
        return self._frontier[band]

    def bands_touched(self, offset: int, length: int) -> int:
        """Number of bands an extent ``[offset, offset+length)`` spans."""
        if length <= 0:
            return 0
        return self.band_of(offset + length - 1) - self.band_of(offset) + 1

    def _write_impl(self, offset: int, data: bytes, category: str = "data") -> None:
        self._check_range(offset, len(data))
        cursor = 0
        while cursor < len(data):
            start = offset + cursor
            band = self.band_of(start)
            band_end = (band + 1) * self.band_size
            chunk_len = min(len(data) - cursor, band_end - start)
            self._write_within_band(band, start, data[cursor : cursor + chunk_len], category)
            cursor += chunk_len

    def _write_within_band(self, band: int, offset: int, data: bytes,
                           category: str) -> None:
        band_start = band * self.band_size
        frontier = self._frontier[band]
        end = offset + len(data)

        if offset >= frontier:
            # Sequential append (possibly leaving a harmless gap).
            self._timed_write(offset, data, category)
            self._frontier[band] = end
            return

        new_frontier = max(frontier, end)
        prefix_len = new_frontier - band_start

        if band == self._open_band:
            # Burst coalescing: the band's contents already sit in the
            # drive buffer from a preceding RMW, so this update is
            # patched in place and written back within the same cycle --
            # only the new bytes add device traffic.
            elapsed = len(data) / self.profile.seq_write_bps
            self.clock.advance(elapsed)
            self.stats.record_write(offset, len(data), elapsed, category,
                                    seeked=False, now=self.clock.now, rmw=True)
            self._data[offset:end] = data
            self._frontier[band] = new_frontier
            obs = self._obs
            if obs is not None:
                obs.emit(RMWEvent(ts=self.clock.now, band=band, offset=offset,
                                  nbytes=len(data), moved_bytes=0))
            return

        if offset == band_start and end >= frontier:
            # The write replaces the whole valid prefix: a straight
            # sequential rewrite from the band start needs no read phase.
            self._timed_write(offset, data, category)
            self._frontier[band] = end
            self._open_band = band
            return

        # Update below the frontier: read-modify-write the written prefix
        # of the band.  The drive streams the prefix into its buffer,
        # patches it, and rewrites from the band start.
        self._data[offset:end] = data
        self._band_rmw(band_start, prefix_len, category,
                       seeked=band_start != self.model.head)
        self._frontier[band] = new_frontier
        self._open_band = band
        obs = self._obs
        if obs is not None:
            obs.emit(RMWEvent(ts=self.clock.now, band=band, offset=offset,
                              nbytes=len(data),
                              moved_bytes=prefix_len - len(data)))

    def trim(self, offset: int, length: int) -> None:
        """Reset a band's frontier when its entire written prefix is trimmed.

        Partial trims cannot lower the frontier (shingled tracks below
        still hold data the drive must protect), matching real devices
        where only a full band reset reclaims sequential-write ability.
        """
        self._check_range(offset, length)
        end = offset + length
        first = self.band_of(offset)
        last = self.band_of(end - 1) if length > 0 else first
        for band in range(first, last + 1):
            band_start = band * self.band_size
            if offset <= band_start and end >= self._frontier[band]:
                self._frontier[band] = band_start
                if self._open_band == band:
                    self._open_band = None
