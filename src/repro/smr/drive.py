"""Base drive interface and the conventional (HDD) drive.

A drive owns a byte-addressable address space, a timing model driven by
a :class:`~repro.smr.timing.SimClock`, and a :class:`DriveStats`.  Data
is held in an in-memory ``bytearray`` so the KV engines above operate on
real bytes while latency comes from the model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro import faults
from repro.errors import OutOfRangeError
from repro.smr.stats import DriveStats
from repro.smr.timing import DiskTimingModel, DriveProfile, HDD_PROFILE, SimClock


class Drive(ABC):
    """Abstract simulated drive."""

    def __init__(self, capacity: int, profile: DriveProfile,
                 clock: SimClock | None = None) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.profile = profile
        self.clock = clock if clock is not None else SimClock()
        self.model = DiskTimingModel(profile=profile, capacity=capacity, clock=self.clock)
        self.stats = DriveStats()
        self._data = bytearray(capacity)
        #: observability bus; None while no subscriber (zero-cost hooks)
        self._obs = None
        #: injected media faults; None while healthy (zero-cost reads)
        self._media = None

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self.clock.now

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.capacity:
            raise OutOfRangeError(offset, length, self.capacity)

    def read(self, offset: int, length: int, category: str = "data") -> bytes:
        """Read ``length`` bytes at ``offset``, advancing the clock.

        Carries the read-side fault model: a latent sector error in the
        drive's :class:`~repro.resilience.media.MediaErrorMap` raises
        :class:`~repro.errors.MediaError` (after the head moved and the
        clock advanced -- the drive *tried*), rotted bytes come back
        silently flipped, and the ``drive.read`` failpoint can corrupt
        the returned payload one-shot.
        """
        self._check_range(offset, length)
        seeked = offset != self.model.head
        elapsed = self.model.access(offset, length, is_write=False)
        self.stats.record_read(offset, length, elapsed, category,
                               seeked=seeked, now=self.clock.now)
        data = bytes(self._data[offset : offset + length])
        media = self._media
        if media is not None:
            media.check_read(offset, length)
            data = media.corrupt(offset, data)
        inj = faults.fire(faults.DRIVE_READ, data=data, clock=self.clock)
        if inj is not None:
            data = inj.mutate_bytes(data)
            inj.finish()
        return data

    def inject_media_errors(self, seed: int = 0):
        """Attach (lazily) and return this drive's media-error map."""
        if self._media is None:
            from repro.resilience.media import MediaErrorMap
            self._media = MediaErrorMap(seed=seed)
        return self._media

    @property
    def media_errors(self):
        """The attached media-error map, or ``None`` while healthy."""
        return self._media

    def write(self, offset: int, data: bytes, category: str = "data") -> None:
        """Write ``data`` at ``offset`` under this drive's semantics.

        Carries the ``drive.write`` failpoint: an armed torn-write
        action truncates ``data`` to the prefix that "reached the
        medium" before the simulated power failure.
        """
        inj = faults.fire(faults.DRIVE_WRITE, data=data, clock=self.clock)
        if inj is None:
            self._write_impl(offset, data, category)
            if self._media is not None:
                self._media.note_write(offset, len(data))
            return
        data = inj.mutate_bytes(data)
        if data:
            self._write_impl(offset, data, category)
            if self._media is not None:
                self._media.note_write(offset, len(data))
        inj.finish()

    @abstractmethod
    def _write_impl(self, offset: int, data: bytes, category: str = "data") -> None:
        """The drive-specific write semantics (no failpoint handling)."""

    def _timed_write(self, offset: int, data: bytes, category: str) -> None:
        """One positioned media write: timing, stats, then the bytes."""
        length = len(data)
        seeked = offset != self.model.head
        elapsed = self.model.access(offset, length, is_write=True)
        self.stats.record_write(offset, length, elapsed, category,
                                seeked=seeked, now=self.clock.now)
        self._data[offset : offset + length] = data

    def _band_rmw(self, band_start: int, prefix_len: int, category: str, *,
                  seeked: bool) -> None:
        """Band read-modify-write: stream the written prefix into the
        drive buffer, then rewrite it from the band start."""
        read_elapsed = self.model.access(band_start, prefix_len, is_write=False)
        self.stats.record_read(band_start, prefix_len, read_elapsed, category,
                               seeked=seeked, now=self.clock.now, rmw=True)
        write_elapsed = self.model.access(band_start, prefix_len, is_write=True,
                                          sequential_hint=True)
        self.stats.record_write(band_start, prefix_len, write_elapsed, category,
                                seeked=True, now=self.clock.now, rmw=True)

    def write_buffered(self, offset: int, data: bytes, category: str = "data") -> None:
        """Write absorbed by the page cache / journal (WAL and manifests).

        LevelDB does not sync its log by default, so WAL and manifest
        traffic is coalesced by the OS and written back sequentially in
        the background on every store alike.  The model charges pure
        transfer time -- no seek, no rotational latency, no band RMW --
        and leaves the head where it was.  Bytes still land in the data
        array and are counted per category.
        """
        inj = faults.fire(faults.DRIVE_WRITE, data=data, clock=self.clock)
        if inj is not None:
            data = inj.mutate_bytes(data)
        length = len(data)
        self._check_range(offset, length)
        elapsed = length / self.profile.seq_write_bps
        self.clock.advance(elapsed)
        self.stats.record_write(offset, length, elapsed, category,
                                seeked=False, now=self.clock.now)
        self._data[offset : offset + length] = data
        if self._media is not None:
            self._media.note_write(offset, length)
        if inj is not None:
            inj.finish()

    def charge_metadata_op(self) -> float:
        """Charge the cost of one filesystem-metadata update.

        Ext4 touches inode tables / block bitmaps / the journal on every
        file create and delete -- the "redundant software overhead" the
        paper's direct-on-disk stores avoid.  Modelled as one small
        random write: absorbed by the write cache when the drive has
        one, a seek plus rotation otherwise.  No user data moves.
        """
        if self.profile.write_cache:
            elapsed = self.profile.cached_write_s
        else:
            elapsed = (self.profile.track_switch_s
                       + self.profile.full_seek_s * 0.3
                       + self.profile.half_rotation_s)
        self.clock.advance(elapsed)
        self.stats.busy_time += elapsed
        return elapsed

    def trim(self, offset: int, length: int) -> None:
        """Hint that ``[offset, offset+length)`` no longer holds valid data.

        A no-op for conventional drives; SMR drives use it to update
        their valid-data bookkeeping.
        """
        self._check_range(offset, length)

    # -- raw access without timing, for tests and verification ----------

    def peek(self, offset: int, length: int) -> bytes:
        """Read without advancing the clock or touching stats (test hook)."""
        self._check_range(offset, length)
        return bytes(self._data[offset : offset + length])


class ConventionalDrive(Drive):
    """A plain hard disk: reads and writes anywhere, positional timing only."""

    def __init__(self, capacity: int, profile: DriveProfile = HDD_PROFILE,
                 clock: SimClock | None = None) -> None:
        super().__init__(capacity, profile, clock)

    def _write_impl(self, offset: int, data: bytes, category: str = "data") -> None:
        self._check_range(offset, len(data))
        self._timed_write(offset, data, category)
