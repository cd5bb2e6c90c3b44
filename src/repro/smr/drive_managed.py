"""Drive-managed SMR with a persistent media cache (DM-SMR).

Section II-C of the paper dismisses DM-SMR as a fix: "existing SMR
drives with a media cache cannot address the MWA problem, since cache
cleaning processes induce large latency as well as write amplification
and bring a bimodal behavior" (citing the Skylight and evaluation
studies [8], [27]).  This model exists to *demonstrate* that claim (see
``benchmarks/test_ablation_dmsmr.py``): it is not used by any of the
paper's four store configurations.

Mechanics, following the Skylight findings for Seagate drive-managed
disks:

* a reserved **media cache** region absorbs non-sequential writes as a
  persistent log (fast path: sequential appends into the cache plus a
  mapping entry);
* sequential writes at a band's frontier bypass the cache (streamed);
* when the cache fills beyond a high-water mark, the drive **cleans**:
  for every band with dirty cache entries it performs a band
  read-modify-write folding the cached updates in, then resets the
  cache -- the long stalls that produce the bimodal service times;
* reads must consult the cache mapping and may pay an extra seek when
  the newest data lives in the cache.
"""

from __future__ import annotations

from repro.obs.events import MediaCacheClean, RMWEvent
from repro.smr.drive import Drive
from repro.smr.timing import DriveProfile, SMR_PROFILE, SimClock


class DriveManagedSMRDrive(Drive):
    """Fixed-band SMR behind a shingled translation layer with a
    persistent media cache."""

    def __init__(self, capacity: int, band_size: int,
                 cache_size: int | None = None,
                 profile: DriveProfile = SMR_PROFILE,
                 clock: SimClock | None = None,
                 clean_watermark: float = 0.8) -> None:
        if band_size <= 0:
            raise ValueError("band size must be positive")
        super().__init__(capacity, profile, clock)
        self.band_size = band_size
        self.cache_size = (cache_size if cache_size is not None
                           else max(band_size, capacity // 100))
        if not 0.1 <= clean_watermark <= 1.0:
            raise ValueError("clean watermark must be in [0.1, 1.0]")
        self.clean_watermark = clean_watermark
        #: native area starts after the cache region
        self.native_start = self.cache_size
        self.num_bands = (capacity - self.native_start) // band_size
        self._frontier = [self.native_start + b * band_size
                          for b in range(self.num_bands)]
        #: cache occupancy in bytes (the log tail within the cache region)
        self._cache_used = 0
        #: native offset -> pending length of cached (newest) data,
        #: coalesced per write
        self._dirty: dict[int, int] = {}
        self._dirty_bands: set[int] = set()
        self.cleanings = 0
        self.cache_hits = 0

    def band_of(self, offset: int) -> int:
        return (offset - self.native_start) // self.band_size

    def _write_impl(self, offset: int, data: bytes, category: str = "data") -> None:
        length = len(data)
        self._check_range(offset, length)
        if offset < self.native_start:
            raise ValueError("the cache region is drive-internal")
        band = self.band_of(offset)
        frontier = self._frontier[band]
        if offset == frontier:
            # sequential fast path: streamed straight to the band
            self._timed_write(offset, data, category)
            self._frontier[band] = offset + length
            return

        if length >= self.cache_size // 2:
            # too large for the cache: fold into the band directly
            band_start = self.native_start + band * self.band_size
            prefix = max(self._frontier[band], offset + length) - band_start
            self._data[offset : offset + length] = data
            self._band_rmw(band_start, prefix, category, seeked=True)
            self._frontier[band] = band_start + prefix
            obs = self._obs
            if obs is not None:
                obs.emit(RMWEvent(ts=self.clock.now, band=band, offset=offset,
                                  nbytes=length, moved_bytes=prefix - length))
            return

        # non-sequential: absorb into the media cache (sequential append
        # inside the cache region + a mapping update)
        cache_offset = self._cache_used % max(1, self.cache_size - length)
        elapsed = self.model.access(cache_offset, length, is_write=True,
                                    sequential_hint=True)
        self.stats.record_write(offset, length, elapsed, category,
                                seeked=False, now=self.clock.now)
        self._data[offset : offset + length] = data  # logical content
        self._frontier[band] = max(frontier, offset + length)
        self._cache_used += length
        self._dirty[offset] = max(self._dirty.get(offset, 0), length)
        self._dirty_bands.add(band)
        if self._cache_used >= self.cache_size * self.clean_watermark:
            self._clean(category)

    def _clean(self, category: str) -> None:
        """Fold every dirty band: read band, merge cached data, rewrite.

        This is the long stall behind DM-SMR's bimodal write latency;
        every cleaned band adds a full band of device write traffic.
        """
        self.cleanings += 1
        start = self.clock.now
        folded = 0
        for band in sorted(self._dirty_bands):
            band_start = self.native_start + band * self.band_size
            prefix = self._frontier[band] - band_start
            if prefix <= 0:
                continue
            self._band_rmw(band_start, prefix, category, seeked=True)
            folded += prefix
        obs = self._obs
        if obs is not None:
            obs.emit(MediaCacheClean(ts=start, bands=len(self._dirty_bands),
                                     nbytes=folded))
        self._dirty.clear()
        self._dirty_bands.clear()
        self._cache_used = 0

    def read(self, offset: int, length: int, category: str = "data") -> bytes:
        if self._covers_dirty(offset, length):
            # newest copy lives in the cache region: extra head trip
            self.cache_hits += 1
            self.model.access(0, 0, is_write=False)  # reposition only
        return super().read(offset, length, category)

    def _covers_dirty(self, offset: int, length: int) -> bool:
        for dirty_offset, dirty_len in self._dirty.items():
            if dirty_offset < offset + length and offset < dirty_offset + dirty_len:
                return True
        return False

    def trim(self, offset: int, length: int) -> None:
        self._check_range(offset, length)
        if offset < self.native_start:
            return
        end = offset + length
        first = self.band_of(offset)
        last = self.band_of(end - 1) if length > 0 else first
        for band in range(first, last + 1):
            band_start = self.native_start + band * self.band_size
            if offset <= band_start and end >= self._frontier[band]:
                self._frontier[band] = band_start
