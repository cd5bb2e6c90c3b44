"""Persistent per-drive media faults: latent sector errors and bit-rot.

A :class:`MediaErrorMap` models the two dominant field failure modes of
high-density (SMR) media:

* **latent sector errors** -- the drive cannot read a byte range at
  all; every read overlapping it raises
  :class:`~repro.errors.MediaError`.  Deliberately *hard*: retries do
  not help, only rewriting the sectors does.
* **silent bit-rot** -- the drive returns success but some bytes come
  back flipped.  The map XORs a deterministic per-offset mask into the
  returned payload on *every* read, so the fault is persistent and
  replayable; only block checksums further up the stack catch it.

Both heal on overwrite (:meth:`MediaErrorMap.note_write`): writing a
sector remaps/refreshes it, as on real drives.  Masks are derived from
the map's seed and the absolute byte offset, so a given (seed, offset)
always rots the same way -- crash sweeps and fuzz tests replay
identically.

The map is attached lazily (``drive.inject_media_errors(seed=...)``);
drives default to ``_media = None`` and pay one ``is None`` check per
read, keeping fault-free simulations bit-identical.
"""

from __future__ import annotations

import zlib

from repro.errors import MediaError


def _rot_mask(seed: int, offset: int) -> int:
    """Deterministic non-zero XOR mask for the byte at ``offset``."""
    mask = zlib.crc32(offset.to_bytes(8, "little"), seed & 0xFFFFFFFF) & 0xFF
    return mask or 0xA5


class MediaErrorMap:
    """Seeded, persistent map of injected media faults on one drive."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        #: unreadable ranges as half-open (start, end) intervals
        self._latent: list[tuple[int, int]] = []
        #: absolute offset -> XOR mask applied on every read
        self._rot: dict[int, int] = {}
        #: reads that hit a latent error (for drive stats / scrub)
        self.read_errors = 0

    # -- injection -------------------------------------------------------

    def add_latent_error(self, offset: int, length: int = 1) -> None:
        """Mark ``[offset, offset + length)`` unreadable."""
        if length <= 0:
            raise ValueError(f"latent error length must be > 0, got {length}")
        self._latent.append((offset, offset + length))

    def add_rot(self, offset: int, nbytes: int = 1) -> None:
        """Silently flip ``nbytes`` bytes starting at ``offset``."""
        for pos in range(offset, offset + nbytes):
            self._rot[pos] = _rot_mask(self.seed, pos)

    # -- the read/write hooks -------------------------------------------

    def check_read(self, offset: int, length: int) -> None:
        """Raise :class:`MediaError` if the read hits a latent error."""
        end = offset + length
        for start, stop in self._latent:
            if start < end and offset < stop:
                self.read_errors += 1
                raise MediaError(max(start, offset),
                                 min(stop, end) - max(start, offset))

    def corrupt(self, offset: int, data: bytes) -> bytes:
        """Apply rot masks to a payload read from ``offset``."""
        if not self._rot:
            return data
        end = offset + len(data)
        out = None
        for pos, mask in self._rot.items():
            if offset <= pos < end:
                if out is None:
                    out = bytearray(data)
                out[pos - offset] ^= mask
        return bytes(out) if out is not None else data

    def note_write(self, offset: int, length: int) -> None:
        """Writing heals: drop faults overlapping the written range."""
        end = offset + length
        if self._latent:
            self._latent = [(s, e) for s, e in self._latent
                            if not (s < end and offset < e)]
        if self._rot:
            for pos in [p for p in self._rot if offset <= p < end]:
                del self._rot[pos]

    # -- introspection ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._latent or self._rot)

    def __repr__(self) -> str:
        return (f"MediaErrorMap(latent={len(self._latent)}, "
                f"rot={len(self._rot)}, read_errors={self.read_errors})")
