"""SSTable block format: prefix-compressed entries with restart points.

The layout is LevelDB's::

    entry*   : varint shared | varint non_shared | varint value_len
               | key_delta (non_shared bytes) | value
    restarts : fixed32 offset per restart point
    trailer  : fixed32 num_restarts | fixed32 crc32(payload)

Keys are serialized internal keys (user key + 8-byte trailer).  Every
``restart_interval``-th entry stores its full key (``shared = 0``) so a
reader can binary-search the restart array and then scan at most one
interval.  Readers hand entries out as ``(Key, value)`` pairs (see
:mod:`repro.lsm.ikey`).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterator

from repro.errors import CorruptionError
from repro.lsm.ikey import TRAILER, Key
from repro.util.varint import (
    decode_fixed32,
    decode_varint,
    encode_fixed32,
    encode_varint,
)

_from_bytes = int.from_bytes


@dataclass(frozen=True)
class BlockHandle:
    """Location of a block inside its table file."""

    offset: int
    size: int

    def encode(self) -> bytes:
        return encode_varint(self.offset) + encode_varint(self.size)

    @classmethod
    def decode(cls, data: bytes, pos: int = 0) -> tuple["BlockHandle", int]:
        offset, pos = decode_varint(data, pos)
        size, pos = decode_varint(data, pos)
        return cls(offset, size), pos


class BlockBuilder:
    """Accumulates sorted ``(encoded_key, value)`` pairs into one block."""

    def __init__(self, restart_interval: int = 16) -> None:
        if restart_interval < 1:
            raise ValueError("restart interval must be >= 1")
        self._restart_interval = restart_interval
        self._buf = bytearray()
        self._restarts: list[int] = [0]
        self._last_key = b""
        self._num_entries = 0

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def empty(self) -> bool:
        return self._num_entries == 0

    def size_estimate(self) -> int:
        """Bytes the finished block will occupy (excluding the crc)."""
        return len(self._buf) + 4 * (len(self._restarts) + 1)

    def add(self, key: bytes, value: bytes) -> int:
        """Append one entry; returns the new :meth:`size_estimate`."""
        buf = self._buf
        shared = 0
        if self._num_entries % self._restart_interval:
            # shared prefix with the previous key: the highest set bit
            # of the XOR sits in the first differing byte
            last = self._last_key
            n = len(key)
            if n == len(last):
                diff = _from_bytes(last, "big") ^ _from_bytes(key, "big")
            else:
                n = min(n, len(last))
                diff = (_from_bytes(last[:n], "big")
                        ^ _from_bytes(key[:n], "big"))
            shared = n - (diff.bit_length() + 7) // 8
        elif self._num_entries:
            self._restarts.append(len(buf))
        non_shared = len(key) - shared
        value_len = len(value)
        if shared | non_shared | value_len < 0x80:
            buf.append(shared)
            buf.append(non_shared)
            buf.append(value_len)
        else:
            buf += (encode_varint(shared) + encode_varint(non_shared)
                    + encode_varint(value_len))
        buf += key[shared:] if shared else key
        buf += value
        self._last_key = key
        self._num_entries += 1
        return len(buf) + 4 * (len(self._restarts) + 1)

    def finish(self) -> bytes:
        restarts = self._restarts
        payload = self._buf + struct.pack(f"<{len(restarts) + 1}I",
                                          *restarts, len(restarts))
        payload += encode_fixed32(zlib.crc32(payload))
        return bytes(payload)


class Block:
    """A parsed, immutable block supporting iteration and seek."""

    def __init__(self, data: bytes, verify: bool = True) -> None:
        if len(data) < 12:
            raise CorruptionError(f"block too small: {len(data)} bytes")
        if verify:
            stored_crc = decode_fixed32(data, len(data) - 4)
            if zlib.crc32(data[:-4]) != stored_crc:
                raise CorruptionError("block crc mismatch")
        num_restarts = decode_fixed32(data, len(data) - 8)
        limit = len(data) - 8 - 4 * num_restarts
        if limit < 0:
            raise CorruptionError("block restart array overruns block")
        # entries occupy data[:limit]; the >= 8 bytes behind them mean an
        # entry header read near the end never indexes past ``data``
        self._data = data
        self._limit = limit
        self._restarts = struct.unpack_from(f"<{num_restarts}I", data, limit)
        self.size = len(data)

    def _decode(self, pos: int, end: int) -> list[tuple[Key, bytes]]:
        """Entries of ``data[pos:end]``, ``pos`` being a restart point.

        One pass; every entry is checked against ``end`` so a corrupt
        length is a :class:`CorruptionError`, never a short slice.
        """
        data = self._data
        unpack_trailer = TRAILER.unpack_from
        out: list[tuple[Key, bytes]] = []
        append = out.append
        key = b""
        while pos < end:
            shared = data[pos]
            non_shared = data[pos + 1]
            value_len = data[pos + 2]
            if shared | non_shared | value_len < 0x80:
                pos += 3
            else:
                shared, pos = decode_varint(data, pos)
                non_shared, pos = decode_varint(data, pos)
                value_len, pos = decode_varint(data, pos)
            key_end = pos + non_shared
            value_end = key_end + value_len
            if value_end > end:
                raise CorruptionError("block entry overruns block")
            if shared:
                if shared > len(key):
                    raise CorruptionError("corrupt shared-prefix length")
                key = key[:shared] + data[pos:key_end]
            else:
                key = data[pos:key_end]
            trailer_at = len(key) - 8
            if trailer_at < 0:
                raise CorruptionError(
                    f"internal key too short: {len(key)} bytes")
            trailer = unpack_trailer(key, trailer_at)[0]
            if trailer & 0xFE:
                raise CorruptionError(f"bad entry type {trailer & 0xFF}")
            append(((key[:trailer_at], -trailer), data[key_end:value_end]))
            pos = value_end
        return out

    def __iter__(self) -> Iterator[tuple[Key, bytes]]:
        return iter(self._decode(0, self._limit))

    def _restart_key(self, index: int) -> Key:
        """Key of the entry at restart ``index`` (stored unshared)."""
        data = self._data
        pos = self._restarts[index]
        if pos >= self._limit:
            raise CorruptionError("block restart offset overruns block")
        shared, pos = decode_varint(data, pos)
        non_shared, pos = decode_varint(data, pos)
        _value_len, pos = decode_varint(data, pos)
        key_end = pos + non_shared
        if shared or non_shared < 8 or key_end > self._limit:
            raise CorruptionError("corrupt entry at block restart point")
        return (data[pos:key_end - 8],
                -TRAILER.unpack_from(data, key_end - 8)[0])

    def seek(self, target: Key) -> Iterator[tuple[Key, bytes]]:
        """Iterate entries with key >= ``target``.

        Binary-searches the restart array, then decodes one restart
        interval at a time, so a point lookup pays for one interval and
        not for the block.
        """
        restarts = self._restarts
        if not restarts or not self._limit:
            return
        # the last restart whose key is < target
        lo, hi = 0, len(restarts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._restart_key(mid) < target:
                lo = mid
            else:
                hi = mid - 1
        start = restarts[lo]
        end = restarts[lo + 1] if lo + 1 < len(restarts) else self._limit
        yield from [e for e in self._decode(start, end) if not e[0] < target]
        yield from self._decode(end, self._limit)
