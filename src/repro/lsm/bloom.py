"""Bloom filter with double hashing, LevelDB-style.

One filter covers a whole SSTable's user keys (RocksDB's whole-table
policy, simpler than LevelDB's per-2KB slices and equivalent for the
paper's workloads).  ``k`` probes are derived from a single 64-bit FNV
hash by repeated rotation, LevelDB's trick to avoid hashing ``k`` times.

The structural guarantee -- **no false negatives** -- is what the
property tests pin down; the false-positive rate for 10 bits/key is
about 1 %.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptionError
from repro.util.rng import fnv1a_64, fnv1a_64_many

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _probes_for(bits_per_key: int) -> int:
    k = int(bits_per_key * 0.69)  # bits/key * ln(2)
    return max(1, min(30, k))


class BloomFilter:
    """Immutable bloom filter over a set of byte keys."""

    def __init__(self, bitmap: bytes, num_probes: int) -> None:
        if not bitmap:
            raise CorruptionError("empty bloom bitmap")
        self._bitmap = bitmap
        self._bits = len(bitmap) * 8
        self._probes = num_probes

    @classmethod
    def build(cls, keys: list[bytes], bits_per_key: int) -> "BloomFilter":
        num_probes = _probes_for(bits_per_key)
        # whole bytes, at least 64 bits
        bits = (max(64, len(keys) * bits_per_key) + 7) // 8 * 8
        # one bool per bit; the scalar form of this loop is the
        # reference in tests/test_bloom.py
        bitmap = np.zeros(bits, dtype=bool)
        h = fnv1a_64_many(keys)
        delta = (h >> np.uint64(17)) | (h << np.uint64(47))
        for _ in range(num_probes):
            bitmap[h % np.uint64(bits)] = True
            h += delta
        return cls(np.packbits(bitmap, bitorder="little").tobytes(),
                   num_probes)

    def may_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        h = fnv1a_64(key)
        delta = ((h >> 17) | (h << 47)) & _MASK64
        for _ in range(self._probes):
            pos = h % self._bits
            if not self._bitmap[pos >> 3] & (1 << (pos & 7)):
                return False
            h = (h + delta) & _MASK64
        return True

    def encode(self) -> bytes:
        """Serialize as ``probes(1B) + bitmap``."""
        return bytes([self._probes]) + self._bitmap

    @classmethod
    def decode(cls, data: bytes) -> "BloomFilter":
        if len(data) < 2:
            raise CorruptionError("bloom filter block too short")
        return cls(data[1:], data[0])
