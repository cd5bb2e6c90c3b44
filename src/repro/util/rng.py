"""Deterministic random number helpers.

Everything in the simulation that needs randomness goes through a seeded
:class:`numpy.random.Generator` or one of the stateless hash functions
below, so experiment runs are exactly reproducible.
"""

from __future__ import annotations

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def make_rng(seed: int | None) -> np.random.Generator:
    """Create a seeded numpy Generator (PCG64)."""
    return np.random.default_rng(seed)


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data`` (used by bloom filters and YCSB)."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def fnv1a_64_many(keys: list[bytes]) -> np.ndarray:
    """:func:`fnv1a_64` of every key at once, as a ``uint64`` array.

    Byte ``j`` of all keys longer than ``j`` is folded in with one
    numpy step (``uint64`` arithmetic wraps exactly like the scalar
    ``& _MASK64``), so the cost is the longest key in numpy calls, not
    the total bytes in Python iterations.
    """
    n = len(keys)
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return out
    lengths = np.fromiter(map(len, keys), dtype=np.int64, count=n)
    flat = np.frombuffer(b"".join(keys), dtype=np.uint8)
    # longest first: byte j then touches a prefix of the rows only
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    sorted_lengths = lengths[order]
    longer_than = np.searchsorted(-sorted_lengths,
                                  -np.arange(int(sorted_lengths[0])))
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for j, m in enumerate(longer_than.tolist()):
        h[:m] = (h[:m] ^ flat[starts[:m] + j]) * prime
    out[order] = h
    return out


def hash64(value: int) -> int:
    """Mix an integer through FNV-1a (YCSB's ``fnvhash64`` key scrambler)."""
    h = _FNV_OFFSET
    for _ in range(8):
        octet = value & 0xFF
        value >>= 8
        h ^= octet
        h = (h * _FNV_PRIME) & _MASK64
    return h
