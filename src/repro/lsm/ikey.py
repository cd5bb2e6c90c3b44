"""Internal keys.

Like LevelDB, every entry the engine stores is keyed by an *internal
key*: the user key plus a monotonically increasing sequence number and a
value/deletion type tag.  Ordering is user key ascending, then sequence
number **descending** (newest first), then type descending, so a scan
positioned at ``(key, seq=snapshot)`` sees the newest visible version
first.

The serialized form appends an 8-byte little-endian trailer
``(seq << 8) | type`` to the user key, again following LevelDB.  Byte
order of the trailer is not meaningful, so nothing compares serialized
keys.  Inside :mod:`repro.lsm` an internal key travels as the tuple
``(user_key, -trailer)`` (:data:`Key`): its natural ordering *is* the
internal-key ordering and Python compares it in C.  Memtable, blocks,
table readers, the merge, compaction, scans and the table builder all
pass ``(Key, value)`` pairs; :class:`InternalKey` is the named,
validated form for the edges -- manifest file ranges and dumps.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import CorruptionError

TYPE_DELETION = 0
TYPE_VALUE = 1

#: the largest sequence number the trailer can carry
MAX_SEQUENCE = (1 << 56) - 1

#: ``(user_key, -((sequence << 8) | type))``
Key = tuple[bytes, int]

TRAILER = struct.Struct("<Q")


def make_key(user_key: bytes, sequence: int, type_: int) -> Key:
    return (user_key, -((sequence << 8) | type_))


def encode_key(key: Key) -> bytes:
    """Serialized ``user_key + trailer`` form of a key tuple."""
    return key[0] + TRAILER.pack(-key[1])


def lookup_key(user_key: bytes, snapshot_sequence: int) -> Key:
    """The key a ``get`` at ``snapshot_sequence`` seeks to.

    TYPE_VALUE is the largest type tag, so this key sorts before every
    entry for ``user_key`` with sequence <= snapshot.
    """
    return make_key(user_key, snapshot_sequence, TYPE_VALUE)


@dataclass(frozen=True)
class InternalKey:
    """A decoded internal key."""

    user_key: bytes
    sequence: int
    type: int

    def __post_init__(self) -> None:
        if not 0 <= self.sequence <= MAX_SEQUENCE:
            raise ValueError(f"sequence {self.sequence} out of range")
        if self.type not in (TYPE_DELETION, TYPE_VALUE):
            raise ValueError(f"bad type {self.type}")

    @classmethod
    def from_key(cls, key: Key) -> "InternalKey":
        trailer = -key[1]
        return cls(key[0], trailer >> 8, trailer & 0xFF)

    def encode(self) -> bytes:
        return encode_key(self.sort_key)

    @property
    def sort_key(self) -> Key:
        """The :data:`Key` tuple, whose natural ordering is the
        internal-key ordering."""
        return make_key(self.user_key, self.sequence, self.type)

    def __lt__(self, other: "InternalKey") -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other: "InternalKey") -> bool:
        return self.sort_key <= other.sort_key


def decode_internal_key(data: bytes) -> InternalKey:
    """Parse the serialized ``user_key + trailer`` form."""
    if len(data) < 8:
        raise CorruptionError(f"internal key too short: {len(data)} bytes")
    trailer = TRAILER.unpack_from(data, len(data) - 8)[0]
    return InternalKey(bytes(data[:-8]), trailer >> 8, trailer & 0xFF)
