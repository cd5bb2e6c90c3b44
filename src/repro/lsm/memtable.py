"""Memtable: the in-memory write buffer backed by a skiplist.

Entries are keyed by the :data:`~repro.lsm.ikey.Key` tuple
``(user_key, -trailer)`` so iteration yields LevelDB's internal
ordering directly, in the ``(Key, value)`` shape flushes and scans
consume.  ``approximate_size`` tracks the payload bytes plus a
small per-entry overhead, mirroring LevelDB's arena accounting, and is
what the DB compares against ``Options.write_buffer_size``.
"""

from __future__ import annotations

from typing import Iterator

from repro.lsm.ikey import Key, TYPE_VALUE, lookup_key, make_key
from repro.lsm.skiplist import SkipList

#: bookkeeping bytes charged per entry (trailer + node overhead stand-in)
_ENTRY_OVERHEAD = 16


class Memtable:
    """Sorted in-memory buffer of the most recent writes."""

    def __init__(self, seed: int = 0) -> None:
        self._table = SkipList(seed=seed)
        self._size = 0

    def __len__(self) -> int:
        return len(self._table)

    @property
    def approximate_size(self) -> int:
        return self._size

    def add(self, sequence: int, type_: int, user_key: bytes, value: bytes) -> None:
        """Insert one entry (``value`` is ignored for deletions)."""
        self._table.insert(make_key(user_key, sequence, type_),
                           value if type_ == TYPE_VALUE else b"")
        self._size += len(user_key) + len(value) + _ENTRY_OVERHEAD

    def get(self, user_key: bytes, snapshot_sequence: int) -> tuple[bool, bytes | None]:
        """Look up ``user_key`` at ``snapshot_sequence``.

        Returns ``(found, value)``: ``(True, bytes)`` for a live value,
        ``(True, None)`` for a tombstone, ``(False, None)`` when this
        memtable holds nothing visible for the key.
        """
        seek = lookup_key(user_key, snapshot_sequence)
        for (ukey, neg_trailer), value in self._table.seek(seek):
            if ukey != user_key:
                break
            # seek() already skipped entries newer than the snapshot
            if -neg_trailer & 0xFF == TYPE_VALUE:
                return True, value
            return True, None
        return False, None

    def entries(self) -> Iterator[tuple[Key, bytes]]:
        """All entries in internal-key order (for flush and scans)."""
        return iter(self._table)

    def entries_from(self, seek: Key) -> Iterator[tuple[Key, bytes]]:
        """Entries starting at the first key >= ``seek``."""
        return self._table.seek(seek)
