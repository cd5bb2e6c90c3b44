"""Merging iterators and the user-facing DB iterator.

:func:`merge_iterators` performs a k-way merge of sources that each
yield ``(Key, value)`` in key order -- the workhorse of both
compactions and scans.

:class:`DBIterator` layers MVCC visibility on a merged stream: entries
newer than the snapshot are skipped, only the newest visible version of
each user key is surfaced, and tombstones suppress the key entirely.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.lsm.ikey import Key, TYPE_DELETION, lookup_key


def merge_iterators(
    sources: list[Iterator[tuple[Key, bytes]]],
) -> Iterator[tuple[Key, bytes]]:
    """K-way merge by key order.

    Keys are globally unique (unique sequence numbers), so no
    tie-breaking between sources is ever required; the source index in
    the heap entries only prevents Python from comparing values.
    """
    heap = []
    for idx, src in enumerate(sources):
        advance = src.__next__
        for entry in src:
            heap.append((entry[0], idx, entry, advance))
            break
    heapq.heapify(heap)
    heapreplace = heapq.heapreplace
    while heap:
        _key, idx, entry, advance = heap[0]
        yield entry
        try:
            entry = advance()
        except StopIteration:
            heapq.heappop(heap)
        else:
            heapreplace(heap, (entry[0], idx, entry, advance))


class DBIterator:
    """Iterates live ``(user_key, value)`` pairs visible at a snapshot."""

    def __init__(self, merged: Iterator[tuple[Key, bytes]],
                 snapshot_sequence: int) -> None:
        self._merged = merged
        self._snapshot = snapshot_sequence

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        # a key's second field is -trailer: anything below the lookup
        # key's is newer than the snapshot
        newest_visible = lookup_key(b"", self._snapshot)[1]
        current_user_key: bytes | None = None
        for (user_key, neg_trailer), value in self._merged:
            if neg_trailer < newest_visible:
                continue
            if user_key == current_user_key:
                continue  # an older version of a key already emitted/suppressed
            current_user_key = user_key
            if -neg_trailer & 0xFF == TYPE_DELETION:
                continue
            yield user_key, value


def take_range(pairs: Iterable[tuple[bytes, bytes]], start: bytes | None,
               end: bytes | None, limit: int | None = None
               ) -> Iterator[tuple[bytes, bytes]]:
    """Clip a sorted ``(key, value)`` stream to ``[start, end)`` and ``limit``."""
    if limit is not None and limit <= 0:
        return
    count = 0
    for key, value in pairs:
        if start is not None and key < start:
            continue
        if end is not None and key >= end:
            break
        yield key, value
        count += 1
        if limit is not None and count >= limit:
            break
