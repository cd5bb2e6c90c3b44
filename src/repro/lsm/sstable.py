"""SSTable builder and reader.

File layout (all offsets within the file)::

    [data block 0] ... [data block N-1]
    [filter block]                      bloom filter over user keys
    [index block]                       last key of each data block -> handle
    [footer: 40 bytes]                  fixed64 x 4 handles + fixed64 magic

Data and index blocks use :mod:`repro.lsm.block`.  Readers fetch blocks
through the :class:`~repro.fs.storage.Storage` abstraction, so every
block read is a (timed) device I/O unless it hits the block cache or
the whole file has been prefetched -- the mechanism behind the paper's
compaction-efficiency argument.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from repro.errors import CorruptionError, MediaError
from repro.lsm.block import Block, BlockBuilder, BlockHandle
from repro.lsm.bloom import BloomFilter
from repro.lsm.cache import LRUCache
from repro.lsm.ikey import (
    InternalKey,
    Key,
    TYPE_DELETION,
    encode_key,
    lookup_key,
)
from repro.lsm.options import Options
from repro.util.varint import decode_fixed64, encode_fixed64

FOOTER_SIZE = 40
_MAGIC = 0x5EA1DB0F00DBF00D


@dataclass
class TableProperties:
    """Facts about a finished table, recorded in the manifest."""

    num_entries: int
    smallest: InternalKey
    largest: InternalKey
    file_size: int


class SSTableBuilder:
    """Serializes sorted entries into the table format."""

    def __init__(self, options: Options) -> None:
        self._options = options
        self._buf = bytearray()
        self._drained = 0
        self._block = BlockBuilder(options.block_restart_interval)
        self._index_entries: list[tuple[bytes, BlockHandle]] = []
        self._user_keys: list[bytes] = []
        self._smallest: Key | None = None
        self._last_key: Key | None = None

    @property
    def num_entries(self) -> int:
        return len(self._user_keys)

    def estimated_size(self) -> int:
        return len(self._buf) + self._block.size_estimate()

    @property
    def pending_bytes(self) -> int:
        """Completed bytes not yet handed out by :meth:`drain`."""
        return len(self._buf) - self._drained

    def drain(self) -> bytes:
        """Take the completed-but-undrained bytes (streaming output).

        A compaction that streams its output file calls ``drain`` as
        blocks complete and appends the pieces to a file stream; the
        device then sees writes interleaved with the merge's reads, as
        on a real drive.  Callers that never drain get the whole file
        from :meth:`finish`.
        """
        out = bytes(self._buf[self._drained:])
        self._drained = len(self._buf)
        return out

    def add(self, key: Key, value: bytes) -> int:
        """Append one entry; returns the new :meth:`estimated_size`."""
        last = self._last_key
        if last is None:
            self._smallest = key
        elif not last < key:
            raise CorruptionError(
                f"keys added out of order: {last} then {key}")
        self._last_key = key
        self._user_keys.append(key[0])
        encoded = encode_key(key)
        block_size = self._block.add(encoded, value)
        if block_size >= self._options.block_size:
            self._flush_block(encoded)
            return self.estimated_size()
        return len(self._buf) + block_size

    def _flush_block(self, last_encoded_key: bytes) -> None:
        data = self._block.finish()
        handle = BlockHandle(len(self._buf), len(data))
        self._buf += data
        self._index_entries.append((last_encoded_key, handle))
        self._block = BlockBuilder(self._options.block_restart_interval)

    def finish(self) -> tuple[bytes, TableProperties]:
        """Complete the table; returns ``(remaining_bytes, properties)``.

        Without prior :meth:`drain` calls the returned bytes are the
        whole file; with streaming, they are the tail (last block,
        filter, index, footer) and ``properties.file_size`` is still the
        total size.
        """
        if not self._user_keys:
            raise CorruptionError("cannot finish an empty SSTable")
        if not self._block.empty:
            assert self._last_key is not None
            self._flush_block(encode_key(self._last_key))

        if self._options.bloom_bits_per_key > 0:
            bloom = BloomFilter.build(self._user_keys,
                                      self._options.bloom_bits_per_key)
            filter_data = bloom.encode()
        else:
            filter_data = b""
        filter_handle = BlockHandle(len(self._buf), len(filter_data))
        self._buf += filter_data

        index = BlockBuilder(restart_interval=1)
        for key, handle in self._index_entries:
            index.add(key, handle.encode())
        index_data = index.finish()
        index_handle = BlockHandle(len(self._buf), len(index_data))
        self._buf += index_data

        self._buf += encode_fixed64(index_handle.offset)
        self._buf += encode_fixed64(index_handle.size)
        self._buf += encode_fixed64(filter_handle.offset)
        self._buf += encode_fixed64(filter_handle.size)
        self._buf += encode_fixed64(_MAGIC)

        assert self._smallest is not None and self._last_key is not None
        props = TableProperties(len(self._user_keys),
                                InternalKey.from_key(self._smallest),
                                InternalKey.from_key(self._last_key),
                                len(self._buf))
        return self.drain(), props


class SSTableReader:
    """Random and sequential access to one table file.

    The index and filter are loaded eagerly (two reads) and kept in
    memory, as a table cache would.  Data blocks are read on demand
    through the shared block cache; :meth:`prefetch` instead pulls the
    whole file with a single sequential read -- SEALDB's set-oriented
    compaction path.

    Media-fault hardening: every device fetch (footer, index, filter,
    data blocks) is wrapped in a bounded retry loop.  A failed checksum
    or a :class:`~repro.errors.MediaError` triggers up to
    ``read_retries`` re-reads with exponential simulated backoff, so
    *transient* glitches (a one-shot ``storage.read`` failpoint) clear
    while *persistent* faults (the drive's media-error map) exhaust the
    retries and propagate -- at which point the engine quarantines the
    table.  ``stats`` (a :class:`~repro.lsm.db.DBStats`) counts retries
    and media errors when provided.
    """

    def __init__(self, storage, name: str, file_size: int,
                 block_cache: LRUCache | None = None,
                 readahead_blocks: int = 1,
                 paranoid_checks: bool = True,
                 read_retries: int = 0,
                 read_retry_backoff_s: float = 1e-3,
                 stats=None) -> None:
        self._storage = storage
        self.name = name
        self.file_size = file_size
        self._cache = block_cache
        self._buffer: bytes | None = None
        self._readahead_blocks = max(1, readahead_blocks)
        self._paranoid = paranoid_checks
        self._retries = max(0, read_retries)
        self._backoff = read_retry_backoff_s
        self._stats = stats

        def load_footer() -> bytes:
            footer = storage.read_file(name, file_size - FOOTER_SIZE,
                                       FOOTER_SIZE)
            if decode_fixed64(footer, 32) != _MAGIC:
                raise CorruptionError(f"bad magic in table {name!r}")
            return footer

        footer = self._retrying(load_footer)
        index_handle = BlockHandle(decode_fixed64(footer, 0), decode_fixed64(footer, 8))
        filter_handle = BlockHandle(decode_fixed64(footer, 16), decode_fixed64(footer, 24))

        index_block = self._retrying(lambda: Block(
            storage.read_file(name, index_handle.offset, index_handle.size)))
        #: last key of each data block, and where the block lives
        self._index_keys: list[Key] = []
        self._index: list[BlockHandle] = []
        for key, value in index_block:
            handle, _pos = BlockHandle.decode(value)
            self._index_keys.append(key)
            self._index.append(handle)

        self._bloom: BloomFilter | None = None
        if filter_handle.size > 0:
            self._bloom = BloomFilter.decode(self._retrying(
                lambda: storage.read_file(name, filter_handle.offset,
                                          filter_handle.size)))

    def _retrying(self, fetch):
        """Run ``fetch`` with bounded re-reads and simulated backoff."""
        attempt = 0
        while True:
            try:
                return fetch()
            except (CorruptionError, MediaError) as exc:
                if self._stats is not None and isinstance(exc, MediaError):
                    self._stats.media_errors += 1
                if attempt >= self._retries:
                    raise
                attempt += 1
                if self._stats is not None:
                    self._stats.read_retries += 1
                backoff = self._backoff * (2 ** (attempt - 1))
                if backoff > 0:
                    self._storage.drive.clock.advance(backoff)

    def prefetch(self) -> None:
        """Read the entire file sequentially; later block reads are free."""
        if self._buffer is None:
            self._buffer = self._retrying(
                lambda: self._storage.read_file(self.name, 0, self.file_size))

    def release(self) -> None:
        """Drop the prefetched buffer."""
        self._buffer = None

    def _read_block(self, handle: BlockHandle) -> Block:
        if self._buffer is not None:
            try:
                return Block(self._buffer[handle.offset : handle.offset + handle.size],
                             verify=self._paranoid)
            except CorruptionError:
                # A rotted block inside the prefetched image: drop the
                # buffer and fall through to the per-block device path,
                # whose retries can clear a transient fault.
                self.release()
        if self._cache is not None:
            key = (self.name, handle.offset)
            block = self._cache.get(key)
            if block is not None:
                return block
        block = self._fetch_block(handle)
        if self._cache is not None:
            self._cache.put((self.name, handle.offset), block)
        return block

    def _fetch_block(self, handle: BlockHandle, verify: bool | None = None) -> Block:
        """Fetch one block from the device (no cache) with retries."""
        check = self._paranoid if verify is None else verify
        return self._retrying(lambda: Block(
            self._storage.read_file(self.name, handle.offset, handle.size),
            verify=check))

    def verify_blocks(self) -> int:
        """Checksum every data block straight off the device.

        The scrubber's table walk: bypasses the block cache and any
        prefetched buffer (a cached copy can mask on-media rot), always
        verifies CRCs regardless of ``paranoid_checks``, and raises the
        first persistent :class:`~repro.errors.CorruptionError` /
        :class:`~repro.errors.MediaError` after the usual retries.
        Returns the number of blocks checked.
        """
        checked = 0
        for handle in self._index:
            self._fetch_block(handle, verify=True)
            checked += 1
        return checked

    def _find_block_index(self, target: Key) -> int:
        """First block whose largest key is >= ``target`` (len == miss)."""
        return bisect_left(self._index_keys, target)

    def get(self, user_key: bytes, snapshot_sequence: int) -> tuple[bool, bytes | None]:
        """Point lookup; same contract as :meth:`Memtable.get`."""
        if self._bloom is not None and not self._bloom.may_contain(user_key):
            return False, None
        target = lookup_key(user_key, snapshot_sequence)
        index = self._find_block_index(target)
        if index == len(self._index):
            return False, None
        block = self._read_block(self._index[index])
        for (found_key, neg_trailer), value in block.seek(target):
            if found_key != user_key:
                break
            if -neg_trailer & 0xFF == TYPE_DELETION:
                return True, None
            return True, value
        return False, None

    def __iter__(self) -> Iterator[tuple[Key, bytes]]:
        return self._iterate_blocks(0, None)

    def iterate(self, readahead_blocks: int | None = None
                ) -> Iterator[tuple[Key, bytes]]:
        """Full iteration with an explicit readahead override."""
        return self._iterate_blocks(0, None, readahead_blocks)

    def iterate_from(self, target: Key,
                     readahead_blocks: int | None = None
                     ) -> Iterator[tuple[Key, bytes]]:
        """Entries with key >= ``target``."""
        return self._iterate_blocks(self._find_block_index(target), target,
                                    readahead_blocks)

    def _iterate_blocks(self, start_index: int, target: Key | None,
                        readahead_blocks: int | None = None
                        ) -> Iterator[tuple[Key, bytes]]:
        """Stream blocks with readahead: consecutive blocks are fetched
        in chunks of ``readahead_blocks`` with one device read each,
        modelling OS readahead during sequential iteration."""
        readahead = (self._readahead_blocks if readahead_blocks is None
                     else max(1, readahead_blocks))
        index = start_index
        while index < len(self._index):
            chunk_end = min(index + readahead, len(self._index))
            blocks = self._read_block_range(index, chunk_end)
            for offset, block in enumerate(blocks):
                if target is not None and index + offset == start_index:
                    yield from block.seek(target)
                else:
                    yield from block
            index = chunk_end

    def _read_block_range(self, start_index: int, end_index: int) -> list[Block]:
        handles = self._index[start_index:end_index]
        if len(handles) == 1:
            return [self._read_block(handles[0])]
        first = handles[0].offset
        last = handles[-1].offset + handles[-1].size
        if self._buffer is not None:
            data = self._buffer[first:last]
            try:
                return [Block(data[h.offset - first : h.offset - first + h.size],
                              verify=self._paranoid)
                        for h in handles]
            except CorruptionError:
                self.release()  # rotted prefetch image: re-read the range

        def fetch() -> list[Block]:
            data = self._storage.read_file(self.name, first, last - first)
            return [Block(data[h.offset - first : h.offset - first + h.size],
                          verify=self._paranoid)
                    for h in handles]

        return self._retrying(fetch)
