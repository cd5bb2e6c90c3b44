"""Tests for SSTable building and reading."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptionError
from repro.lsm.cache import LRUCache
from repro.lsm.ikey import TYPE_DELETION, TYPE_VALUE, lookup_key, make_key
from repro.lsm.options import Options
from repro.lsm.sstable import FOOTER_SIZE, SSTableBuilder, SSTableReader
from repro.fs.ext4sim import Ext4Storage
from repro.smr.drive import ConventionalDrive

KiB = 1024


def make_storage():
    drive = ConventionalDrive(8 * 1024 * KiB)
    return Ext4Storage(drive, wal_size=16 * KiB, meta_size=16 * KiB,
                       block_size=512)


def build_table(pairs, options=None):
    options = options or Options(block_size=512, block_restart_interval=4)
    b = SSTableBuilder(options)
    for key, value in pairs:
        b.add(key, value)
    return b.finish()


def pairs_for(n, seq=10):
    return [(make_key(b"key%05d" % i, seq, TYPE_VALUE), b"value-%d" % i)
            for i in range(n)]


class TestBuilder:
    def test_empty_table_rejected(self):
        b = SSTableBuilder(Options())
        with pytest.raises(CorruptionError):
            b.finish()

    def test_out_of_order_rejected(self):
        b = SSTableBuilder(Options())
        b.add(make_key(b"b", 1, TYPE_VALUE), b"v")
        with pytest.raises(CorruptionError):
            b.add(make_key(b"a", 1, TYPE_VALUE), b"v")

    def test_properties(self):
        data, props = build_table(pairs_for(100))
        assert props.num_entries == 100
        assert props.smallest.user_key == b"key00000"
        assert props.largest.user_key == b"key00099"
        assert props.file_size == len(data)
        assert props.file_size > FOOTER_SIZE

    def test_drain_streaming_equals_whole_file(self):
        options = Options(block_size=512, block_restart_interval=4)
        whole, props_a = build_table(pairs_for(200), options)

        b = SSTableBuilder(options)
        chunks = []
        for key, value in pairs_for(200):
            b.add(key, value)
            if b.pending_bytes >= 1024:
                chunks.append(b.drain())
        tail, props_b = b.finish()
        chunks.append(tail)
        assert b"".join(chunks) == whole
        assert props_b.file_size == props_a.file_size


class TestReader:
    def _open(self, pairs, cache=None, readahead=1):
        storage = make_storage()
        data, props = build_table(pairs)
        storage.write_file("t.sst", data)
        reader = SSTableReader(storage, "t.sst", props.file_size, cache,
                               readahead_blocks=readahead)
        return reader, storage

    def test_get_existing(self):
        reader, _ = self._open(pairs_for(300))
        found, value = reader.get(b"key00123", 100)
        assert (found, value) == (True, b"value-123")

    def test_get_missing(self):
        reader, _ = self._open(pairs_for(300))
        assert reader.get(b"nope", 100) == (False, None)

    def test_get_respects_snapshot(self):
        pairs = [(make_key(b"k", 20, TYPE_VALUE), b"new"),
                 (make_key(b"k", 10, TYPE_VALUE), b"old")]
        reader, _ = self._open(pairs)
        assert reader.get(b"k", 15) == (True, b"old")
        assert reader.get(b"k", 25) == (True, b"new")
        assert reader.get(b"k", 5) == (False, None)

    def test_get_tombstone(self):
        pairs = [(make_key(b"k", 20, TYPE_DELETION), b""),
                 (make_key(b"k", 10, TYPE_VALUE), b"old")]
        reader, _ = self._open(pairs)
        assert reader.get(b"k", 30) == (True, None)

    def test_iteration_full(self):
        pairs = pairs_for(250)
        reader, _ = self._open(pairs)
        assert list(reader) == pairs

    def test_iterate_from(self):
        pairs = pairs_for(100)
        reader, _ = self._open(pairs)
        got = [k[0] for k, _v in reader.iterate_from(lookup_key(b"key00050", 999))]
        assert got == [b"key%05d" % i for i in range(50, 100)]

    def test_readahead_results_identical(self):
        pairs = pairs_for(300)
        r1, _ = self._open(pairs, readahead=1)
        r8, _ = self._open(pairs, readahead=8)
        assert list(r1) == list(r8) == pairs

    def test_readahead_fewer_device_reads(self):
        pairs = pairs_for(400)
        r1, s1 = self._open(pairs, readahead=1)
        ops_before = s1.drive.stats.read_ops
        list(r1)
        single = s1.drive.stats.read_ops - ops_before

        r8, s8 = self._open(pairs, readahead=8)
        ops_before = s8.drive.stats.read_ops
        list(r8)
        chunked = s8.drive.stats.read_ops - ops_before
        assert chunked < single

    def test_prefetch_serves_from_memory(self):
        pairs = pairs_for(300)
        reader, storage = self._open(pairs)
        reader.prefetch()
        reads_after_prefetch = storage.drive.stats.read_ops
        list(reader)
        reader.get(b"key00100", 100)
        assert storage.drive.stats.read_ops == reads_after_prefetch
        reader.release()
        reader.get(b"key00100", 100)
        assert storage.drive.stats.read_ops > reads_after_prefetch

    def test_block_cache_hit(self):
        cache = LRUCache(1024 * KiB)
        pairs = pairs_for(300)
        reader, storage = self._open(pairs, cache=cache)
        reader.get(b"key00000", 100)
        reads = storage.drive.stats.read_ops
        reader.get(b"key00001", 100)  # same block
        assert storage.drive.stats.read_ops == reads
        assert cache.hits >= 1

    def test_bad_magic_rejected(self):
        storage = make_storage()
        data, props = build_table(pairs_for(10))
        corrupted = data[:-8] + b"\x00" * 8
        storage.write_file("bad.sst", corrupted)
        with pytest.raises(CorruptionError):
            SSTableReader(storage, "bad.sst", len(corrupted))

    def test_bloom_disabled_still_works(self):
        options = Options(block_size=512, bloom_bits_per_key=0)
        storage = make_storage()
        data, props = build_table(pairs_for(50), options)
        storage.write_file("nb.sst", data)
        reader = SSTableReader(storage, "nb.sst", props.file_size)
        assert reader.get(b"key00010", 100) == (True, b"value-10")

    @settings(max_examples=20, deadline=None)
    @given(st.sets(st.integers(0, 9999), min_size=1, max_size=150))
    def test_every_written_key_readable(self, indices):
        pairs = [(make_key(b"k%04d" % i, 7, TYPE_VALUE), b"v%d" % i)
                 for i in sorted(indices)]
        reader, _ = self._open(pairs)
        for i in indices:
            assert reader.get(b"k%04d" % i, 100) == (True, b"v%d" % i)
        assert reader.get(b"zzzz", 100) == (False, None)
