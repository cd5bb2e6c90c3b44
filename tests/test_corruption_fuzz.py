"""Corruption fuzzing: random byte flips must never corrupt silently.

The safety property: for any single-byte flip anywhere in a serialized
SSTable, every read either returns the original, correct data or raises
:class:`CorruptionError` -- a wrong answer is never returned silently.
(Flips in the bloom filter may only cause false positives/negatives in
``may_contain``; the read path double-checks keys, so point reads stay
correct-or-raising.)
"""

import random

import pytest
from hypothesis import given, settings, strategies as st
from repro.errors import (
    CorruptionError,
    KeyRangeUnavailable,
    MediaError,
    ReproError,
)
from repro.lsm.block import Block, BlockBuilder
from repro.lsm.ikey import TYPE_VALUE, encode_key, make_key
from repro.lsm.options import Options
from repro.lsm.sstable import SSTableBuilder, SSTableReader
from repro.fs.ext4sim import Ext4Storage
from repro.smr.drive import ConventionalDrive

KiB = 1024


def _table_bytes(n=120):
    options = Options(block_size=512, block_restart_interval=4)
    builder = SSTableBuilder(options)
    pairs = [(make_key(b"key%04d" % i, 5, TYPE_VALUE), b"val-%d" % i)
             for i in range(n)]
    for key, value in pairs:
        builder.add(key, value)
    data, props = builder.finish()
    return data, props, pairs


class TestBlockFuzz:
    @settings(max_examples=120)
    @given(st.integers(0, 10_000), st.integers(1, 255))
    def test_flip_detected_or_harmless(self, position, flip):
        builder = BlockBuilder(restart_interval=4)
        expected = []
        for i in range(40):
            key = make_key(b"k%03d" % i, 9, TYPE_VALUE)
            builder.add(encode_key(key), b"v%d" % i)
            expected.append((key, b"v%d" % i))
        data = bytearray(builder.finish())
        data[position % len(data)] ^= flip
        try:
            block = Block(bytes(data))
            got = list(block)
        except ReproError:
            return  # detected: fine
        # undetected implies the flip was masked or CRC collided --
        # with crc32 over the payload a silent wrong answer means the
        # flip hit the stored CRC field itself and still matched, which
        # cannot alter the payload
        assert got == expected


class TestSSTableFuzz:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 255))
    def test_point_reads_correct_or_raise(self, position, flip):
        data, props, pairs = _table_bytes()
        corrupted = bytearray(data)
        corrupted[position % len(data)] ^= flip

        drive = ConventionalDrive(4 * 1024 * KiB)
        storage = Ext4Storage(drive, wal_size=16 * KiB, meta_size=16 * KiB,
                              block_size=512)
        storage.write_file("t.sst", bytes(corrupted))
        try:
            reader = SSTableReader(storage, "t.sst", props.file_size)
        except ReproError:
            return  # open-time detection
        for (user_key, _neg_trailer), value in pairs[::13]:
            try:
                found, got = reader.get(user_key, 100)
            except ReproError:
                return  # read-time detection
            # a miss is acceptable only from a damaged bloom filter;
            # a HIT must return the true value
            if found:
                assert got == value


@pytest.mark.scrub
@pytest.mark.single_shard
class TestDBSingleBitFlip:
    """Whole-store safety: one flipped bit anywhere in a live table ->
    every point read returns the correct value or raises a typed error
    (`CorruptionError`, `MediaError`, `KeyRangeUnavailable`) -- never a
    silently wrong answer.  Each trial builds a fresh store so the
    quarantine persisted by the previous trial cannot leak in."""

    N = 500
    TRIALS = 8

    def _build(self):
        import repro
        from repro.workloads.generators import KeyValueGenerator

        from tests.conftest import TEST_PROFILE

        store = repro.open("sealdb", profile=TEST_PROFILE)
        kv = KeyValueGenerator(TEST_PROFILE.key_size,
                               TEST_PROFILE.value_size)
        for i in range(self.N):
            store.put(kv.key(i), kv.value(i))
        store.flush()
        return store, kv

    def test_flip_anywhere_in_live_tables(self):
        rng = random.Random(0xC0FFEE)
        raised = 0
        for _trial in range(self.TRIALS):
            store, kv = self._build()
            extents = [ext
                       for level in store.db.versions.current.files
                       for meta in level
                       for ext in store.storage.file_extents(meta.name)]
            ext = rng.choice(extents)
            offset = ext.start + rng.randrange(ext.length)
            store.drive._data[offset] ^= 1 << rng.randrange(8)
            try:
                store.reopen()  # cold caches: reads must hit the media
            except ReproError:
                raised += 1  # open-time detection is a valid outcome
                continue
            for i in range(0, self.N, 11):
                try:
                    got = store.get(kv.key(i))
                except (CorruptionError, MediaError, KeyRangeUnavailable):
                    raised += 1
                    continue
                assert got == kv.value(i), (
                    f"silent corruption at media offset {offset}")
        # across all trials at least some reads must have tripped a
        # typed error, otherwise the flips never landed anywhere live
        assert raised > 0

    def test_overrunning_entry_length_quarantines_unverified(self):
        """``paranoid_checks=False`` skips the CRC, so a rotted entry
        length reaches the block decoder: it must surface as the typed
        degraded-range error (was: a bare ValueError out of ``get``)."""
        store, kv = self._build()
        store.options.paranoid_checks = False
        meta = store.db.versions.current.files[1][0]
        victim = meta.smallest.user_key
        # first entry of the table's first block: [shared][non_shared]...
        header = store.storage.file_extents(meta.name)[0].start
        assert store.drive._data[header:header + 2] == bytes(
            [0, len(victim) + 8])
        store.drive._data[header + 1:header + 3] = b"\xff\x7f"
        store.reopen()
        with pytest.raises(KeyRangeUnavailable):
            store.get(victim)
        assert store.db.quarantined_tables == 1
