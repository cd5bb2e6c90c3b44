"""Tests for the SSTable block format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptionError
from repro.lsm.block import Block, BlockBuilder, BlockHandle
from repro.lsm.ikey import Key, TYPE_VALUE, encode_key, lookup_key, make_key


def ikey(user_key: bytes, seq: int = 1) -> Key:
    return make_key(user_key, seq, TYPE_VALUE)


def build(pairs, restart_interval=16) -> Block:
    b = BlockBuilder(restart_interval)
    for k, v in pairs:
        b.add(encode_key(k), v)
    return Block(b.finish())


class TestBlockHandle:
    def test_roundtrip(self):
        h = BlockHandle(12345, 678)
        decoded, pos = BlockHandle.decode(h.encode())
        assert decoded == h
        assert pos == len(h.encode())


class TestBlockBuilder:
    def test_empty_block_iterates_nothing(self):
        b = BlockBuilder()
        block = Block(b.finish())
        assert list(block) == []

    def test_size_estimate_grows(self):
        b = BlockBuilder()
        initial = b.size_estimate()
        b.add(encode_key(ikey(b"aaa")), b"v" * 50)
        assert b.size_estimate() > initial

    def test_invalid_restart_interval(self):
        with pytest.raises(ValueError):
            BlockBuilder(0)


class TestBlockRoundtrip:
    def test_iterate_in_order(self):
        pairs = [(ikey(b"k%03d" % i, 100 + i), b"v%d" % i) for i in range(50)]
        block = build(pairs)
        assert list(block) == pairs

    def test_prefix_compression_shrinks(self):
        shared = [(ikey(b"commonprefix%04d" % i), b"v") for i in range(100)]
        block_shared = build(shared)
        distinct = [(ikey(bytes([65 + i % 26]) * 16 + b"%04d" % i), b"v")
                    for i in range(100)]
        block_distinct = build(distinct)
        assert block_shared.size < block_distinct.size

    def test_restart_interval_one(self):
        pairs = [(ikey(b"k%02d" % i), b"v") for i in range(10)]
        block = build(pairs, restart_interval=1)
        assert list(block) == pairs

    def test_seek_exact(self):
        pairs = [(ikey(b"k%03d" % i, 50), b"v%d" % i) for i in range(40)]
        block = build(pairs, restart_interval=4)
        hits = list(block.seek(lookup_key(b"k020", 1000)))
        assert hits[0][0][0] == b"k020"
        assert len(hits) == 20

    def test_seek_between_keys(self):
        pairs = [(ikey(b"k%03d" % (2 * i), 50), b"v") for i in range(20)]
        block = build(pairs, restart_interval=4)
        hits = list(block.seek(lookup_key(b"k003", 1000)))
        assert hits[0][0][0] == b"k004"

    def test_seek_past_end(self):
        pairs = [(ikey(b"k%03d" % i, 50), b"v") for i in range(10)]
        block = build(pairs)
        assert list(block.seek(lookup_key(b"z", 1000))) == []

    def test_seek_before_start(self):
        pairs = [(ikey(b"k%03d" % i, 50), b"v") for i in range(10)]
        block = build(pairs)
        hits = list(block.seek(lookup_key(b"a", 1000)))
        assert len(hits) == 10

    def test_seek_respects_sequence_ordering(self):
        # same user key, multiple versions: newest (higher seq) first
        pairs = [(ikey(b"k", 9), b"new"), (ikey(b"k", 5), b"old")]
        block = build(pairs)
        hits = list(block.seek(lookup_key(b"k", 7)))
        assert hits[0][1] == b"old"  # seq 9 invisible at snapshot 7


class TestBlockCorruption:
    def test_crc_mismatch_detected(self):
        b = BlockBuilder()
        b.add(encode_key(ikey(b"abc")), b"value")
        data = bytearray(b.finish())
        data[3] ^= 0xFF
        with pytest.raises(CorruptionError):
            Block(bytes(data))

    def test_too_small_block(self):
        with pytest.raises(CorruptionError):
            Block(b"tiny")


class TestHandCorruptedBlock:
    """With the CRC check off (``paranoid_checks=False``) the decoder is
    the last line of defence: a length that overruns the block must be
    a CorruptionError -- not a short slice, ValueError or IndexError."""

    PAIRS = [(ikey(b"k%02d" % i, 5), b"v" * 8) for i in range(6)]

    def _corrupt(self, patch: dict[int, int], restart_interval=2) -> Block:
        b = BlockBuilder(restart_interval)
        for k, v in self.PAIRS:
            b.add(encode_key(k), v)
        data = bytearray(b.finish())
        # entry 0: [0]=shared [1]=non_shared [2]=value_len, key, value
        assert data[:3] == bytes([0, 3 + 8, 8])
        for offset, byte in patch.items():
            data[offset] = byte
        return Block(bytes(data), verify=False)

    def _assert_corrupt(self, block: Block) -> None:
        with pytest.raises(CorruptionError):
            list(block)
        with pytest.raises(CorruptionError):
            list(block.seek(lookup_key(b"k00", 1000)))

    def test_unpatched_block_reads_back(self):
        assert list(self._corrupt({})) == self.PAIRS

    def test_value_len_overrun(self):
        # was: one silently truncated value swallowing the other entries
        self._assert_corrupt(self._corrupt({2: 0x7F}))

    def test_non_shared_overrun(self):
        # was: ValueError("bad type ...") out of the key decoder
        self._assert_corrupt(self._corrupt({1: 0x7F}))

    def test_multibyte_length_overrun(self):
        self._assert_corrupt(self._corrupt({1: 0xFF, 2: 0x7F}))

    def test_overrun_into_next_restart_interval(self):
        # fits the block but not its restart interval
        block = self._corrupt({2: 8 + 3 + 11 + 8 + 4})
        with pytest.raises(CorruptionError):
            list(block.seek(lookup_key(b"k00", 1000)))

    def test_shared_longer_than_previous_key(self):
        second = 3 + 11 + 8
        self._assert_corrupt(self._corrupt({second: 40}))

    def test_bad_type_tag(self):
        self._assert_corrupt(self._corrupt({3 + 3: 7}))

    def test_key_shorter_than_trailer(self):
        b = BlockBuilder()
        b.add(b"abcd", b"v")
        with pytest.raises(CorruptionError):
            list(Block(b.finish()))

    def test_restart_offset_overrun(self):
        b = BlockBuilder(restart_interval=2)
        for k, v in self.PAIRS:
            b.add(encode_key(k), v)
        data = bytearray(b.finish())
        restart_1 = len(data) - 8 - 4 * 2
        data[restart_1:restart_1 + 4] = (1 << 20).to_bytes(4, "little")
        with pytest.raises(CorruptionError):
            list(Block(bytes(data), verify=False).seek(lookup_key(b"k03", 9)))

    @settings(max_examples=200)
    @given(st.integers(0, 10_000), st.integers(1, 255))
    def test_any_flip_is_typed_or_well_formed(self, position, flip):
        b = BlockBuilder(restart_interval=2)
        for k, v in self.PAIRS:
            b.add(encode_key(k), v)
        data = bytearray(b.finish())
        data[position % (len(data) - 4)] ^= flip
        try:
            block = Block(bytes(data), verify=False)
            got = list(block) + list(block.seek(lookup_key(b"k03", 9)))
        except CorruptionError:
            return
        for (user_key, neg_trailer), value in got:
            assert isinstance(user_key, bytes) and isinstance(value, bytes)
            assert -neg_trailer & 0xFF in (0, 1)


@st.composite
def _sorted_pairs(draw):
    n = draw(st.integers(1, 60))
    user_keys = sorted({b"k%05d" % draw(st.integers(0, 99999)) for _ in range(n)})
    return [(ikey(k, 10), b"val-%d" % i) for i, k in enumerate(user_keys)]


class TestBlockProperties:
    @settings(max_examples=50)
    @given(_sorted_pairs(), st.integers(1, 8))
    def test_roundtrip_property(self, pairs, restart):
        block = build(pairs, restart_interval=restart)
        assert list(block) == pairs

    @settings(max_examples=50)
    @given(_sorted_pairs(), st.binary(min_size=1, max_size=8))
    def test_seek_matches_linear_scan(self, pairs, probe):
        block = build(pairs, restart_interval=4)
        target = lookup_key(probe, 1000)
        expected = [(k, v) for k, v in pairs if not k < target]
        assert list(block.seek(target)) == expected
