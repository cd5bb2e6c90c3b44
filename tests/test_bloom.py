"""Tests for the bloom filter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptionError
from repro.lsm.bloom import BloomFilter, _probes_for
from repro.util.rng import fnv1a_64, fnv1a_64_many

_MASK64 = 0xFFFFFFFFFFFFFFFF


def reference_build(keys: list[bytes], bits_per_key: int) -> bytes:
    """The scalar bloom build (the implementation up to PR 14), kept as
    the reference the vectorised ``BloomFilter.build`` must equal byte
    for byte: same FNV-1a, same probe sequence, same bits."""
    num_probes = _probes_for(bits_per_key)
    nbytes = (max(64, len(keys) * bits_per_key) + 7) // 8
    bits = nbytes * 8
    bitmap = bytearray(nbytes)
    for key in keys:
        h = fnv1a_64(key)
        delta = ((h >> 17) | (h << 47)) & _MASK64
        for _ in range(num_probes):
            pos = h % bits
            bitmap[pos >> 3] |= 1 << (pos & 7)
            h = (h + delta) & _MASK64
    return bytes([num_probes]) + bytes(bitmap)


#: mixed lengths on purpose: the vectorised hash walks byte positions
_keys = st.lists(
    st.one_of(st.just(b""), st.binary(max_size=4),
              st.binary(min_size=16, max_size=16), st.binary(max_size=300)),
    max_size=2000)


class TestProbeCount:
    def test_ten_bits_gives_six_probes(self):
        assert _probes_for(10) == 6

    def test_clamped_low(self):
        assert _probes_for(1) == 1

    def test_clamped_high(self):
        assert _probes_for(100) == 30


class TestBloomFilter:
    def test_no_false_negatives(self):
        keys = [b"key%d" % i for i in range(1000)]
        f = BloomFilter.build(keys, 10)
        assert all(f.may_contain(k) for k in keys)

    def test_false_positive_rate_reasonable(self):
        keys = [b"key%d" % i for i in range(2000)]
        f = BloomFilter.build(keys, 10)
        false_positives = sum(
            f.may_contain(b"other%d" % i) for i in range(2000)
        )
        assert false_positives / 2000 < 0.05  # ~1% expected at 10 bits/key

    def test_empty_key_set(self):
        f = BloomFilter.build([], 10)
        # minimum-size bitmap exists; lookups just return False mostly
        assert isinstance(f.may_contain(b"anything"), bool)

    def test_encode_decode_roundtrip(self):
        keys = [b"a", b"b", b"c"]
        f = BloomFilter.build(keys, 10)
        g = BloomFilter.decode(f.encode())
        assert all(g.may_contain(k) for k in keys)
        assert g.encode() == f.encode()

    def test_decode_too_short_raises(self):
        with pytest.raises(CorruptionError):
            BloomFilter.decode(b"\x06")

    def test_empty_bitmap_rejected(self):
        with pytest.raises(CorruptionError):
            BloomFilter(b"", 6)

    @settings(max_examples=60, deadline=None)
    @given(_keys, st.integers(min_value=1, max_value=24), st.data())
    def test_build_equals_scalar_reference(self, keys, bits, data):
        if keys:  # duplicates, adjacent and far apart
            keys = keys + [keys[0], data.draw(st.sampled_from(keys))]
        f = BloomFilter.build(keys, bits)
        assert f.encode() == reference_build(keys, bits)
        assert all(f.may_contain(k) for k in keys)

    @given(_keys)
    def test_batch_hash_equals_scalar_hash(self, keys):
        assert fnv1a_64_many(keys).tolist() == [fnv1a_64(k) for k in keys]

    @given(st.sets(st.binary(min_size=1, max_size=24), max_size=200),
           st.integers(min_value=4, max_value=16))
    def test_no_false_negatives_property(self, keys, bits):
        keys = list(keys)
        if not keys:
            return
        f = BloomFilter.build(keys, bits)
        assert all(f.may_contain(k) for k in keys)
