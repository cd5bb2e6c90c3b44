"""Unit tests for internal keys."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CorruptionError
from repro.lsm.ikey import (
    InternalKey,
    MAX_SEQUENCE,
    TYPE_DELETION,
    TYPE_VALUE,
    decode_internal_key,
    encode_key,
    lookup_key,
    make_key,
)


class TestInternalKey:
    def test_encode_decode_roundtrip(self):
        ikey = InternalKey(b"user-key", 12345, TYPE_VALUE)
        assert decode_internal_key(ikey.encode()) == ikey

    def test_trailer_is_eight_bytes(self):
        ikey = InternalKey(b"k", 7, TYPE_DELETION)
        assert len(ikey.encode()) == 1 + 8

    def test_empty_user_key(self):
        ikey = InternalKey(b"", 1, TYPE_VALUE)
        assert decode_internal_key(ikey.encode()) == ikey

    def test_sequence_bounds(self):
        InternalKey(b"k", MAX_SEQUENCE, TYPE_VALUE)
        with pytest.raises(ValueError):
            InternalKey(b"k", MAX_SEQUENCE + 1, TYPE_VALUE)
        with pytest.raises(ValueError):
            InternalKey(b"k", -1, TYPE_VALUE)

    def test_bad_type_rejected(self):
        with pytest.raises(ValueError):
            InternalKey(b"k", 1, 7)

    def test_too_short_decode(self):
        with pytest.raises(CorruptionError):
            decode_internal_key(b"short")


class TestOrdering:
    def test_user_key_ascending(self):
        assert InternalKey(b"a", 1, TYPE_VALUE) < InternalKey(b"b", 99, TYPE_VALUE)

    def test_same_key_sequence_descending(self):
        newer = InternalKey(b"k", 10, TYPE_VALUE)
        older = InternalKey(b"k", 5, TYPE_VALUE)
        assert newer < older          # newest sorts first

    def test_same_key_same_seq_type_descending(self):
        value = InternalKey(b"k", 5, TYPE_VALUE)
        tomb = InternalKey(b"k", 5, TYPE_DELETION)
        assert value < tomb           # TYPE_VALUE (1) before TYPE_DELETION (0)

    def test_lookup_key_sorts_before_visible_entries(self):
        seek = lookup_key(b"k", 10)
        visible = make_key(b"k", 10, TYPE_VALUE)
        older = make_key(b"k", 3, TYPE_DELETION)
        invisible = make_key(b"k", 11, TYPE_VALUE)
        assert invisible < seek       # newer than snapshot: skipped by seek
        assert seek <= visible <= older

    @given(st.binary(max_size=16), st.integers(0, MAX_SEQUENCE),
           st.sampled_from([TYPE_VALUE, TYPE_DELETION]))
    def test_key_tuple_is_the_edge_form(self, user_key, seq, type_):
        key = make_key(user_key, seq, type_)
        ikey = InternalKey(user_key, seq, type_)
        assert ikey.sort_key == key
        assert InternalKey.from_key(key) == ikey
        assert encode_key(key) == ikey.encode()
        assert decode_internal_key(encode_key(key)) == ikey

    @given(st.binary(max_size=12), st.binary(max_size=12),
           st.integers(0, 1000), st.integers(0, 1000))
    def test_order_consistent_with_sort_key(self, ka, kb, sa, sb):
        a = InternalKey(ka, sa, TYPE_VALUE)
        b = InternalKey(kb, sb, TYPE_VALUE)
        assert (a < b) == (a.sort_key < b.sort_key)

    @given(st.binary(max_size=16), st.integers(0, 2**40),
           st.sampled_from([TYPE_VALUE, TYPE_DELETION]))
    def test_roundtrip_property(self, key, seq, type_):
        ikey = InternalKey(key, seq, type_)
        assert decode_internal_key(ikey.encode()) == ikey
