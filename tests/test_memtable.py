"""Tests for the memtable."""

from hypothesis import given, strategies as st

from repro.lsm.ikey import TYPE_DELETION, TYPE_VALUE, lookup_key, make_key
from repro.lsm.memtable import Memtable


class TestMemtable:
    def test_add_get(self):
        m = Memtable()
        m.add(1, TYPE_VALUE, b"k", b"v")
        assert m.get(b"k", 10) == (True, b"v")
        assert m.get(b"missing", 10) == (False, None)

    def test_newest_version_wins(self):
        m = Memtable()
        m.add(1, TYPE_VALUE, b"k", b"v1")
        m.add(2, TYPE_VALUE, b"k", b"v2")
        assert m.get(b"k", 10) == (True, b"v2")

    def test_snapshot_isolation(self):
        m = Memtable()
        m.add(1, TYPE_VALUE, b"k", b"v1")
        m.add(5, TYPE_VALUE, b"k", b"v5")
        assert m.get(b"k", 4) == (True, b"v1")
        assert m.get(b"k", 5) == (True, b"v5")
        assert m.get(b"k", 0) == (False, None)

    def test_tombstone(self):
        m = Memtable()
        m.add(1, TYPE_VALUE, b"k", b"v")
        m.add(2, TYPE_DELETION, b"k", b"")
        assert m.get(b"k", 10) == (True, None)
        assert m.get(b"k", 1) == (True, b"v")

    def test_size_accounting(self):
        m = Memtable()
        assert m.approximate_size == 0
        m.add(1, TYPE_VALUE, b"key", b"value")
        assert m.approximate_size >= len(b"key") + len(b"value")

    def test_entries_in_internal_order(self):
        m = Memtable()
        m.add(3, TYPE_VALUE, b"b", b"x")
        m.add(1, TYPE_VALUE, b"a", b"y")
        m.add(2, TYPE_VALUE, b"b", b"z")
        entries = list(m.entries())
        assert [key for key, _v in entries] == [
            make_key(b"a", 1, TYPE_VALUE), make_key(b"b", 3, TYPE_VALUE),
            make_key(b"b", 2, TYPE_VALUE),
        ]

    def test_entries_from(self):
        m = Memtable()
        for i in range(10):
            m.add(i + 1, TYPE_VALUE, b"k%02d" % i, b"v")
        seek = lookup_key(b"k05", 100)
        got = [key[0] for key, _v in m.entries_from(seek)]
        assert got == [b"k%02d" % i for i in range(5, 10)]

    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=6),
                              st.binary(max_size=10)), max_size=80))
    def test_matches_dict_semantics(self, ops):
        m = Memtable()
        reference: dict[bytes, bytes] = {}
        for seq, (key, value) in enumerate(ops, start=1):
            m.add(seq, TYPE_VALUE, key, value)
            reference[key] = value
        for key, expected in reference.items():
            assert m.get(key, len(ops) + 1) == (True, expected)
