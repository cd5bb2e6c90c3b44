"""Tests for merging iterators and MVCC visibility."""

from hypothesis import given, strategies as st

from repro.lsm.ikey import Key, TYPE_DELETION, TYPE_VALUE, make_key
from repro.lsm.iterator import DBIterator, merge_iterators, take_range


def ik(k: bytes, seq: int, type_: int = TYPE_VALUE) -> Key:
    return make_key(k, seq, type_)


class TestMergeIterators:
    def test_empty_sources(self):
        assert list(merge_iterators([])) == []
        assert list(merge_iterators([iter([]), iter([])])) == []

    def test_two_way_merge(self):
        a = [(ik(b"a", 1), b"1"), (ik(b"c", 3), b"3")]
        b = [(ik(b"b", 2), b"2"), (ik(b"d", 4), b"4")]
        out = [k[0] for k, _v in merge_iterators([iter(a), iter(b)])]
        assert out == [b"a", b"b", b"c", b"d"]

    def test_same_user_key_ordered_by_sequence_desc(self):
        a = [(ik(b"k", 5), b"old")]
        b = [(ik(b"k", 9), b"new")]
        out = list(merge_iterators([iter(a), iter(b)]))
        assert [v for _k, v in out] == [b"new", b"old"]

    @given(st.lists(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 1000)),
                             max_size=20), max_size=5))
    def test_merge_is_sorted_property(self, raw_sources):
        seqs = set()
        sources = []
        for src in raw_sources:
            entries = []
            for key_i, seq in src:
                if seq in seqs:
                    continue  # sequence numbers are globally unique
                seqs.add(seq)
                entries.append((ik(b"k%02d" % key_i, seq), b"v"))
            entries.sort()
            sources.append(iter(entries))
        merged = [k for k, _v in merge_iterators(sources)]
        assert merged == sorted(merged)


class TestDBIterator:
    def test_skips_newer_than_snapshot(self):
        merged = iter([(ik(b"k", 9), b"new"), (ik(b"k", 3), b"old")])
        out = list(DBIterator(merged, snapshot_sequence=5))
        assert out == [(b"k", b"old")]

    def test_only_newest_visible_version(self):
        merged = iter([(ik(b"k", 9), b"new"), (ik(b"k", 3), b"old")])
        out = list(DBIterator(merged, snapshot_sequence=100))
        assert out == [(b"k", b"new")]

    def test_tombstone_suppresses_key(self):
        merged = iter([
            (ik(b"a", 5), b"va"),
            (ik(b"b", 9, TYPE_DELETION), b""),
            (ik(b"b", 3), b"vb"),
            (ik(b"c", 2), b"vc"),
        ])
        out = list(DBIterator(merged, snapshot_sequence=100))
        assert out == [(b"a", b"va"), (b"c", b"vc")]

    def test_tombstone_older_than_snapshot_reveals_value(self):
        merged = iter([(ik(b"b", 9, TYPE_DELETION), b""), (ik(b"b", 3), b"vb")])
        out = list(DBIterator(merged, snapshot_sequence=5))
        assert out == [(b"b", b"vb")]


class TestTakeRange:
    def _pairs(self):
        return [(b"a", b"1"), (b"c", b"2"), (b"e", b"3"), (b"g", b"4")]

    def test_unbounded(self):
        assert list(take_range(self._pairs(), None, None)) == self._pairs()

    def test_start_inclusive(self):
        assert [k for k, _ in take_range(self._pairs(), b"c", None)] == \
            [b"c", b"e", b"g"]

    def test_end_exclusive(self):
        assert [k for k, _ in take_range(self._pairs(), None, b"e")] == [b"a", b"c"]

    def test_limit(self):
        assert len(list(take_range(self._pairs(), None, None, limit=2))) == 2

    def test_empty_window(self):
        assert list(take_range(self._pairs(), b"x", b"z")) == []
