"""Tests for compaction picking and the merge/dedup generator."""

from repro.lsm.compaction import (
    Compaction,
    CompactionPicker,
    compact_entries,
    _mutually_disjoint,
)
from repro.lsm.ikey import InternalKey, TYPE_DELETION, TYPE_VALUE
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData, VersionEdit, VersionSet

KiB = 1024


def ik(k: bytes, seq: int = 1, type_: int = TYPE_VALUE) -> InternalKey:
    return InternalKey(k, seq, type_)


def key(k: bytes, seq: int = 1, type_: int = TYPE_VALUE):
    return ik(k, seq, type_).sort_key


def fmd(number, lo, hi, size=4 * KiB, run=0):
    return FileMetaData(number, size, ik(lo), ik(hi), entries=10, run=run)


def _setup(options, placements):
    vs = VersionSet(options.max_levels,
                    tiered=options.style == "two-tier")
    edit = VersionEdit()
    for level, meta in placements:
        edit.add_file(level, meta)
    vs.log_and_apply(edit)
    return CompactionPicker(options, vs), vs


class TestLeveledPicking:
    def _options(self):
        return Options(sstable_size=4 * KiB, base_level_bytes=8 * KiB,
                       l0_compaction_trigger=4)

    def test_balanced_tree_picks_nothing(self):
        picker, _ = _setup(self._options(), [
            (0, fmd(1, b"a", b"b")),
            (1, fmd(2, b"a", b"z", size=4 * KiB)),
        ])
        assert picker.pick() is None

    def test_l0_trigger(self):
        files = [(0, fmd(i, b"a", b"z")) for i in range(1, 5)]
        picker, _ = _setup(self._options(), files)
        c = picker.pick()
        assert c is not None and c.level == 0
        assert len(c.inputs) == 4  # all overlapping L0 files

    def test_l0_pulls_l1_overlaps(self):
        placements = [(0, fmd(i, b"a", b"m")) for i in range(1, 5)]
        placements.append((1, fmd(10, b"c", b"d")))
        placements.append((1, fmd(11, b"x", b"z")))  # outside range
        picker, _ = _setup(self._options(), placements)
        c = picker.pick()
        assert [f.number for f in c.overlaps] == [10]

    def test_l0_transitive_expansion(self):
        placements = [
            (0, fmd(1, b"a", b"f")),
            (0, fmd(2, b"e", b"k")),   # overlaps 1
            (0, fmd(3, b"j", b"p")),   # overlaps 2, not 1
            (0, fmd(4, b"x", b"z")),   # disjoint from all
        ]
        picker, _ = _setup(self._options(), placements)
        c = picker.pick()
        assert {f.number for f in c.inputs} == {1, 2, 3}

    def test_size_pressure_picks_deeper_level(self):
        placements = [(1, fmd(i, b"%c0" % (97 + i), b"%c9" % (97 + i),
                              size=8 * KiB)) for i in range(1, 4)]
        picker, _ = _setup(self._options(), placements)
        c = picker.pick()
        assert c is not None and c.level == 1

    def test_pointer_round_robin(self):
        options = self._options()
        placements = [(1, fmd(i, b"%c0" % (96 + i), b"%c9" % (96 + i),
                              size=12 * KiB)) for i in range(1, 4)]
        picker, vs = _setup(options, placements)
        vs.compact_pointer[1] = b"a9"
        c = picker.pick()
        assert c.inputs[0].number == 2  # first file past the pointer

    def test_pointer_wraps(self):
        options = self._options()
        placements = [(1, fmd(1, b"a0", b"a9", size=32 * KiB))]
        picker, vs = _setup(options, placements)
        vs.compact_pointer[1] = b"zz"
        c = picker.pick()
        assert c.inputs[0].number == 1

    def test_invalid_set_first_policy(self):
        options = Options(sstable_size=4 * KiB, base_level_bytes=8 * KiB,
                          victim_policy="invalid-set-first")
        placements = [(1, fmd(i, b"%c0" % (96 + i), b"%c9" % (96 + i),
                              size=12 * KiB)) for i in range(1, 4)]
        picker, _ = _setup(options, placements)
        counts = {"000001.sst": 0, "000002.sst": 2, "000003.sst": 1}
        c = picker.pick(lambda name: counts[name])
        assert c.inputs[0].number == 2

    def test_last_level_never_compacts(self):
        options = Options(sstable_size=4 * KiB, base_level_bytes=4 * KiB,
                          max_levels=2)
        placements = [(1, fmd(1, b"a", b"m", size=400 * KiB)),
                      (1, fmd(2, b"n", b"z", size=400 * KiB))]
        picker, _ = _setup(options, placements)
        assert picker.pick() is None


class TestTrivialMove:
    def test_single_input_no_overlap(self):
        c = Compaction(1, [fmd(1, b"a", b"b")], [])
        assert c.is_trivial_move()

    def test_with_overlaps_not_trivial(self):
        c = Compaction(1, [fmd(1, b"a", b"b")], [fmd(2, b"a", b"c")])
        assert not c.is_trivial_move()

    def test_self_merge_not_trivial(self):
        c = Compaction(1, [fmd(1, b"a", b"b")], [], output_level=1)
        assert not c.is_trivial_move()


class TestTwoTierPicking:
    def _options(self, trigger=3):
        return Options(max_levels=2, style="two-tier",
                       l0_compaction_trigger=2, tier_merge_trigger=trigger,
                       sstable_size=4 * KiB)

    def test_below_triggers_nothing(self):
        picker, _ = _setup(self._options(), [(0, fmd(1, b"a", b"z"))])
        assert picker.pick() is None

    def test_l0_merge_all_runs(self):
        placements = [(0, fmd(i, b"a", b"z", run=i)) for i in range(1, 3)]
        picker, _ = _setup(self._options(), placements)
        c = picker.pick()
        assert c.level == 0 and c.output_level == 1
        assert len(c.inputs) == 2 and not c.overlaps

    def test_disjoint_l0_promotes_one(self):
        placements = [(0, fmd(1, b"a", b"b", run=1)),
                      (0, fmd(2, b"c", b"d", run=2))]
        picker, _ = _setup(self._options(), placements)
        c = picker.pick()
        assert c.is_trivial_move()
        assert c.inputs[0].number == 1  # oldest first

    def test_l1_run_merge(self):
        placements = [(1, fmd(i, b"a", b"z", run=i)) for i in range(1, 4)]
        picker, _ = _setup(self._options(trigger=3), placements)
        c = picker.pick()
        assert c.level == 1 and c.output_level == 1
        assert len(c.inputs) == 3

    def test_one_run_many_tables_does_not_retrigger(self):
        # all tables share a run: the whole-level merge must NOT fire
        placements = [(1, fmd(i, b"%c" % (97 + i), b"%c" % (97 + i), run=7))
                      for i in range(1, 6)]
        picker, _ = _setup(self._options(trigger=3), placements)
        assert picker.pick() is None


class TestMutuallyDisjoint:
    def test_disjoint(self):
        assert _mutually_disjoint([fmd(1, b"a", b"b"), fmd(2, b"c", b"d")])

    def test_overlapping(self):
        assert not _mutually_disjoint([fmd(1, b"a", b"m"), fmd(2, b"k", b"z")])

    def test_touching_not_disjoint(self):
        assert not _mutually_disjoint([fmd(1, b"a", b"c"), fmd(2, b"c", b"d")])


class TestCompactEntries:
    def test_newest_version_survives(self):
        stream = [(key(b"k", 9), b"new"), (key(b"k", 5), b"old")]
        out = list(compact_entries(iter(stream), lambda _k: False))
        assert out == [(key(b"k", 9), b"new")]

    def test_tombstone_kept_when_deeper_data_possible(self):
        stream = [(key(b"k", 9, TYPE_DELETION), b"")]
        out = list(compact_entries(iter(stream), lambda _k: False))
        assert len(out) == 1

    def test_tombstone_dropped_at_base_level(self):
        stream = [(key(b"k", 9, TYPE_DELETION), b""), (key(b"k", 5), b"old")]
        out = list(compact_entries(iter(stream), lambda _k: True))
        assert out == []

    def test_distinct_keys_all_survive(self):
        stream = [(key(b"a", 3), b"1"), (key(b"b", 2), b"2"), (key(b"c", 1), b"3")]
        out = list(compact_entries(iter(stream), lambda _k: True))
        assert len(out) == 3
