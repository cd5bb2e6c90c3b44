"""Compaction picking and the merge/dedup logic.

Picking follows LevelDB: L0 is scored by file count against the
trigger, deeper levels by total bytes against the level's budget; the
level with the highest score >= 1 compacts.  Victim choice at sorted
levels is round-robin via a per-level key pointer, or -- the paper's
set-aware policy -- "gives priority to compact the set with more
invalid SSTables" so partially dead on-disk sets fade (and their space
is reclaimed) sooner.

The victim file plus its overlapping files at the next level make up
the paper's *compaction unit* (victim + set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.lsm.ikey import Key, TYPE_DELETION
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData, Version, VersionSet


@dataclass
class Compaction:
    """One unit of compaction work: ``level`` -> ``output_level``.

    ``output_level`` defaults to ``level + 1``; SMRDB's last-level
    self-merges use ``output_level == level``.
    """

    level: int
    inputs: list[FileMetaData]
    overlaps: list[FileMetaData] = field(default_factory=list)
    output_level: int = -1

    def __post_init__(self) -> None:
        if self.output_level < 0:
            self.output_level = self.level + 1

    @property
    def all_files(self) -> list[FileMetaData]:
        return self.inputs + self.overlaps

    @property
    def input_bytes(self) -> int:
        return sum(f.size for f in self.all_files)

    def is_trivial_move(self) -> bool:
        """A single input with nothing to merge can simply change levels."""
        return (len(self.inputs) == 1 and not self.overlaps
                and self.output_level != self.level)

    def user_range(self) -> tuple[bytes, bytes]:
        smallest = min(f.smallest.user_key for f in self.inputs)
        largest = max(f.largest.user_key for f in self.inputs)
        return smallest, largest


class CompactionPicker:
    """Chooses what to compact next, if anything."""

    def __init__(self, options: Options, versions: VersionSet) -> None:
        self.options = options
        self.versions = versions

    def compaction_score(self, version: Version, level: int) -> float:
        """Pressure at ``level``; >= 1.0 means compaction is due."""
        if level == 0:
            return len(version.files[0]) / self.options.l0_compaction_trigger
        return version.level_bytes(level) / self.options.level_bytes_limit(level)

    def pick(self, invalid_count_fn: Callable[[str], int] | None = None
             ) -> Compaction | None:
        """The most pressing compaction, or ``None`` when balanced.

        ``invalid_count_fn`` maps a file name to the number of invalid
        members in its on-disk set (used by the ``invalid-set-first``
        victim policy; pass ``None`` otherwise).
        """
        version = self.versions.current
        if self.options.style == "two-tier":
            return self._pick_two_tier(version)
        best_level, best_score = -1, 0.0
        # the last level never compacts downward; ties go to the
        # shallower level (L0 pressure stalls writes first)
        for level in range(self.options.max_levels - 1):
            score = self.compaction_score(version, level)
            if score > best_score:
                best_level, best_score = level, score
        if best_level < 0 or best_score < 1.0:
            return None
        if best_level == 0:
            return self._pick_l0(version)
        return self._pick_level(version, best_level, invalid_count_fn)

    def _pick_two_tier(self, version: Version) -> Compaction | None:
        """SMRDB's schedule: dump L0 runs into L1 when the trigger
        fires; merge all of L1 when it accumulates too many runs."""
        l0, l1 = version.files[0], version.files[1]
        runs = {f.run for f in l1}
        if len(runs) >= self.options.tier_merge_trigger and len(l1) >= 2:
            # The rare, enormous whole-level merge (Fig. 10).
            return Compaction(1, list(l1), [], output_level=1)
        if len(l0) >= self.options.l0_compaction_trigger:
            ordered = sorted(l0, key=lambda f: f.number)
            if _mutually_disjoint(ordered):
                # Sequential load: promote runs one by one without I/O.
                return Compaction(0, [ordered[0]], [], output_level=1)
            # All L0 runs merge into one new (overlapping-allowed) L1 run.
            return Compaction(0, list(l0), [], output_level=1)
        return None

    def _pick_l0(self, version: Version) -> Compaction:
        """All mutually overlapping L0 files plus their L1 overlap."""
        l0 = list(version.files[0])
        seed = min(l0, key=lambda f: f.number)
        begin, end = seed.smallest.user_key, seed.largest.user_key
        chosen = [seed]
        changed = True
        while changed:
            changed = False
            for f in l0:
                if f in chosen:
                    continue
                if f.overlaps_user_range(begin, end):
                    chosen.append(f)
                    begin = min(begin, f.smallest.user_key)
                    end = max(end, f.largest.user_key)
                    changed = True
        overlaps = version.overlapping_files(1, begin, end)
        chosen.sort(key=lambda f: f.number)
        return Compaction(0, chosen, overlaps)

    def _pick_level(self, version: Version, level: int,
                    invalid_count_fn: Callable[[str], int] | None) -> Compaction:
        files = version.files[level]
        victim = None
        if (self.options.victim_policy == "invalid-set-first"
                and invalid_count_fn is not None):
            scored = [(invalid_count_fn(f.name), f) for f in files]
            best_invalid = max(score for score, _f in scored)
            if best_invalid > 0:
                victim = max(scored, key=lambda pair: pair[0])[1]
        if victim is None:
            pointer = self.versions.compact_pointer[level]
            if pointer is not None:
                for f in files:
                    if f.largest.user_key > pointer:
                        victim = f
                        break
            if victim is None:
                victim = files[0]
        overlaps = version.overlapping_files(
            level + 1, victim.smallest.user_key, victim.largest.user_key
        )
        return Compaction(level, [victim], overlaps)


def _mutually_disjoint(files: list[FileMetaData]) -> bool:
    ordered = sorted(files, key=lambda f: f.smallest.user_key)
    return all(a.largest.user_key < b.smallest.user_key
               for a, b in zip(ordered, ordered[1:]))


def compact_entries(
    merged: Iterator[tuple[Key, bytes]],
    is_base_level_for: Callable[[bytes], bool],
) -> Iterator[tuple[Key, bytes]]:
    """Drop shadowed versions and dead tombstones from a merged stream.

    Only the newest version of each user key survives.  A surviving
    tombstone is emitted unless no deeper level can contain the key, in
    which case it has nothing left to shadow and is dropped.

    Assumes no snapshot pins old versions during compaction (the
    simulated DB takes snapshots only between operations).
    """
    last_user_key: bytes | None = None
    for entry in merged:
        user_key, neg_trailer = entry[0]
        if user_key == last_user_key:
            continue  # older, shadowed version
        last_user_key = user_key
        if (-neg_trailer & 0xFF == TYPE_DELETION
                and is_base_level_for(user_key)):
            continue
        yield entry
