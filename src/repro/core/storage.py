"""SEALDB's direct-on-disk placement: dynamic bands + sets.

The paper removes the filesystem: "we add an indirection from file name
to disk location (i.e., physical block address, PBA) for KV stores
accessing SMR drives."  This storage policy is that indirection layer.

* ``write_files`` receives the output group of one compaction, asks the
  dynamic-band manager for **one** extent (append or Eq.-1 insert), and
  streams the members into it back to back -- the group becomes a *set*
  stored contiguously inside a dynamic band.
* ``delete_file`` marks a set member invalid; the extent is reclaimed
  (trim + free-list insert + coalesce) only when the whole set fades,
  implementing the paper's deferred victim reclamation.
* ``group_invalid_count`` feeds the ``invalid-set-first`` victim policy.
"""

from __future__ import annotations

from repro.core.dynamic_band import DynamicBandManager
from repro.core.sets import SetRegistry
from repro.fs.storage import Storage
from repro.obs.events import SetFade, SetRegister
from repro.smr.raw_hmsmr import RawHMSMRDrive
from repro.smr.stats import CATEGORY_TABLE


class DynamicBandStorage(Storage):
    """Name -> PBA indirection over a dynamic-band managed raw HM-SMR drive."""

    def __init__(self, drive: RawHMSMRDrive, *, wal_size: int, meta_size: int,
                 class_unit: int, region_gap: int | None = None) -> None:
        if region_gap is None:
            region_gap = drive.guard_size
        super().__init__(drive, wal_size=wal_size, meta_size=meta_size,
                         region_gap=region_gap)
        self.manager = DynamicBandManager(drive, self.data_start, class_unit)
        self.sets = SetRegistry()

    # -- placement -----------------------------------------------------------

    def write_file(self, name: str, data: bytes,
                   category: str = CATEGORY_TABLE) -> None:
        self.write_files([(name, data)], category)

    def _write_files(self, files, category: str = CATEGORY_TABLE) -> None:
        if not files:
            return
        for name, _data in files:
            self._check_new(name)
        total = sum(len(data) for _name, data in files)
        offset = self.manager.allocate(total)
        try:
            members = self._place_group(files, offset, category)
        except BaseException:
            # A crash mid-set leaves no set: undo the allocation so the
            # free-space accounting matches the (empty) registration.
            self.manager.free(offset, total)
            raise
        self.sets.register(members, created_at=self.drive.now)
        obs = self._obs
        if obs is not None:
            obs.emit(SetRegister(ts=self.drive.now, members=len(members),
                                 nbytes=total))

    def delete_file(self, name: str) -> None:
        self._pop(name)
        faded = self.sets.mark_invalid(name)
        if faded is not None:
            obs = self._obs
            if obs is not None:
                obs.emit(SetFade(ts=self.drive.now,
                                 nbytes=faded.extent.length))
            self.manager.free(faded.extent.start, faded.extent.length)

    def group_invalid_count(self, name: str) -> int:
        """Invalid members in the on-disk set holding ``name``."""
        return self.sets.invalid_count(name)

    # -- fragment garbage collection (the paper's future work) -----------

    def collect_fragments(self, max_fragment: int,
                          max_moves: int = 32) -> tuple[int, int]:
        """Relocate sets that pin small free regions in place.

        Section IV-C: "these small fragments are quite difficult to be
        leveraged, thus SEALDB needs alternative garbage collection
        policies as a supplement.  We leave it for our future work."

        The policy implemented here: for each fragment (a free region no
        larger than ``max_fragment``), relocate the live members of the
        set immediately downstream of it; freeing that set's extent
        coalesces with the fragment (and drops any dead members the set
        was still holding).  Relocation is transparent to the engine --
        the name -> PBA indirection absorbs the move.

        Returns ``(sets_moved, bytes_rewritten)``.  The rewrite traffic
        is charged to the drive like any other table I/O, so GC shows up
        honestly in AWA.
        """
        moves = 0
        rewritten = 0
        for fragment in self.manager.fragments(max_fragment):
            if moves >= max_moves:
                break
            victim = self.sets.set_starting_at(fragment.end)
            if victim is None:
                continue
            live = [(name, self._read_file(name, 0, self.file_size(name)))
                    for name in victim.members if name not in victim.invalid]
            old_extent = victim.extent
            self.sets.evict(victim)
            for name, _data in live:
                del self._files[name]
            if live:
                total = sum(len(data) for _n, data in live)
                offset = self.manager.allocate(total)
                members = self._place_group(live, offset, CATEGORY_TABLE)
                self.sets.register(members, created_at=self.drive.now)
                rewritten += total
            self.manager.free(old_extent.start, old_extent.length)
            moves += 1
        return moves, rewritten
