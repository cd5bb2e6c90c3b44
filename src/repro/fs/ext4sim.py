"""Ext4-like block-group allocator and the storage policy built on it.

The paper's motivation experiment (Fig. 2) runs LevelDB on ext4 and
observes that "SSTables of one compaction are separately stored on
disks, resulting in disperse reads and writes during compactions".  The
behaviour comes from two ext4 traits this simulation keeps:

* space is carved into **block groups**; a new file is allocated
  first-fit starting from a *goal* group (files in the same directory
  share a goal, so an empty filesystem fills roughly front-to-back);
* deleted files leave **holes** that later allocations reuse, so once
  the LSM starts churning SSTables, the outputs of one compaction land
  wherever holes happen to be -- scattered over the whole used region.

Allocation granularity is the filesystem block (4 KiB by default).  A
file that cannot be satisfied with one contiguous run is split into
multiple extents, like ext4 extent trees.
"""

from __future__ import annotations

from repro import faults
from repro.errors import AllocationError, StorageError
from repro.smr.drive import Drive
from repro.smr.extent import Extent, ExtentMap
from repro.smr.stats import CATEGORY_TABLE
from repro.fs.storage import Storage


class Ext4Allocator:
    """Block-group allocator over ``[start, capacity)`` of a drive.

    Free space is tracked as an :class:`ExtentMap` (block-aligned).  The
    goal pointer advances past each allocation so consecutive creations
    in an empty region are laid out sequentially; after deletions, the
    first-fit scan from the goal wraps and reuses holes anywhere.
    """

    def __init__(self, start: int, capacity: int, *, block_size: int = 4096,
                 group_blocks: int = 8192, clock=None) -> None:
        self.clock = clock  # optional time source for emitted events
        if start % block_size:
            start += block_size - start % block_size
        self.start = start
        self.capacity = capacity
        self.block_size = block_size
        self.group_size = block_size * group_blocks
        self.free = ExtentMap()
        end = capacity - capacity % block_size
        if end <= start:
            raise StorageError("no allocatable space")
        self.free.add(start, end)
        #: observability bus; None while no subscriber (zero-cost hooks)
        self._obs = None

    def _round_up(self, nbytes: int) -> int:
        blocks = (nbytes + self.block_size - 1) // self.block_size
        return blocks * self.block_size

    def allocate(self, nbytes: int, *, contiguous: bool = False) -> list[Extent]:
        """Allocate ``nbytes`` (block-rounded); returns the extents used.

        With ``contiguous=True`` the allocation fails unless one run can
        hold the whole request (used by the "LevelDB + sets" ablation to
        keep compaction outputs physically adjacent).
        """
        faults.trip(faults.FREESPACE_ALLOC)
        need = self._round_up(nbytes)
        run = self._find_run(need)
        if run is not None:
            self.free.remove(run.start, run.start + need)
            if self._obs is not None:
                self._emit_alloc(need, 1)
            return [Extent(run.start, run.start + need)]
        if contiguous:
            raise AllocationError(f"no contiguous run of {need} bytes")
        # Fragmented allocation: first-fit pieces front to back.
        extents: list[Extent] = []
        remaining = need
        for ext in self.free:
            take = min(ext.length, remaining)
            extents.append(Extent(ext.start, ext.start + take))
            remaining -= take
            if remaining == 0:
                break
        if remaining:
            raise AllocationError(f"out of space: short {remaining} of {need} bytes")
        for ext in extents:
            self.free.remove(ext.start, ext.end)
        if self._obs is not None:
            self._emit_alloc(need, len(extents))
        return extents

    def _emit_alloc(self, nbytes: int, num_extents: int) -> None:
        from repro.obs.events import ExtentAllocate
        ts = self.clock.now if self.clock is not None else 0.0
        self._obs.emit(ExtentAllocate(ts=ts, nbytes=nbytes,
                                      extents=num_extents))

    def _find_run(self, need: int) -> Extent | None:
        """First free run of at least ``need`` bytes, front to back.

        Scanning from the fixed goal (all SSTables share one directory,
        hence one goal group) is what makes ext4 reuse freed holes
        anywhere in the used region -- the source of the Fig. 2 scatter.
        """
        for ext in self.free:
            if ext.length >= need:
                return ext
        return None

    def allocate_at(self, offset: int, nbytes: int) -> Extent | None:
        """Claim ``nbytes`` exactly at ``offset`` if that space is free.

        Ext4's extent growth: successive writeback chunks of one file
        extend its last extent in place whenever the following blocks
        are still free, keeping files contiguous until a hole runs out.
        """
        need = self._round_up(nbytes)
        if not self.free.contains_range(offset, offset + need):
            return None
        self.free.remove(offset, offset + need)
        return Extent(offset, offset + need)

    def release(self, extents: list[Extent]) -> None:
        for ext in extents:
            self.free.add(ext.start, ext.end)

    def free_bytes(self) -> int:
        return self.free.total_bytes


class Ext4Storage(Storage):
    """Table files placed through :class:`Ext4Allocator`.

    ``write_files`` (a compaction's output group) simply writes each
    file in turn -- the stock-LevelDB behaviour.  Passing
    ``contiguous_groups=True`` turns on the "LevelDB + sets" ablation:
    each group is allocated as one contiguous run and written with a
    single sequential pass.
    """

    def __init__(self, drive: Drive, *, wal_size: int, meta_size: int,
                 block_size: int = 4096, group_blocks: int = 8192,
                 contiguous_groups: bool = False, region_gap: int = 0) -> None:
        super().__init__(drive, wal_size=wal_size, meta_size=meta_size,
                         region_gap=region_gap)
        self.allocator = Ext4Allocator(self.data_start, drive.capacity,
                                       block_size=block_size,
                                       group_blocks=group_blocks,
                                       clock=drive.clock)
        self.contiguous_groups = contiguous_groups

    def write_file(self, name: str, data: bytes,
                   category: str = CATEGORY_TABLE) -> None:
        self._check_new(name)
        extents = self.allocator.allocate(len(data))
        self.drive.charge_metadata_op()  # inode + bitmap + journal
        try:
            self._write_extents(extents, data, category)
        except BaseException:
            # The journal never committed the file: its blocks go back
            # to the bitmap, as ext4 replay would leave them.
            self.allocator.release(extents)
            raise
        self._commit(name, extents, len(data))

    # Streaming note: ext4 uses *delayed allocation* -- the page cache
    # buffers a file under construction and the allocator runs once at
    # writeback, placing the whole file contiguously when a hole fits.
    # The inherited BufferedStream (one write_file at close) models
    # exactly that; device-level interleave with compaction reads is at
    # file granularity, as with real writeback bursts.

    def _write_files(self, files, category: str = CATEGORY_TABLE) -> None:
        if not self.contiguous_groups or not files:
            super()._write_files(files, category)
            return
        for name, _data in files:
            self._check_new(name)
        total = sum(len(data) for _name, data in files)
        try:
            run = self.allocator.allocate(total, contiguous=True)[0]
        except AllocationError:
            super()._write_files(files, category)
            return
        try:
            members = self._place_group(self._journaled(files), run.start,
                                        category)
        except BaseException:
            # Uncommitted journal transaction: the whole run returns to
            # the bitmap, including files already placed in it.
            self.allocator.release([run])
            raise
        # Any rounding slack at the tail of the run goes back to the pool.
        end = members[-1][1].end
        if end < run.end:
            self.allocator.release([Extent(end, run.end)])

    def _journaled(self, files):
        """``files``, charging each member's metadata update just before
        it is written."""
        for item in files:
            self.drive.charge_metadata_op()
            yield item

    def _write_extents(self, extents: list[Extent], data: bytes,
                       category: str) -> None:
        cursor = 0
        for ext in extents:
            chunk = data[cursor : cursor + ext.length]
            self.drive.write(ext.start, chunk, category=category)
            cursor += ext.length
            if cursor >= len(data):
                break

    def delete_file(self, name: str) -> None:
        extents = self._pop(name)
        self.drive.charge_metadata_op()
        for ext in extents:
            self.drive.trim(ext.start, ext.length)
        self.allocator.release(extents)
