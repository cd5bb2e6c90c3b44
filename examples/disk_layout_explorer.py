#!/usr/bin/env python3
"""Watch dynamic bands evolve on the shingled surface.

Loads a SEALDB instance in stages and, after each stage, draws the disk
as a one-line map -- allocated sets (#), free regions (.), and the
not-yet-banded residual space ( ) -- plus the free-space-list contents.
Finishes with a fragment-GC pass so the reclamation is visible.

Run:  python examples/disk_layout_explorer.py
"""

from repro import KVStoreBase, SMALL_PROFILE, build_store
from repro.harness.plotting import disk_layout_map
from repro.workloads.generators import KeyValueGenerator, scramble32

KiB = 1024
STAGES = 5
ENTRIES_PER_STAGE = 4000


def draw(db: KVStoreBase, label: str) -> None:
    manager = db.band_manager
    extents = [(0, db.storage.data_start, "H")]            # wal/meta regions
    extents += [(e.start, e.end, "#") for e in manager.allocated]
    extents += [(r.start, r.end, ".") for r in manager.free_list.regions()]
    # zoom the map to the banded area; the rest of the disk is untouched
    window = int(manager.tail * 1.05) or db.drive.capacity
    print(disk_layout_map(extents, window, width=92, title=label))
    frag = sum(f.length for f in db.fragments())
    print(f"  bands={len(manager.bands())}  live={manager.allocated_bytes() // KiB} KiB"
          f"  free={manager.free_bytes() // KiB} KiB"
          f"  fragments={frag // KiB} KiB  tail={manager.tail // KiB} KiB")
    print()


def main() -> None:
    db = build_store("sealdb", SMALL_PROFILE)
    kv = KeyValueGenerator(SMALL_PROFILE.key_size, SMALL_PROFILE.value_size)
    print("legend: H = wal/meta regions, # = live sets, . = free, "
          "(blank) = unwritten\n")

    for stage in range(STAGES):
        base = stage * ENTRIES_PER_STAGE
        for i in range(base, base + ENTRIES_PER_STAGE):
            index = scramble32(i) % (STAGES * ENTRIES_PER_STAGE)
            db.put(kv.key(index), kv.value(index))
        db.flush()
        draw(db, f"after stage {stage + 1} "
                 f"({(stage + 1) * ENTRIES_PER_STAGE:,} puts)")

    moves, rewritten = db.storage.collect_fragments(max_moves=64)
    draw(db, f"after fragment GC ({moves} sets relocated, "
             f"{rewritten // KiB} KiB rewritten)")

    print(f"WA={db.wa():.2f}x  AWA={db.awa():.2f}x  MWA={db.mwa():.2f}x  "
          f"(AWA stays 1.0 -- GC traffic is honest table I/O, it raises "
          f"device bytes, shown here separately)")


if __name__ == "__main__":
    main()
