#!/usr/bin/env python3
"""Build your own store: a store kind with a changed profile or engine.

Every store kind is a row of drive, placement policy and engine options
(``repro.registry.STORE_SPECS``).  ``build_store`` takes any profile and
any ``Options`` field on top of a kind, so a variant is one call.  This
example builds two custom SEALDB stacks:

1. a *conservative* SEALDB variant -- doubled guard regions (for a
   drive with wider shingle overlap) and the paper's aggressive
   invalid-set-first victim policy;
2. a *shallow* variant -- a 3-level tree on the same dynamic bands,
   trading write amplification against compaction size.

Both are compared against stock SEALDB on the same random load.

Run:  python examples/custom_configuration.py
"""

from repro import SMALL_PROFILE, KVStoreBase, build_store
from repro.smr.geometry import TrackGeometry
from repro.workloads import KeyValueGenerator, MicroBenchmark


def build_custom(name: str, *, guard_tracks: int = 2, levels: int = 7,
                 victim_policy: str = "pointer") -> KVStoreBase:
    profile = SMALL_PROFILE
    geometry = TrackGeometry.for_guard(profile.guard_size,
                                       shingle_overlap_tracks=2)
    guard = geometry.track_bytes * guard_tracks
    store = build_store("sealdb", profile.scaled(guard_size=guard),
                        max_levels=levels, victim_policy=victim_policy)
    store.name = name
    return store


def main() -> None:
    profile = SMALL_PROFILE
    kv = KeyValueGenerator(profile.key_size, profile.value_size)
    entries = profile.entries_for_bytes(2 * 1024 * 1024)

    configs = [
        build_custom("stock", guard_tracks=2),
        build_custom("wide-guard", guard_tracks=4,
                     victim_policy="invalid-set-first"),
        build_custom("shallow-3L", levels=3),
    ]

    print(f"{'config':>12} {'randW ops/s':>12} {'WA':>7} {'frag KiB':>9} "
          f"{'footprint KiB':>14}")
    print("-" * 60)
    for store in configs:
        bench = MicroBenchmark(kv, entries, seed=3)
        result = bench.fill_random(store)
        manager = store.band_manager
        fragments = sum(f.length for f in store.fragments())
        print(f"{store.name:>12} {result.ops_per_sec:>12,.0f} "
              f"{store.wa():>6.2f}x {fragments / 1024:>9,.0f} "
              f"{manager.occupied_bytes() / 1024:>14,.0f}")

    print()
    print("wider guards waste more of each freed region; a shallower tree")
    print("trades fewer levels for heavier individual compactions.")


if __name__ == "__main__":
    main()
