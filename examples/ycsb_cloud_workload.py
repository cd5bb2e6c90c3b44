#!/usr/bin/env python3
"""Serving a cloud workload: YCSB on SEALDB vs LevelDB.

The paper's intro motivates SEALDB with consolidated cloud serving
workloads on high-density drives.  This example loads a scaled database
and replays two contrasting YCSB mixes:

* workload A (50% read / 50% update, zipfian) -- update-heavy serving;
* workload C (100% read, zipfian) -- a read-only cache-miss path.

Run:  python examples/ycsb_cloud_workload.py
"""

import repro
from repro import SMALL_PROFILE
from repro.workloads import KeyValueGenerator, YCSBRunner, YCSB_WORKLOADS

MiB = 1024 * 1024
DB_BYTES = 3 * MiB
OPERATIONS = 1500


def main() -> None:
    profile = SMALL_PROFILE
    kv = KeyValueGenerator(profile.key_size, profile.value_size)
    record_count = profile.entries_for_bytes(DB_BYTES)

    print(f"records: {record_count:,}   operations per workload: {OPERATIONS:,}")
    print()
    print(f"{'store':>10} {'phase':>8} {'ops/s':>12} {'reads':>7} "
          f"{'updates':>8} {'hit rate':>9}")
    print("-" * 60)

    for kind in ("leveldb", "sealdb"):
        store = repro.open(kind, profile=profile)
        runner = YCSBRunner(kv, record_count, seed=3)
        load = runner.load(store)
        print(f"{store.name:>10} {'load':>8} {load.ops_per_sec:>12,.0f}")
        for name in ("A", "C"):
            r = runner.run(store, YCSB_WORKLOADS[name], OPERATIONS)
            hit_rate = r.read_hits / r.reads if r.reads else 0.0
            print(f"{store.name:>10} {name:>8} {r.ops_per_sec:>12,.0f} "
                  f"{r.reads:>7} {r.updates:>8} {hit_rate:>8.0%}")
        print(f"{'':>10} {'':>8} WA={store.wa():.1f}x AWA={store.awa():.2f}x "
              f"MWA={store.mwa():.1f}x")
        print()


if __name__ == "__main__":
    main()
