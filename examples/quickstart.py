#!/usr/bin/env python3
"""Quickstart: SEALDB as a key-value store.

Opens a SEALDB instance on a simulated raw HM-SMR drive through the
public entry point (``repro.open``), performs the basic operations
(put / get / delete / scan), then peeks at the SMR-side bookkeeping the
paper is about: write amplification factors, the dynamic-band layout,
and the store's observability metrics.

Run:  python examples/quickstart.py
"""

import repro
from repro import SMALL_PROFILE


def main() -> None:
    with repro.open("sealdb", profile=SMALL_PROFILE) as db:
        print(db.describe())
        print()

        # --- basic operations -------------------------------------------
        db.put(b"user:0001", b"alice")
        db.put(b"user:0002", b"bob")
        db.put(b"user:0003", b"carol")
        print("get user:0002 ->", db.get(b"user:0002"))

        db.delete(b"user:0002")
        print("after delete  ->", db.get(b"user:0002"))

        # range scan over live keys
        print("scan user:*   ->",
              [(k.decode(), v.decode())
               for k, v in db.scan(b"user:", b"user;\xff")])

        # --- watch the store work through its event bus -------------------
        # Arming the bus turns on the metrics registry (latency
        # histograms, band/compaction counters); subscribe() would also
        # deliver the typed events themselves.
        db.obs.arm()

        for i in range(20_000):
            db.put(b"key%012d" % (i * 7919 % 20_000), b"payload-%d" % i)
        db.flush()

        m = db.obs.metrics
        put_p99 = m.histograms["latency.put"].percentile(99)
        print()
        print(f"simulated time elapsed : {db.now:8.2f} s")
        print(f"puts                   : {db.stats.puts:,}")
        print(f"put p99 latency        : {put_p99 * 1e3:.3f} ms")
        print(f"flushes                : {len(db.db.flush_records):,}")
        print(f"compactions            : {len(db.real_compactions()):,}")
        print(f"WA  (LSM-tree)         : {db.wa():.2f}x")
        print(f"AWA (SMR drive)        : {db.awa():.2f}x   "
              f"<- dynamic bands keep this at 1")
        print(f"MWA (overall)          : {db.mwa():.2f}x")

        bands = db.band_manager.bands()
        print(f"dynamic bands          : {len(bands)} "
              f"(sizes {min(b.length for b in bands) // 1024} KiB .. "
              f"{max(b.length for b in bands) // 1024} KiB)")
        print(f"average set size       : {db.set_registry.average_set_size() / 1024:.1f} KiB")

        # point reads still work after all that churn
        assert db.get(b"key%012d" % 0) is not None
        print("\nread-back OK")


if __name__ == "__main__":
    main()
