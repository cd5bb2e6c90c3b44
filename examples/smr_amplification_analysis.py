#!/usr/bin/env python3
"""Why LSM-trees hurt on SMR drives -- and how SEALDB fixes it.

Reproduces the paper's motivation (Section II-C) in miniature: the same
random load is applied to stock LevelDB (ext4 over a fixed-band SMR
drive) and to SEALDB (sets + dynamic bands on a raw HM-SMR drive), and
the script compares:

* the Table I amplification chain WA -> AWA -> MWA;
* how far one compaction's I/O is scattered across the disk;
* throughput on the simulated clock.

Run:  python examples/smr_amplification_analysis.py
"""

import repro
from repro import SMALL_PROFILE
from repro.harness.metrics import (
    compaction_span,
    contiguous_output_fraction,
    summarize_compactions,
)
from repro.workloads import KeyValueGenerator, MicroBenchmark

MiB = 1024 * 1024
DB_BYTES = 3 * MiB


def analyze(kind: str):
    profile = SMALL_PROFILE
    store = repro.open(kind, profile=profile)
    kv = KeyValueGenerator(profile.key_size, profile.value_size)
    bench = MicroBenchmark(kv, profile.entries_for_bytes(DB_BYTES), seed=7)
    result = bench.fill_random(store)

    records = store.real_compactions()
    summary = summarize_compactions(records)
    spans = [compaction_span(r) for r in records]
    return {
        "store": store.name,
        "ops_per_sec": result.ops_per_sec,
        "wa": store.wa(),
        "awa": store.awa(),
        "mwa": store.mwa(),
        "compactions": summary.count,
        "avg_latency": summary.avg_latency,
        "mean_span_kib": (sum(spans) / len(spans) / 1024) if spans else 0,
        "contiguous": contiguous_output_fraction(store),
        "rmw": store.drive.stats.rmw_count,
    }


def main() -> None:
    rows = [analyze("leveldb"), analyze("sealdb")]
    header = (f"{'':>22}" + "".join(f"{r['store']:>14}" for r in rows))
    print(header)
    print("-" * len(header))
    fmt = [
        ("random-load ops/s", "ops_per_sec", "{:,.0f}"),
        ("WA  (LSM)", "wa", "{:.2f}x"),
        ("AWA (SMR drive)", "awa", "{:.2f}x"),
        ("MWA (overall)", "mwa", "{:.2f}x"),
        ("compactions", "compactions", "{:d}"),
        ("avg compaction (s)", "avg_latency", "{:.2f}"),
        ("compaction span (KiB)", "mean_span_kib", "{:,.0f}"),
        ("contiguous outputs", "contiguous", "{:.0%}"),
        ("band read-mod-writes", "rmw", "{:d}"),
    ]
    for label, key, pattern in fmt:
        print(f"{label:>22}" + "".join(
            f"{pattern.format(r[key]):>14}" for r in rows))

    lvl, seal = rows
    print()
    print(f"SEALDB random-write speedup : "
          f"{seal['ops_per_sec'] / lvl['ops_per_sec']:.2f}x  (paper: 3.42x)")
    print(f"SEALDB MWA reduction        : "
          f"{lvl['mwa'] / seal['mwa']:.2f}x  (paper: 6.70x)")


if __name__ == "__main__":
    main()
