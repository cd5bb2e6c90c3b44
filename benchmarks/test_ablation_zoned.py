"""Ablation: dynamic bands vs standardized zones (ZBC/ZNS).

SEALDB deliberately avoids the standardized zoned interface: Section
III-B2 argues that fixed bands/zones "result in space wastage due to
partially used bands and unnecessary guard regions" and require
cleaning.  This bench runs the *same* set-aware engine over (a) dynamic
bands on the raw drive and (b) a ZenFS-style zone allocator on a zoned
device, and compares device write amplification (zone GC traffic), GC
work, and load throughput.
"""

from repro.experiments.common import MiB, kv_for, scaled_bytes
from repro.harness.profiles import DEFAULT_PROFILE
from repro.harness.report import render_table
from repro.registry import build_store
from repro.workloads.microbench import MicroBenchmark

DB_BYTES = scaled_bytes(8 * MiB)


def _run():
    # a tight device (2.5x the database) puts the zoned stack under the
    # space pressure where zone GC matters; dynamic bands reuse holes
    # in place and feel none of it
    profile = DEFAULT_PROFILE.scaled(capacity=int(2.5 * DB_BYTES))
    rows = {}
    for store in (build_store("sealdb", profile),
                  build_store("zonekv", profile)):
        bench = MicroBenchmark(kv_for(profile),
                               profile.entries_for_bytes(DB_BYTES), seed=0)
        result = bench.fill_random(store)
        rows[store.name] = {
            "ops_per_sec": result.ops_per_sec,
            "awa": store.awa(),
            "mwa": store.mwa(),
            "gc_runs": getattr(store.storage, "gc_runs", 0),
            "gc_bytes": getattr(store.storage, "gc_bytes_moved", 0),
        }
    return rows


def test_ablation_zoned(benchmark, record_result):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)

    table = [[name, r["ops_per_sec"], r["awa"], r["mwa"], r["gc_runs"],
              r["gc_bytes"] / 1024]
             for name, r in rows.items()]
    record_result("ablation_zoned", render_table(
        "Ablation: dynamic bands vs ZBC/ZNS zones (same set-aware engine)",
        ["configuration", "ops/s", "AWA", "MWA", "zone GCs", "GC KiB"],
        table,
    ))

    seal, zone = rows["SEALDB"], rows["ZoneKV"]
    # dynamic bands never clean: AWA is exactly 1
    assert seal["awa"] == 1.0
    # the zoned stack must garbage-collect under space pressure, which
    # shows up as extra device writes (AWA > 1)
    assert zone["gc_runs"] > 0
    assert zone["awa"] > 1.0
    # and dynamic bands load at least as fast
    assert seal["ops_per_sec"] >= zone["ops_per_sec"] * 0.95
