"""Ablation: guard-region size sweep.

The guard region (Eq. 1's ``S_guard``) is the paper's 4 MB = one
SSTable.  Larger guards leave more unusable reserve at the tail of
every free region, so the fragment share of occupied space grows and
fewer inserts qualify; smaller guards pack tighter.  (The physical
shingle-overlap width is a drive property -- this sweep shows why the
paper's choice of one-SSTable guards is a reasonable operating point.)
"""

from repro.experiments.common import MiB, kv_for, scaled_bytes
from repro.harness.profiles import DEFAULT_PROFILE
from repro.harness.report import render_table
from repro.registry import build_store
from repro.workloads.microbench import MicroBenchmark

DB_BYTES = scaled_bytes(6 * MiB)


def _run(guard_ratio: float):
    profile = DEFAULT_PROFILE.scaled(
        guard_size=int(DEFAULT_PROFILE.sstable_size * guard_ratio))
    store = build_store("sealdb", profile)
    bench = MicroBenchmark(kv_for(profile),
                           profile.entries_for_bytes(DB_BYTES), seed=0)
    result = bench.fill_random(store)
    occupied = store.band_manager.occupied_bytes()
    fragments = sum(f.length for f in store.fragments())
    return {
        "ratio": guard_ratio,
        "ops_per_sec": result.ops_per_sec,
        "inserts": store.band_manager.inserts,
        "appends": store.band_manager.appends,
        "occupied": occupied,
        "fragment_share": fragments / occupied if occupied else 0.0,
    }


def test_ablation_guard_size(benchmark, record_result):
    ratios = (0.5, 1.0, 2.0)
    points = benchmark.pedantic(
        lambda: [_run(r) for r in ratios], rounds=1, iterations=1)

    rows = [[f"{p['ratio']:.1f}x sstable", p["ops_per_sec"], p["inserts"],
             p["appends"], p["occupied"] / MiB,
             f"{p['fragment_share']:.1%}"] for p in points]
    record_result("ablation_guard_size", render_table(
        "Ablation: guard-region size (SEALDB random load)",
        ["guard", "ops/s", "inserts", "appends", "occupied MiB", "frag share"],
        rows,
    ))

    half, one, two = points
    # a larger guard qualifies fewer free regions for insert
    assert two["inserts"] <= one["inserts"] <= half["inserts"]
    # and inflates the on-disk footprint
    assert two["occupied"] >= half["occupied"]
