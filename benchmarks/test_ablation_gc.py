"""Ablation: the fragment garbage collection (paper future work).

Fig. 13 leaves ~9 % of occupied space in fragments and defers a GC
policy to future work.  ``DynamicBandStorage.collect_fragments``
relocates the sets pinning fragments in place; this bench measures how
much fragment space one pass reclaims and what the relocation traffic
costs.
"""

from repro.experiments.common import MiB, kv_for, scaled_bytes
from repro.harness.profiles import DEFAULT_PROFILE
from repro.harness.report import render_table
from repro.registry import build_store
from repro.workloads.microbench import MicroBenchmark

DB_BYTES = scaled_bytes(8 * MiB)


def _run():
    profile = DEFAULT_PROFILE
    store = build_store("sealdb", profile)
    bench = MicroBenchmark(kv_for(profile),
                           profile.entries_for_bytes(DB_BYTES), seed=0)
    bench.fill_random(store)

    frag_before = sum(f.length for f in store.fragments())
    occupied_before = store.band_manager.occupied_bytes()
    time_before = store.now
    moves, rewritten = store.storage.collect_fragments(max_moves=64)
    gc_seconds = store.now - time_before
    frag_after = sum(f.length for f in store.fragments())
    store.band_manager.check_invariants()
    return {
        "frag_before": frag_before,
        "frag_after": frag_after,
        "occupied_before": occupied_before,
        "moves": moves,
        "rewritten": rewritten,
        "gc_seconds": gc_seconds,
    }


def test_ablation_gc(benchmark, record_result):
    r = benchmark.pedantic(_run, rounds=1, iterations=1)

    rows = [
        ["fragment bytes before (KiB)", r["frag_before"] / 1024],
        ["fragment bytes after (KiB)", r["frag_after"] / 1024],
        ["fragment reduction",
         f"{1 - r['frag_after'] / max(1, r['frag_before']):.0%}"],
        ["sets relocated", r["moves"]],
        ["bytes rewritten (KiB)", r["rewritten"] / 1024],
        ["GC time (simulated s)", r["gc_seconds"]],
    ]
    record_result("ablation_gc", render_table(
        "Ablation: fragment GC pass after random load", ["metric", "value"],
        rows,
    ))

    assert r["frag_before"] > 0
    assert r["moves"] > 0
    assert r["frag_after"] < r["frag_before"]
    # GC pays real (simulated) time; it is not free
    assert r["gc_seconds"] > 0
