"""Ablation: the paper's invalid-set-first victim policy vs round-robin.

Section III-C: "SEALDB gives priority to compact the set with more
invalid SSTables, hence fragments can be recycled implicitly with no
overhead."  Implemented as ``Options.victim_policy="invalid-set-first"``.
The trade-off the measurement exposes: chasing invalid-rich sets
recycles dead space faster (fewer dead bytes pinned by live sets), but
revisiting the same key ranges costs extra write amplification --
which is why the default SEALDB configuration keeps the round-robin
pointer, matching the paper's equal-WA result in Fig. 12(a).
"""

from repro.experiments.common import MiB, kv_for, scaled_bytes
from repro.harness.profiles import DEFAULT_PROFILE
from repro.harness.report import render_table
from repro.registry import build_store
from repro.workloads.microbench import MicroBenchmark

DB_BYTES = scaled_bytes(8 * MiB)


def _run(policy: str):
    profile = DEFAULT_PROFILE
    store = build_store("sealdb", profile, victim_policy=policy)
    bench = MicroBenchmark(kv_for(profile),
                           profile.entries_for_bytes(DB_BYTES), seed=0)
    result = bench.fill_random(store)
    return {
        "policy": policy,
        "ops_per_sec": result.ops_per_sec,
        "wa": store.wa(),
        "dead_bytes": store.set_registry.dead_bytes(),
        "fragments": sum(f.length for f in store.fragments()),
        "live_sets": len(store.set_registry),
    }


def test_ablation_victim_policy(benchmark, record_result):
    def both():
        return _run("pointer"), _run("invalid-set-first")

    pointer, invalid_first = benchmark.pedantic(both, rounds=1, iterations=1)

    rows = [[r["policy"], r["ops_per_sec"], r["wa"],
             r["dead_bytes"] / 1024, r["fragments"] / 1024, r["live_sets"]]
            for r in (pointer, invalid_first)]
    record_result("ablation_victim_policy", render_table(
        "Ablation: SEALDB victim policy (random load)",
        ["policy", "ops/s", "WA", "dead KiB", "frag KiB", "live sets"],
        rows,
    ))

    # the aggressive policy recycles fragments implicitly, as the paper
    # claims (fewer small free regions pinned behind live sets) ...
    assert invalid_first["fragments"] <= pointer["fragments"]
    assert invalid_first["live_sets"] <= pointer["live_sets"]
    # ... at the cost of equal-or-higher write amplification, which is
    # why the default SEALDB keeps the round-robin pointer
    assert invalid_first["wa"] >= pointer["wa"] * 0.99
