#!/usr/bin/env python3
"""Record a workload once, replay it everywhere.

Captures a mixed read/write session against SEALDB with the trace
recorder, saves it to a file, then replays the identical operation
stream against every store configuration -- the apples-to-apples way to
compare engines on *your* workload rather than a synthetic one.

Run:  python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

import repro
from repro import SMALL_PROFILE
from repro.workloads.generators import KeyValueGenerator
from repro.workloads.trace import (
    ChurnTraceGenerator,
    TraceRecorder,
    load_trace,
    replay,
    save_trace,
)


def main() -> None:
    profile = SMALL_PROFILE
    kv = KeyValueGenerator(profile.key_size, profile.value_size)

    # --- capture a session -------------------------------------------------
    recorder = TraceRecorder(repro.open("sealdb", profile=profile))
    churn = ChurnTraceGenerator(kv, working_set=800, drift=200,
                                ops_per_phase=1000, seed=11)
    for op in churn.generate(5000):       # writes and deletes
        if op.kind == "P":
            recorder.put(op.key, op.value or b"")
        else:
            recorder.delete(op.key)
    for i in range(500):                  # interleave some reads
        recorder.get(kv.scrambled_key(i * 3))
    recorder.flush()

    trace_path = Path(tempfile.gettempdir()) / "sealdb-session.trace"
    count = save_trace(recorder.trace, trace_path)
    print(f"recorded {count:,} operations -> {trace_path}")
    print()

    # --- replay against every configuration -------------------------------
    print(f"{'store':>14} {'ops/s':>10} {'WA':>7} {'AWA':>6} {'MWA':>7}")
    print("-" * 50)
    for kind in ("leveldb", "smrdb", "leveldb+sets", "sealdb", "zonekv"):
        store = repro.open(kind, profile=profile)
        result = replay(store, load_trace(trace_path))
        print(f"{store.name:>14} {result.ops_per_sec:>10,.0f} "
              f"{store.wa():>6.2f}x {store.awa():>5.2f}x {store.mwa():>6.2f}x")
    print()
    print("identical operations, five storage designs -- the spread is "
          "pure data-layout policy.")


if __name__ == "__main__":
    main()
