"""Extension: user-visible put-latency tails.

Fig. 10 shows per-compaction latencies; what an application feels is
the *put* latency distribution -- most puts cost a WAL append, but the
put that triggers a flush absorbs the whole flush + compaction cascade.
SEALDB's shorter compactions should therefore shrink the latency tail,
and SMRDB's enormous merges should produce catastrophic outliers even
though its average throughput looks fine.

This experiment times every put during a random load and reports
p50/p90/p99/p99.9/max per store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import MiB, kv_for, scaled_bytes
from repro.harness.profiles import DEFAULT_PROFILE, ScaleProfile
from repro.harness.report import render_table
from repro.registry import open_store
from repro.util.rng import make_rng

DEFAULT_DB_BYTES = 8 * MiB

PERCENTILES = (50.0, 90.0, 99.0, 99.9)


@dataclass
class LatencyProfile:
    store: str
    percentiles: dict[float, float]
    max_latency: float
    mean: float
    stalls_over_1s: int


@dataclass
class TailLatencyResult:
    db_bytes: int
    profiles: dict[str, LatencyProfile]


def run(db_bytes: int | None = None,
        profile: ScaleProfile = DEFAULT_PROFILE, seed: int = 0,
        store_kinds: tuple[str, ...] = ("leveldb", "smrdb", "sealdb"),
        ) -> TailLatencyResult:
    if db_bytes is None:
        db_bytes = scaled_bytes(DEFAULT_DB_BYTES)
    kv = kv_for(profile)
    entries = profile.entries_for_bytes(db_bytes)
    profiles: dict[str, LatencyProfile] = {}
    for kind in store_kinds:
        store = open_store(kind, profile=profile)
        rng = make_rng(seed)
        indices = rng.integers(0, entries, size=entries)
        latencies = np.empty(entries)
        for position, index in enumerate(indices):
            index = int(index)
            before = store.now
            store.put(kv.scrambled_key(index), kv.value(index))
            latencies[position] = store.now - before
        values = np.percentile(latencies, PERCENTILES)
        profiles[store.name] = LatencyProfile(
            store=store.name,
            percentiles=dict(zip(PERCENTILES, map(float, values))),
            max_latency=float(latencies.max()),
            mean=float(latencies.mean()),
            stalls_over_1s=int((latencies > 1.0).sum()),
        )
    return TailLatencyResult(db_bytes, profiles)


def render(result: TailLatencyResult) -> str:
    rows = []
    for name, p in result.profiles.items():
        rows.append([
            name,
            p.mean * 1000,
            p.percentiles[50.0] * 1000,
            p.percentiles[90.0] * 1000,
            p.percentiles[99.0] * 1000,
            p.percentiles[99.9] * 1000,
            p.max_latency,
            p.stalls_over_1s,
        ])
    return render_table(
        "Extension: put latency during random load (ms; max in s)",
        ["store", "mean", "p50", "p90", "p99", "p99.9", "max (s)",
         ">1s stalls"],
        rows,
    )


def main() -> None:  # pragma: no cover
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
