"""Fig. 9 -- YCSB macro-benchmark performance.

The paper loads 25 M entries per store and runs 100 K operations of
each YCSB workload (A-F).  Findings: "SEALDB enjoys a larger
performance improvement in random load/write dominated workloads" and
the per-store behaviour matches the micro-benchmarks; skewed (zipfian)
requests give SEALDB and SMRDB a larger edge than uniform ones.

The load:run ratio here mirrors the paper's 25 M : 100 K (250:1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import MiB, kv_for, scaled_bytes
from repro.harness.profiles import DEFAULT_PROFILE, ScaleProfile
from repro.harness.report import normalize, render_table
from repro.registry import open_store
from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBResult, YCSBRunner

DEFAULT_DB_BYTES = 8 * MiB
#: run ops per loaded record -- heavier than the paper's 250:1 so the
#: scaled run phase still triggers flushes/compactions (signal, not noise)
DEFAULT_OPS_RATIO = 40


@dataclass
class YCSBSuiteResult:
    db_bytes: int
    operation_count: int
    #: results[workload][store] -> YCSBResult ("load" is a pseudo-workload)
    results: dict[str, dict[str, YCSBResult]]
    normalized: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.normalized:
            self.normalized = {
                workload: normalize(
                    {s: r.ops_per_sec for s, r in by_store.items()}, "LevelDB")
                for workload, by_store in self.results.items()
            }


def run(db_bytes: int | None = None, operation_count: int | None = None,
        profile: ScaleProfile = DEFAULT_PROFILE, seed: int = 0,
        store_kinds: tuple[str, ...] = ("leveldb", "smrdb", "sealdb"),
        workloads: tuple[str, ...] = ("A", "B", "C", "D", "E", "F"),
        ) -> YCSBSuiteResult:
    if db_bytes is None:
        db_bytes = scaled_bytes(DEFAULT_DB_BYTES)
    record_count = profile.entries_for_bytes(db_bytes)
    if operation_count is None:
        operation_count = max(200, record_count // DEFAULT_OPS_RATIO)

    results: dict[str, dict[str, YCSBResult]] = {"load": {}}
    results.update({w: {} for w in workloads})
    for kind in store_kinds:
        store = open_store(kind, profile=profile)
        runner = YCSBRunner(kv_for(profile), record_count, seed=seed)
        results["load"][store.name] = runner.load(store)
        for name in workloads:
            results[name][store.name] = runner.run(
                store, YCSB_WORKLOADS[name], operation_count)
    return YCSBSuiteResult(db_bytes, operation_count, results)


def render(result: YCSBSuiteResult) -> str:
    stores = list(result.results["load"].keys())
    rows = []
    for workload, by_store in result.results.items():
        row = [workload]
        for store in stores:
            r = by_store[store]
            row.append(f"{r.ops_per_sec:,.0f} "
                       f"({result.normalized[workload][store]:.2f}x)")
        rows.append(row)
    return render_table(
        "Fig. 9: YCSB throughput (ops/s, normalized to LevelDB)",
        ["workload", *stores],
        rows,
    )


def main() -> None:  # pragma: no cover
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
