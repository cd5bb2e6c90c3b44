"""Extension: how the number of LSM levels trades WA against compaction size.

SMRDB's 2-level design lowers write amplification ("it avoids KV items
from constantly compacting from level 0 to level 6", Fig. 12
discussion) at the price of enormous compactions; Skip-tree (related
work [31]) skips levels for the same reason.  This sweep runs the
set-aware engine on dynamic bands with 2..7 levels and measures WA,
average/maximum compaction size, and load throughput -- mapping the
trade-off space the paper's baselines sit in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import MiB, kv_for, scaled_bytes
from repro.harness.metrics import summarize_compactions
from repro.harness.profiles import DEFAULT_PROFILE, ScaleProfile
from repro.harness.report import render_table
from repro.registry import build_store
from repro.workloads.microbench import MicroBenchmark

DEFAULT_DB_BYTES = 8 * MiB
DEFAULT_LEVELS = (2, 3, 4, 5, 7)


@dataclass
class LevelPoint:
    levels: int
    wa: float
    ops_per_sec: float
    compactions: int
    avg_compaction_bytes: float
    max_compaction_bytes: int


@dataclass
class LevelCountResult:
    db_bytes: int
    points: list[LevelPoint]


def run(db_bytes: int | None = None,
        levels: tuple[int, ...] = DEFAULT_LEVELS,
        profile: ScaleProfile = DEFAULT_PROFILE, seed: int = 0
        ) -> LevelCountResult:
    if db_bytes is None:
        db_bytes = scaled_bytes(DEFAULT_DB_BYTES)
    kv = kv_for(profile)
    entries = profile.entries_for_bytes(db_bytes)
    points: list[LevelPoint] = []
    for num_levels in levels:
        store = build_store("sealdb", profile, max_levels=num_levels)
        bench = MicroBenchmark(kv, entries, seed=seed)
        result = bench.fill_random(store)
        summary = summarize_compactions(store.real_compactions())
        max_bytes = max((r.input_bytes for r in store.real_compactions()),
                        default=0)
        points.append(LevelPoint(
            levels=num_levels,
            wa=store.wa(),
            ops_per_sec=result.ops_per_sec,
            compactions=summary.count,
            avg_compaction_bytes=summary.avg_input_bytes,
            max_compaction_bytes=max_bytes,
        ))
    return LevelCountResult(db_bytes, points)


def render(result: LevelCountResult) -> str:
    rows = [[p.levels, p.wa, p.ops_per_sec, p.compactions,
             p.avg_compaction_bytes / 1024, p.max_compaction_bytes / 1024]
            for p in result.points]
    return render_table(
        "Extension: level count vs WA and compaction size "
        "(set-aware engine on dynamic bands)",
        ["levels", "WA", "ops/s", "compactions", "avg comp KiB",
         "max comp KiB"],
        rows,
    )


def main() -> None:  # pragma: no cover
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
