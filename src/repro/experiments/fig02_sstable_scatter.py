"""Fig. 2 -- SSTables' distribution for each compaction (LevelDB/ext4/HDD).

The paper randomly loads a 10 GB database on LevelDB over ext4 on a
plain HDD and records the physical address of every SSTable written by
every compaction: "for each compaction, SSTables are separately written
to different locations, almost scattered around the first 10 GB disk
space" (~600 compactions observed).

This experiment reproduces the trace: per compaction, the physical
start offsets of its output SSTables, plus summary statistics -- the
mean *span* a single compaction's I/O covers, and the fraction of the
used disk region it covers.  Compare with Fig. 11 (SEALDB), where every
compaction is one contiguous run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import MiB, scaled_bytes
from repro.harness.metrics import compaction_span, output_offsets_per_compaction
from repro.harness.profiles import DEFAULT_PROFILE, ScaleProfile
from repro.harness.report import render_table

#: the paper's 10 GB, divided by the profile scale (128) and again by 10
#: to keep the default benchmark quick; REPRO_SCALE raises it
DEFAULT_DB_BYTES = 8 * MiB


@dataclass
class ScatterResult:
    """Per-compaction layout trace of a random load."""

    db_bytes: int
    num_compactions: int
    offsets: list[list[int]]       # per compaction: output SSTable offsets
    mean_span: float               # avg distance covered by one compaction
    max_offset: int                # disk footprint of the database
    mean_coverage: float           # mean_span / used region
    sim_seconds: float
    profile_name: str = "default"
    series: dict = field(default_factory=dict)


def run(db_bytes: int | None = None,
        profile: ScaleProfile = DEFAULT_PROFILE, seed: int = 0,
        kind: str = "leveldb", drive_kind: str = "hdd") -> ScatterResult:
    from repro.registry import open_store
    from repro.workloads.microbench import MicroBenchmark
    from repro.experiments.common import kv_for

    if db_bytes is None:
        db_bytes = scaled_bytes(DEFAULT_DB_BYTES)
    store = open_store(kind, profile=profile, drive_kind=drive_kind) \
        if kind == "leveldb" else open_store(kind, profile=profile)
    bench = MicroBenchmark(kv_for(profile),
                           profile.entries_for_bytes(db_bytes), seed=seed)
    fill = bench.fill_random(store)

    records = store.real_compactions()
    offsets = output_offsets_per_compaction(store)
    spans = [compaction_span(r) for r in records]
    max_offset = max((off for row in offsets for off in row), default=0)
    used = max(1, max_offset - store.storage.data_start)
    mean_span = sum(spans) / len(spans) if spans else 0.0
    return ScatterResult(
        db_bytes=db_bytes,
        num_compactions=len(records),
        offsets=offsets,
        mean_span=mean_span,
        max_offset=max_offset,
        mean_coverage=mean_span / used,
        sim_seconds=fill.sim_seconds,
        profile_name=profile.name,
    )


def scatter_points(result: ScatterResult) -> list[tuple[float, float]]:
    """The figure's raw series: (compaction index, output offset MiB)."""
    return [(index, offset / MiB)
            for index, row in enumerate(result.offsets)
            for offset in row]


def render(result: ScatterResult) -> str:
    from repro.harness.plotting import ascii_scatter

    rows = [
        ["database bytes", result.db_bytes],
        ["compactions observed", result.num_compactions],
        ["mean span of one compaction (MiB)", result.mean_span / MiB],
        ["disk footprint (MiB)", result.max_offset / MiB],
        ["footprint / database size", result.max_offset / result.db_bytes],
        ["span / used region", result.mean_coverage],
    ]
    table = render_table(
        "Fig. 2: LevelDB compaction output scatter (ext4 on HDD)",
        ["metric", "value"], rows,
    )
    plot = ascii_scatter(scatter_points(result), width=72, height=18,
                         title="output SSTable addresses per compaction",
                         xlabel="compaction #", ylabel="MiB")
    return table + "\n\n" + plot


def save_csv(result: ScatterResult, path) -> None:
    """Dump the scatter series for external plotting."""
    from repro.harness.plotting import to_csv

    to_csv(["compaction", "offset_bytes"],
           [(index, offset)
            for index, row in enumerate(result.offsets)
            for offset in row],
           path=path)


def main() -> None:  # pragma: no cover - CLI convenience
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
