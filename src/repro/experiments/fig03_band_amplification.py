"""Fig. 3 -- SSTable distribution over SMR bands and the resulting
write amplification, as a function of band size.

The paper repeats the Fig. 2 load on five emulated fixed-band SMR
drives (band sizes 20-60 MB) and reports, per band size:

* (a) the average number of SSTables written per compaction (~9.83) and
  the average number of bands those writes touch (6.22 at 40 MB);
* (b) the LSM write amplification WA (~9.83, band-independent) and the
  multiplicative MWA (52.85 at 40 MB), i.e. AWA grows with band size.

Band sizes here are the paper's divided by the profile scale; the
paper's 4 MB SSTable maps to ``profile.sstable_size``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import MiB, scaled_bytes
from repro.harness.metrics import (
    bands_written_per_compaction,
    summarize_compactions,
)
from repro.harness.profiles import DEFAULT_PROFILE, ScaleProfile
from repro.harness.report import render_table

DEFAULT_DB_BYTES = 6 * MiB

#: paper band sizes in units of the SSTable size (20..60 MB over 4 MB)
BAND_SSTABLE_RATIOS = (5, 7.5, 10, 12.5, 15)


@dataclass
class BandPoint:
    """Measurements for one band size."""

    band_size: int
    avg_sstables_per_compaction: float
    avg_bands_per_compaction: float
    wa: float
    awa: float
    mwa: float


@dataclass
class BandSweepResult:
    db_bytes: int
    points: list[BandPoint]
    profile_name: str


def run(db_bytes: int | None = None,
        profile: ScaleProfile = DEFAULT_PROFILE, seed: int = 0,
        ratios: tuple[float, ...] = BAND_SSTABLE_RATIOS) -> BandSweepResult:
    from repro.registry import build_store
    from repro.workloads.microbench import MicroBenchmark
    from repro.experiments.common import kv_for

    if db_bytes is None:
        db_bytes = scaled_bytes(DEFAULT_DB_BYTES)
    points: list[BandPoint] = []
    for ratio in ratios:
        band = int(profile.sstable_size * ratio)
        store = build_store("leveldb", profile, band_size=band)
        bench = MicroBenchmark(kv_for(profile),
                               profile.entries_for_bytes(db_bytes), seed=seed)
        bench.fill_random(store)
        summary = summarize_compactions(store.real_compactions())
        bands = bands_written_per_compaction(store)
        avg_bands = sum(bands) / len(bands) if bands else 0.0
        points.append(BandPoint(
            band_size=band,
            avg_sstables_per_compaction=summary.avg_output_files,
            avg_bands_per_compaction=avg_bands,
            wa=store.wa(),
            awa=store.awa(),
            mwa=store.mwa(),
        ))
    return BandSweepResult(db_bytes, points, profile.name)


def render(result: BandSweepResult) -> str:
    from repro.harness.plotting import ascii_series

    rows = []
    for p in result.points:
        rows.append([
            f"{p.band_size // 1024} KiB",
            p.avg_sstables_per_compaction,
            p.avg_bands_per_compaction,
            p.wa,
            p.awa,
            p.mwa,
        ])
    table = render_table(
        "Fig. 3: SSTables/bands per compaction and WA/MWA vs band size "
        "(LevelDB on fixed-band SMR)",
        ["band", "sstables/comp", "bands/comp", "WA", "AWA", "MWA"],
        rows,
    )
    plot = ascii_series(
        {"WA": [p.wa for p in result.points],
         "MWA": [p.mwa for p in result.points]},
        title="Fig. 3(b): WA flat, MWA grows with band size "
              "(x = band sweep, small to large)",
        height=10, width=40,
    )
    return table + "\n\n" + plot


def save_csv(result: BandSweepResult, path) -> None:
    from repro.harness.plotting import to_csv

    to_csv(["band_size", "sstables_per_comp", "bands_per_comp",
            "wa", "awa", "mwa"],
           [[p.band_size, p.avg_sstables_per_compaction,
             p.avg_bands_per_compaction, p.wa, p.awa, p.mwa]
            for p in result.points],
           path=path)


def main() -> None:  # pragma: no cover
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
