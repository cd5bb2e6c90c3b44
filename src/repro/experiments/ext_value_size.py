"""Extension: sensitivity of the SEALDB speedup to value size.

The paper evaluates only 4 KB values.  Real deployments span two
orders of magnitude, and value size shifts where time goes: small
values make compactions entry-count-bound (CPU, WAL framing), large
values make them byte-bound (transfers, RMW).  This sweep random-loads
LevelDB and SEALDB at several value sizes and reports the speedup, to
show the headline result is not an artifact of one point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import MiB, scaled_bytes
from repro.harness.profiles import DEFAULT_PROFILE, ScaleProfile
from repro.harness.report import render_table
from repro.registry import open_store
from repro.workloads.generators import KeyValueGenerator
from repro.workloads.microbench import MicroBenchmark

DEFAULT_DB_BYTES = 5 * MiB
DEFAULT_VALUE_SIZES = (32, 100, 400, 1024)


@dataclass
class ValueSizePoint:
    value_size: int
    leveldb_ops: float
    sealdb_ops: float

    @property
    def speedup(self) -> float:
        return self.sealdb_ops / self.leveldb_ops if self.leveldb_ops else 0.0


@dataclass
class ValueSizeResult:
    db_bytes: int
    points: list[ValueSizePoint]


def run(db_bytes: int | None = None,
        value_sizes: tuple[int, ...] = DEFAULT_VALUE_SIZES,
        profile: ScaleProfile = DEFAULT_PROFILE, seed: int = 0
        ) -> ValueSizeResult:
    if db_bytes is None:
        db_bytes = scaled_bytes(DEFAULT_DB_BYTES)
    points: list[ValueSizePoint] = []
    for value_size in value_sizes:
        sized = profile.scaled(value_size=value_size)
        kv = KeyValueGenerator(sized.key_size, value_size)
        entries = sized.entries_for_bytes(db_bytes)
        ops = {}
        for kind in ("leveldb", "sealdb"):
            store = open_store(kind, profile=sized)
            bench = MicroBenchmark(kv, entries, seed=seed)
            ops[kind] = bench.fill_random(store).ops_per_sec
        points.append(ValueSizePoint(value_size, ops["leveldb"],
                                     ops["sealdb"]))
    return ValueSizeResult(db_bytes, points)


def render(result: ValueSizeResult) -> str:
    rows = [[f"{p.value_size} B", p.leveldb_ops, p.sealdb_ops,
             f"{p.speedup:.2f}x"] for p in result.points]
    return render_table(
        "Extension: SEALDB random-write speedup vs value size",
        ["value", "LevelDB ops/s", "SEALDB ops/s", "speedup"],
        rows,
    )


def main() -> None:  # pragma: no cover
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
