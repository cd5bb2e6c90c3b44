"""Extension: fragment aging under sustained update churn.

Fig. 13 snapshots the fragment share after one bulk load.  Long-lived
stores age differently: a drifting update/delete working set keeps
invalidating parts of sets, so fragments and dead-in-set bytes
accumulate.  This experiment drives SEALDB with the churn trace
generator and samples the layout every phase -- once without the
fragment GC and once running
:meth:`~repro.core.storage.DynamicBandStorage.collect_fragments`
between phases -- quantifying how much the paper's future-work GC
matters over time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import MiB, kv_for, scaled_bytes
from repro.harness.profiles import DEFAULT_PROFILE, ScaleProfile
from repro.harness.report import render_table
from repro.kvstore import KVStoreBase
from repro.registry import build_store
from repro.workloads.trace import ChurnTraceGenerator, replay

DEFAULT_DB_BYTES = 4 * MiB
DEFAULT_PHASES = 6


@dataclass
class AgingSample:
    """Layout snapshot after one churn phase."""

    phase: int
    fragment_share: float
    dead_bytes: int
    occupied: int
    live: int


@dataclass
class AgingResult:
    db_bytes: int
    phases: int
    without_gc: list[AgingSample] = field(default_factory=list)
    with_gc: list[AgingSample] = field(default_factory=list)
    gc_moves: int = 0
    gc_bytes: int = 0

    def final_fragment_shares(self) -> tuple[float, float]:
        return (self.without_gc[-1].fragment_share,
                self.with_gc[-1].fragment_share)


def _sample(store: KVStoreBase, phase: int) -> AgingSample:
    manager = store.band_manager
    occupied = manager.occupied_bytes()
    fragments = sum(f.length for f in store.fragments())
    return AgingSample(
        phase=phase,
        fragment_share=fragments / occupied if occupied else 0.0,
        dead_bytes=store.set_registry.dead_bytes(),
        occupied=occupied,
        live=manager.allocated_bytes(),
    )


def run(db_bytes: int | None = None, phases: int = DEFAULT_PHASES,
        profile: ScaleProfile = DEFAULT_PROFILE, seed: int = 0
        ) -> AgingResult:
    if db_bytes is None:
        db_bytes = scaled_bytes(DEFAULT_DB_BYTES)
    kv = kv_for(profile)
    entries = profile.entries_for_bytes(db_bytes)
    ops_per_phase = max(500, entries // 2)

    result = AgingResult(db_bytes, phases)
    for use_gc in (False, True):
        store = build_store("sealdb", profile)
        churn = ChurnTraceGenerator(
            kv, working_set=max(200, entries // 4),
            drift=max(50, entries // 16),
            ops_per_phase=ops_per_phase, seed=seed)
        trace = churn.generate(ops_per_phase * phases)
        for phase in range(phases):
            batch = [next(trace) for _ in range(ops_per_phase)]
            replay(store, batch)
            store.flush()
            if use_gc:
                moves, moved_bytes = store.storage.collect_fragments(
                    max_moves=32)
                result.gc_moves += moves
                result.gc_bytes += moved_bytes
            samples = result.with_gc if use_gc else result.without_gc
            samples.append(_sample(store, phase))
    return result


def render(result: AgingResult) -> str:
    rows = []
    for no_gc, gc in zip(result.without_gc, result.with_gc):
        rows.append([
            no_gc.phase,
            f"{no_gc.fragment_share:.1%}",
            no_gc.dead_bytes / 1024,
            f"{gc.fragment_share:.1%}",
            gc.dead_bytes / 1024,
        ])
    table = render_table(
        "Extension: fragment aging under churn (no GC vs GC per phase)",
        ["phase", "frag share", "dead KiB", "frag share+GC", "dead KiB+GC"],
        rows,
    )
    return (table +
            f"\nGC total: {result.gc_moves} sets relocated, "
            f"{result.gc_bytes / 1024:.0f} KiB rewritten")


def main() -> None:  # pragma: no cover
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
