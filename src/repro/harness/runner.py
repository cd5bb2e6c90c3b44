"""Store factory and the cross-store experiment runner."""

from __future__ import annotations

from repro.harness.metrics import WorkloadResult
from repro.harness.profiles import DEFAULT_PROFILE, ScaleProfile
from repro.kvstore import KVStoreBase
from repro.registry import open_store, store_kinds
from repro.workloads.generators import KeyValueGenerator
from repro.workloads.microbench import MicroBenchmark

#: every store kind: the paper's four plus the ZoneKV (ZBC/ZNS) extension
STORE_KINDS = store_kinds()


class ExperimentRunner:
    """Runs the micro suite (or custom phases) across several stores.

    Every store gets a *fresh* instance per phase sequence, mirroring
    the paper's methodology (each basic-performance bar is measured on
    its own database).
    """

    def __init__(self, profile: ScaleProfile = DEFAULT_PROFILE,
                 store_kinds: tuple[str, ...] = ("leveldb", "smrdb", "sealdb"),
                 seed: int = 0, shards: int = 1, router: str = "hash") -> None:
        self.profile = profile
        self.store_kinds = store_kinds
        self.seed = seed
        self.shards = shards
        self.router = router
        self.stores: dict[str, KVStoreBase] = {}

    def open(self, kind: str) -> KVStoreBase:
        """One fresh store (sharded when the runner is configured so)."""
        return open_store(kind, profile=self.profile, shards=self.shards,
                          router=self.router)

    def kv(self) -> KeyValueGenerator:
        return KeyValueGenerator(self.profile.key_size, self.profile.value_size)

    def run_micro_suite(self, db_bytes: int, read_ops: int
                        ) -> dict[str, dict[str, WorkloadResult]]:
        """Fig. 8: the four basic workloads for every store.

        Returns ``results[workload][store_name]``.  Reads run against
        the random-loaded database, as in the paper.
        """
        num_entries = self.profile.entries_for_bytes(db_bytes)
        bench = MicroBenchmark(self.kv(), num_entries, seed=self.seed)
        results: dict[str, dict[str, WorkloadResult]] = {
            w: {} for w in ("fillseq", "fillrandom", "readseq", "readrandom")
        }
        for kind in self.store_kinds:
            seq_store = self.open(kind)
            r = bench.fill_seq(seq_store)
            results["fillseq"][seq_store.name] = WorkloadResult(
                seq_store.name, r.workload, r.ops, r.sim_seconds)

            rand_store = self.open(kind)
            r = bench.fill_random(rand_store)
            results["fillrandom"][rand_store.name] = WorkloadResult(
                rand_store.name, r.workload, r.ops, r.sim_seconds)
            self.stores[rand_store.name] = rand_store

            r = bench.read_seq(rand_store, read_ops)
            results["readseq"][rand_store.name] = WorkloadResult(
                rand_store.name, r.workload, r.ops, r.sim_seconds)

            r = bench.read_random(rand_store, read_ops)
            results["readrandom"][rand_store.name] = WorkloadResult(
                rand_store.name, r.workload, r.ops, r.sim_seconds)
        return results
