"""Shared plumbing for the experiment modules."""

from __future__ import annotations

import os

from repro.harness.profiles import DEFAULT_PROFILE, ScaleProfile
from repro.kvstore import KVStoreBase
from repro.registry import open_store
from repro.workloads.generators import KeyValueGenerator
from repro.workloads.microbench import MicroBenchmark

MiB = 1024 * 1024

#: multiplies every experiment's default database size (env knob for
#: closer-to-paper runs: REPRO_SCALE=4 pytest benchmarks/ ...)
SCALE = float(os.environ.get("REPRO_SCALE", "1"))


def scaled_bytes(default_bytes: int) -> int:
    return int(default_bytes * SCALE)


def kv_for(profile: ScaleProfile) -> KeyValueGenerator:
    return KeyValueGenerator(profile.key_size, profile.value_size)


def random_load(kind: str, db_bytes: int,
                profile: ScaleProfile = DEFAULT_PROFILE,
                seed: int = 0, subscriber=None,
                events=None) -> tuple[KVStoreBase, float]:
    """Random-load a fresh store; returns ``(store, sim_seconds)``.

    ``subscriber`` (with an optional ``events`` filter) is attached to
    the store's observability bus *before* the load, so experiments can
    consume the event stream instead of reading store internals.
    """
    store = open_store(kind, profile=profile)
    if subscriber is not None:
        store.obs.subscribe(subscriber, events)
    bench = MicroBenchmark(kv_for(profile), profile.entries_for_bytes(db_bytes),
                           seed=seed)
    result = bench.fill_random(store)
    return store, result.sim_seconds
