"""Opt-in larger-scale validation (set REPRO_VALIDATE_SCALE=1 to run).

The benchmark suite asserts the paper's shapes at its calibrated
default scale; this test re-checks the two headline results at double
the database size to guard against scale-sensitivity regressions.
Skipped by default because it takes several minutes.
"""

import os

import pytest

import repro
from repro.experiments import fig12_write_amplification
from repro.harness.profiles import DEFAULT_PROFILE
from repro.workloads.generators import KeyValueGenerator
from repro.workloads.microbench import MicroBenchmark

MiB = 1024 * 1024

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_VALIDATE_SCALE"),
    reason="set REPRO_VALIDATE_SCALE=1 for the multi-minute scale check",
)


def test_headline_results_hold_at_double_scale():
    db_bytes = 32 * MiB
    profile = DEFAULT_PROFILE.scaled(capacity=256 * MiB)
    kv = KeyValueGenerator(profile.key_size, profile.value_size)
    entries = profile.entries_for_bytes(db_bytes)

    ops = {}
    for kind in ("leveldb", "sealdb"):
        store = repro.open(kind, profile=profile)
        bench = MicroBenchmark(kv, entries, seed=0)
        ops[kind] = bench.fill_random(store).ops_per_sec
    speedup = ops["sealdb"] / ops["leveldb"]
    assert 2.0 <= speedup <= 7.0     # paper: 3.42x

    amp = fig12_write_amplification.run(db_bytes=db_bytes, profile=profile)
    assert 3.0 <= amp.mwa_reduction_vs_leveldb() <= 14.0   # paper: 6.70x
