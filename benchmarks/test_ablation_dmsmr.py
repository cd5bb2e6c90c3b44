"""Ablation: drive-managed SMR does not fix the MWA problem.

Section II-C: "existing SMR drives with a media cache cannot address
the MWA problem, since cache cleaning processes induce large latency as
well as write amplification and bring a bimodal behavior."

This bench random-loads stock LevelDB on three devices -- the host-
visible fixed-band SMR, a drive-managed SMR with a persistent media
cache, and SEALDB's full stack -- and compares MWA and put-latency
spread.  The DM-SMR absorbs random writes cheaply until its cache
fills, then stalls on cleaning; its device-level write amplification
remains, so SEALDB's co-design still wins.
"""

from repro.experiments.common import MiB, kv_for, scaled_bytes
from repro.harness.profiles import DEFAULT_PROFILE
from repro.harness.report import render_table
from repro.registry import build_store
from repro.workloads.microbench import MicroBenchmark

DB_BYTES = scaled_bytes(6 * MiB)


def _load(store):
    profile = DEFAULT_PROFILE
    bench = MicroBenchmark(kv_for(profile),
                           profile.entries_for_bytes(DB_BYTES), seed=0)
    result = bench.fill_random(store)
    return result


def _run():
    rows = {}
    for label, store in (
        ("LevelDB/HM-SMR", build_store("leveldb", DEFAULT_PROFILE)),
        ("LevelDB/DM-SMR",
         build_store("leveldb", DEFAULT_PROFILE, drive_kind="dm-smr")),
        ("SEALDB", build_store("sealdb", DEFAULT_PROFILE)),
    ):
        result = _load(store)
        rows[label] = {
            "ops_per_sec": result.ops_per_sec,
            "mwa": store.mwa(),
            "awa": store.awa(),
            "cleanings": getattr(store.drive, "cleanings", 0),
        }
    return rows


def test_ablation_dmsmr(benchmark, record_result):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)

    table = [[label, r["ops_per_sec"], r["awa"], r["mwa"], r["cleanings"]]
             for label, r in rows.items()]
    record_result("ablation_dmsmr", render_table(
        "Ablation: a media cache (DM-SMR) does not fix MWA",
        ["configuration", "ops/s", "AWA", "MWA", "cleanings"],
        table,
    ))

    dm = rows["LevelDB/DM-SMR"]
    hm = rows["LevelDB/HM-SMR"]
    seal = rows["SEALDB"]

    # the media cache absorbed writes but cleaning kept AWA well above 1
    assert dm["cleanings"] > 0
    assert dm["awa"] > 1.5
    # ... so MWA remains well above SEALDB's (which is exactly WA)
    assert dm["mwa"] > 1.5 * seal["mwa"]
    # and SEALDB still beats both LevelDB configurations outright
    assert seal["ops_per_sec"] > dm["ops_per_sec"]
    assert seal["ops_per_sec"] > hm["ops_per_sec"]
