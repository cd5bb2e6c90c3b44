"""Extension bench: LinkBench-style social-graph workload, 3 stores.

The paper's intro motivates SEALDB with social networking (LinkBench);
this bench runs the graph load + the default read-heavy operation mix
on each store.  Expectations mirror the YCSB findings: SEALDB leads the
write-heavy load phase; the read-dominated run phase stays near parity.
"""

import repro
from repro.experiments.common import scaled_bytes
from repro.harness.profiles import DEFAULT_PROFILE
from repro.harness.report import normalize, render_table
from repro.workloads.linkbench import LinkBenchWorkload

NUM_NODES = scaled_bytes(20_000)
RUN_OPS = 4_000


def _run():
    rows = {}
    for kind in ("leveldb", "smrdb", "sealdb"):
        store = repro.open(kind, profile=DEFAULT_PROFILE)
        workload = LinkBenchWorkload(int(NUM_NODES), links_per_node=4, seed=0)
        load = workload.load(store)
        run = workload.run(store, RUN_OPS)
        rows[store.name] = {"load": load.ops_per_sec,
                            "run": run.ops_per_sec,
                            "wa": store.wa(), "mwa": store.mwa()}
    return rows


def test_ext_linkbench(benchmark, record_result):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)

    load_norm = normalize({s: r["load"] for s, r in rows.items()}, "LevelDB")
    run_norm = normalize({s: r["run"] for s, r in rows.items()}, "LevelDB")
    table = [[name, r["load"], f"{load_norm[name]:.2f}x", r["run"],
              f"{run_norm[name]:.2f}x", r["mwa"]]
             for name, r in rows.items()]
    record_result("ext_linkbench", render_table(
        "Extension: LinkBench-style graph workload",
        ["store", "load ops/s", "norm", "run ops/s", "norm", "MWA"],
        table,
    ))

    # graph loading is write-heavy: SEALDB leads clearly
    assert load_norm["SEALDB"] > 1.5
    # the read-heavy run phase never collapses
    assert run_norm["SEALDB"] > 0.7
    assert run_norm["SMRDB"] > 0.7
    # MWA ordering as always
    assert rows["LevelDB"]["mwa"] > rows["SEALDB"]["mwa"]
