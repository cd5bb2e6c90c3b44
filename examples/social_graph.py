#!/usr/bin/env python3
"""A social graph on SEALDB: the LinkBench-style workload.

Builds a synthetic social graph (nodes + typed, timestamp-free links
under composite keys), then serves LinkBench's default read-heavy mix.
Composite key encoding makes "friends of node N" one contiguous scan --
the access pattern that rewards SEALDB's sequential layouts.

Run:  python examples/social_graph.py
"""

import repro
from repro import SMALL_PROFILE
from repro.harness.analysis import stats_string
from repro.workloads.linkbench import (
    LinkBenchWorkload,
    link_prefix,
    node_key,
)


def main() -> None:
    workload = LinkBenchWorkload(num_nodes=3000, links_per_node=4, seed=7)

    print(f"{'store':>10} {'load ops/s':>12} {'run ops/s':>12} {'MWA':>8}")
    print("-" * 48)
    stores = {}
    for kind in ("leveldb", "sealdb"):
        store = repro.open(kind, profile=SMALL_PROFILE)
        load = workload.load(store)
        run = workload.run(store, 2500)
        stores[kind] = store
        print(f"{store.name:>10} {load.ops_per_sec:>12,.0f} "
              f"{run.ops_per_sec:>12,.0f} {store.mwa():>7.2f}x")

    # poke at the graph through the raw KV API
    db = stores["sealdb"]
    print()
    hot = 0  # zipfian makes node 0 the celebrity
    print(f"node 0 profile bytes : {len(db.get(node_key(hot)) or b'')}")
    friends = list(db.scan(link_prefix(hot, 0),
                           link_prefix(hot, 0) + b"\xff", limit=10))
    print(f"node 0 type-0 links  : {len(friends)} (showing up to 10)")
    for key, _value in friends[:3]:
        print(f"   {key.decode()}")

    print()
    print(stats_string(db))


if __name__ == "__main__":
    main()
