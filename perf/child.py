"""One workload, one seed, one fresh process.

``run.py`` starts this file once per run and reads the JSON object it
prints last.  Order of events: import and warm the program, generate the
inputs, set up (timed as ``setup_s``, several times over, the last store
is the one measured), run the timed phase, then -- untimed -- check every
reply against the model, crash-restart the store with ``reopen()`` and
re-read a sample of acknowledged writes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(PERF_DIR), "src")


def warm_up(repro) -> None:
    """Imports, the lazy store registry and the .pyc files cost the first
    set-up of a series ~20 % unless something ran before it."""
    from repro.workloads import KeyValueGenerator
    gen = KeyValueGenerator(16, 64)
    with repro.open("sealdb", profile=repro.SMALL_PROFILE) as store:
        for i in range(2000):
            store.put(gen.scrambled_key(i), gen.value(i))


def set_up(repro, plan):
    began = time.perf_counter()
    store = repro.open("sealdb", **plan.store_kwargs)
    put = store.put
    for k, v in plan.preload:
        put(k, v)
    store.flush()
    return store, time.perf_counter() - began


def codec_replay(plan, timed) -> tuple[float, float]:
    """(microseconds, bytes) per request spent in the RESP codec: this
    run's exact request and reply bytes, burst by burst, through the
    encoders and parsers both ends use."""
    from repro.net.protocol import (
        RespParser, encode_array, encode_bulk, encode_command, encode_simple)
    now = time.perf_counter_ns
    spent = wire_bytes = requests = 0
    for bursts, replies in zip(plan.ops, timed.replies):
        server, client = RespParser(), RespParser()
        at = 0
        for burst in bursts:
            got = replies[at:at + len(burst)]
            at += len(burst)
            if any(isinstance(reply, Exception) for reply in got):
                continue
            t0 = now()
            sent = b"".join(encode_command(c) for c in burst)
            server.feed(sent)
            for _ in burst:
                server.next_request()
            back = b"".join(
                encode_simple(reply) if isinstance(reply, str)
                else encode_array(reply) if isinstance(reply, list)
                else encode_bulk(reply) for reply in got)
            client.feed(back)
            for _ in burst:
                client.next_value()
            spent += now() - t0
            wire_bytes += len(sent) + len(back)
            requests += len(burst)
    if not requests:
        return 0.0, 0.0
    return spent / 1e3 / requests, wire_bytes / requests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--setups", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"perf: no program to measure at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    import repro
    import repro.net  # noqa: F401  (imported lazily by the package otherwise)

    import layers
    import workloads
    from tracer import Tracer

    warm_up(repro)
    plan = workloads.plan(args.workload, args.seed, args.seconds, args.scale)
    on_wire = args.workload == "wire"

    tracer = None
    if args.trace:
        tracer = Tracer(args.seed)
        tracer.install()
        for op in ("put", "get", "scan"):
            fn = getattr(workloads, f"op_{op}")
            setattr(workloads, f"op_{op}", tracer.wrap(fn, f"op.{op}"))

    # the benchmark's own inputs should not weigh on the program's GC
    gc.collect()
    gc.freeze()

    setup_s = []
    store = None
    for _ in range(args.setups):
        if store is not None:
            store.close()
            store = None
            gc.collect()  # frees its drive image before the next is built
        root = tracer.phase("setup") if tracer else None
        store, took = set_up(repro, plan)
        if tracer:
            tracer.end_phase(root, int(took * 1e9))
        setup_s.append(took)

    server = None
    if on_wire:
        from repro.net import ServerThread
        server = ServerThread(store).start()
    before = layers.snapshot(store)
    cpu0 = os.times()
    root = tracer.phase("timed") if tracer else None
    if on_wire:
        timed = workloads.run_wire(server.address, plan)
    else:
        timed = workloads.run_inprocess(
            store, plan, store.drive.clock if tracer else None)
    if tracer:
        tracer.end_phase(root, int(timed.wall_s * 1e9))
    cpu1 = os.times()
    after = layers.snapshot(store)
    if server is not None:
        server.stop()

    ops = plan.num_ops
    shards = layers.deltas(before, after)
    e2e = layers.end_to_end(store, shards, ops, timed.wall_s,
                            timed.latencies_ns, plan.live_keys)
    e2e["setup_s"] = statistics.median(setup_s)
    refused = workloads.refused(timed) if on_wire else 0
    counts = layers.count_metrics(
        store, shards, ops, timed.wall_s, timed.latencies_ns, plan.live_keys,
        cpu_s=(cpu1.user + cpu1.system) - (cpu0.user + cpu0.system),
        sys_s=cpu1.system - cpu0.system, refused=refused, on_wire=on_wire)

    # -- untimed from here: correctness, then durability ------------------
    failed = workloads.verify(plan, timed)
    if tracer:
        tracer.phase("after")
    store.reopen()  # crash-restart: manifest + WAL, no close()
    sample = workloads.durability_sample(plan, args.seed)
    lost = sum(store.get(k) != v for k, v in sample)
    store.close()
    counts["error_rate"] = (failed + lost) / (ops + len(sample))
    e2e["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    result = {
        "workload": args.workload, "seed": args.seed, "traced": bool(tracer),
        "ops": ops, "preloaded": len(plan.preload),
        "sizes": {"preload": workloads.PRELOAD,
                  "ops_per_second_of_run": workloads.OPS_PER_SECOND,
                  "wire_shards": workloads.WIRE_SHARDS,
                  "wire_connections": workloads.WIRE_CONNECTIONS,
                  "wire_pipeline": workloads.WIRE_PIPELINE},
        "attempted": ops + len(sample), "failed": failed + lost,
        "wrong_replies": failed, "lost_writes": lost,
        "latency_samples": len(timed.latencies_ns),
        "timed_s": timed.wall_s, "setup_s": setup_s,
        "end_to_end": e2e, "counts": counts,
        # what must repeat exactly between runs of one (commit, seed)
        "counters": shards,
    }
    if tracer:
        export = tracer.export()
        if on_wire:
            scan_keys = sum(len(r[1]) // 2 for replies in timed.replies
                            for r in replies if isinstance(r, list))
        else:
            scan_keys = sum(len(r) for r in timed.replies
                            if isinstance(r, list))
        result["times"] = layers.time_metrics(
            export, shards, ops, timed.wall_s, scan_keys,
            timed.sim_latencies_s,
            codec_replay(plan, timed) if on_wire else None)
        export["workload"] = args.workload
        export["seed"] = args.seed
        export["timed_s"] = timed.wall_s
        export["layers"] = layers.Spans(export, "timed").layers(timed.wall_s)
        result["layer_shares"] = export["layers"]
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"trace_{args.workload}.json")
        with open(path, "w") as fh:
            json.dump(export, fh)
        result["trace_file"] = path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
