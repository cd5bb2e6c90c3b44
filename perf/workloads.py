"""The four workloads: seeded input generation, the timed loops, and the
model every reply is checked against.

Inputs are a pure function of (workload, seed, scale).  The program only
ever sees the generated keys and values; expectations are worked out
here, before the clock starts, because one caller (or, on ``wire``, one
writer per key) makes the model's state at every op known in advance.

Values are a pure function of (index, version): version 0 is what the
preload wrote, version v the v-th overwrite.
"""

from __future__ import annotations

import bisect
import random
import threading
import time
from dataclasses import dataclass, field

from repro.workloads import KeyValueGenerator, ZipfianGenerator

#: preloaded records: ~5.5 MiB of user data, ~5x the 1 MiB block cache,
#: a 3-level tree under DEFAULT_PROFILE
PRELOAD = 50_000

#: timed ops per second of ``--seconds``.  Frozen: the op count of a run
#: is ``round(rate * seconds)``, never a duration, so every simulated
#: number is a pure function of (commit, seed, seconds).  Sized on the
#: 2-core reference box so the timed phase lasts about ``--seconds``.
OPS_PER_SECOND = {
    "fillrandom": 5000,
    "readrandom": 11000,
    "mixed": 7000,
    "wire": 3700,
}

WIRE_SHARDS = 2
WIRE_CONNECTIONS = 2
WIRE_PIPELINE = 8
SCAN_LIMIT = 50
WIRE_SCAN_LIMIT = 20
DURABILITY_SAMPLE = 2000

GET, PUT, SCAN = 0, 1, 2

_GEN = KeyValueGenerator(key_size=16, value_size=100)
ENTRY_BYTES = _GEN.entry_size


def key(index: int) -> bytes:
    return _GEN.scrambled_key(index)


def value(index: int, version: int = 0) -> bytes:
    return _GEN.value((version << 32) | index)


def op_count(workload: str, seconds: float, scale: float) -> int:
    return max(200, round(OPS_PER_SECOND[workload] * seconds * scale))


@dataclass
class Plan:
    """Everything one run feeds the program and expects back."""

    workload: str
    preload: list[tuple[bytes, bytes]]
    #: in-process: [(kind, key, value-or-limit)]; wire: per connection,
    #: a list of bursts of RESP command argument lists
    ops: list
    #: parallel to ``ops`` (flattened on wire): what the reply must be
    expect: list
    #: index -> version of every key the timed phase wrote
    written: dict[int, int] = field(default_factory=dict)
    live_keys: int = 0
    num_ops: int = 0
    store_kwargs: dict = field(default_factory=dict)
    flush_at_end: bool = False


def _preload(rng: random.Random, count: int) -> list[tuple[bytes, bytes]]:
    order = list(range(count))
    rng.shuffle(order)
    return [(key(i), value(i)) for i in order]


def plan(workload: str, seed: int, seconds: float, scale: float = 1.0) -> Plan:
    loaded = max(500, round(PRELOAD * scale))
    n = op_count(workload, seconds, scale)
    rng = random.Random(f"{workload}/{seed}")
    p = Plan(workload, _preload(rng, loaded), [], [], live_keys=loaded,
             num_ops=n)
    _PLANNERS[workload](p, rng, seed, loaded, n)
    return p


def _plan_fillrandom(p: Plan, rng, seed, loaded, n) -> None:
    order = list(range(loaded, loaded + n))
    rng.shuffle(order)
    p.ops = [(PUT, key(i), value(i)) for i in order]
    p.expect = [None] * n
    p.written = dict.fromkeys(order, 0)
    p.live_keys = loaded + n
    p.flush_at_end = True


def _plan_readrandom(p: Plan, rng, seed, loaded, n) -> None:
    for _ in range(n):
        i = rng.randrange(loaded)
        if rng.random() < 0.05:
            p.ops.append((GET, b"miss-" + key(i), None))
            p.expect.append(None)
        else:
            p.ops.append((GET, key(i), None))
            p.expect.append((i, 0))


def _plan_mixed(p: Plan, rng, seed, loaded, n) -> None:
    zipf = ZipfianGenerator(loaded, theta=0.99, seed=seed)
    by_key = sorted(range(loaded), key=key)
    sorted_keys = [key(i) for i in by_key]
    version = [0] * loaded
    for _ in range(n):
        i = zipf.next()
        roll = rng.random()
        if roll < 0.50:
            p.ops.append((GET, key(i), None))
            p.expect.append((i, version[i]))
        elif roll < 0.95:
            version[i] += 1
            p.ops.append((PUT, key(i), value(i, version[i])))
            p.expect.append(None)
            p.written[i] = version[i]
        else:
            start = key(i)
            pos = bisect.bisect_left(sorted_keys, start)
            p.ops.append((SCAN, start, SCAN_LIMIT))
            p.expect.append([(j, version[j])
                             for j in by_key[pos:pos + SCAN_LIMIT]])


def _plan_wire(p: Plan, rng, seed, loaded, n) -> None:
    """Connection c writes only indices = c (mod connections), so its own
    keys have a known version at every burst; a key of the other
    connection may hold any version that connection ever writes.  Within
    one burst the server may run requests out of order, so an own key
    written in the same burst may read as the version before or after."""
    p.store_kwargs = {"shards": WIRE_SHARDS, "router": "hash"}
    by_key = sorted(range(loaded), key=key)
    sorted_keys = [key(i) for i in by_key]
    final = [0] * loaded
    per_conn = []
    for conn in range(WIRE_CONNECTIONS):
        crng = random.Random(f"wire/{seed}/{conn}")
        quota = n // WIRE_CONNECTIONS + (conn < n % WIRE_CONNECTIONS)
        requests = []
        set_in_burst: set[int] = set()
        for at in range(quota):
            if at % WIRE_PIPELINE == 0:
                set_in_burst.clear()
            roll = crng.random()
            if roll < 0.02:
                requests.append((SCAN, crng.randrange(loaded)))
            elif roll < 0.10:
                # two SETs of one key in one burst could land in either
                # order, leaving the model ambiguous: draw again
                while True:
                    i = (crng.randrange(loaded // WIRE_CONNECTIONS)
                         * WIRE_CONNECTIONS + conn)
                    if i not in set_in_burst:
                        break
                set_in_burst.add(i)
                requests.append((PUT, i))
                final[i] += 1
            else:
                requests.append((GET, crng.randrange(loaded)))
        per_conn.append(requests)

    def bounds(i, conn, before):
        if i % WIRE_CONNECTIONS == conn:
            return (i, before.get(i, version[i]), version[i])
        return (i, 0, final[i])

    for conn, requests in enumerate(per_conn):
        version = [0] * loaded
        bursts, expect = [], []
        for at in range(0, len(requests), WIRE_PIPELINE):
            chunk = requests[at:at + WIRE_PIPELINE]
            before: dict[int, int] = {}
            commands = []
            for kind, i in chunk:
                if kind == PUT:
                    before.setdefault(i, version[i])
                    version[i] += 1
                    commands.append([b"SET", key(i), value(i, version[i])])
                elif kind == GET:
                    commands.append([b"GET", key(i)])
                else:
                    commands.append([b"SCAN", key(i), b"",
                                     b"%d" % WIRE_SCAN_LIMIT])
            for kind, i in chunk:
                if kind == PUT:
                    expect.append(None)
                elif kind == GET:
                    expect.append(bounds(i, conn, before))
                else:
                    pos = bisect.bisect_left(sorted_keys, key(i))
                    expect.append([bounds(j, conn, before)
                                   for j in by_key[pos:pos + WIRE_SCAN_LIMIT]])
            bursts.append(commands)
        p.ops.append(bursts)
        p.expect.append(expect)
    p.written = {i: v for i, v in enumerate(final) if v}


_PLANNERS = {
    "fillrandom": _plan_fillrandom,
    "readrandom": _plan_readrandom,
    "mixed": _plan_mixed,
    "wire": _plan_wire,
}


# -- the program's entry points, one function per user op ---------------------
# (module-level so the traced run can wrap them as the root span of an op)

def op_put(store, k, v):
    return store.put(k, v)


def op_get(store, k):
    return store.get(k)


def op_scan(store, start, limit):
    return list(store.scan(start, limit=limit))


@dataclass
class Timed:
    wall_s: float
    #: host ns per op (per request on wire: the round trip of its burst)
    latencies_ns: list[int]
    #: simulated seconds per op, traced in-process runs only
    sim_latencies_s: list[float]
    replies: list


def run_inprocess(store, p: Plan, sim_clock=None) -> Timed:
    """One caller, closed loop.  ``sim_clock`` (traced run only) adds a
    simulated-latency sample per op."""
    now = time.perf_counter_ns
    lat: list[int] = []
    sim: list[float] = []
    replies: list = []
    put, get, scan = op_put, op_get, op_scan
    began = time.perf_counter()
    for kind, k, arg in p.ops:
        if sim_clock is not None:
            s0 = sim_clock.now
        t0 = now()
        try:
            if kind == GET:
                reply = get(store, k)
            elif kind == PUT:
                reply = put(store, k, arg)
            else:
                reply = scan(store, k, arg)
        except Exception as exc:  # counted as a failed op by verify()
            reply = exc
        lat.append(now() - t0)
        if sim_clock is not None:
            sim.append(sim_clock.now - s0)
        replies.append(reply)
    if p.flush_at_end:
        store.flush()
    return Timed(time.perf_counter() - began, lat, sim, replies)


def run_wire(address, p: Plan) -> Timed:
    """Two connections, closed loop, one burst of WIRE_PIPELINE requests
    outstanding per connection."""
    from repro.net import NetClient

    clients = [NetClient(*address) for _ in p.ops]
    results: list = [None] * len(clients)

    def worker(conn: int) -> None:
        client = clients[conn]
        lat: list[int] = []
        replies: list = []
        now = time.perf_counter_ns
        try:
            for burst in p.ops[conn]:
                t0 = now()
                got = client.execute_pipeline(burst)
                rtt = now() - t0
                lat.extend([rtt] * len(burst))
                replies.extend(got)
        except Exception as exc:  # a dead connection fails the rest
            missing = sum(len(b) for b in p.ops[conn]) - len(replies)
            replies.extend([exc] * missing)
        results[conn] = (lat, replies)

    threads = [threading.Thread(target=worker, args=(c,), name=f"client-{c}")
               for c in range(len(clients))]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    for client in clients:
        client.quit()
        client.close()
    return Timed(wall, [ns for lat, _ in results for ns in lat], [],
                 [replies for _, replies in results])


# -- checking replies against the model ---------------------------------------

def _value_ok(got, index: int, lo: int, hi: int) -> bool:
    return any(got == value(index, v) for v in range(lo, hi + 1))


def _check(reply, want) -> bool:
    """``want``: None (a write, or a read of a missing key), an
    (index, version) pair, an (index, lo, hi) version range, or a list of
    either for a scan."""
    if isinstance(reply, Exception):
        return False
    if want is None:
        return reply is None
    if isinstance(want, tuple):
        index, lo = want[0], want[1]
        return _value_ok(reply, index, lo, want[-1])
    if len(reply) != len(want):
        return False
    previous = None
    for (k, v), (index, lo, *rest) in zip(reply, want):
        if k != key(index) or (previous is not None and k <= previous):
            return False
        if not _value_ok(v, index, lo, rest[0] if rest else lo):
            return False
        previous = k
    return True


def verify(p: Plan, timed: Timed) -> int:
    """Number of replies that disagree with the model."""
    if p.workload != "wire":
        return sum(not _check(reply, want)
                   for reply, want in zip(timed.replies, p.expect))
    failed = 0
    for bursts, replies, expect in zip(p.ops, timed.replies, p.expect):
        commands = [c for burst in bursts for c in burst]
        for command, reply, want in zip(commands, replies, expect):
            if command[0] == b"SET":
                ok = reply == "OK"
            elif command[0] == b"SCAN":
                ok = (isinstance(reply, list) and len(reply) == 2
                      and reply[0] == 0
                      and _check(list(zip(reply[1][::2], reply[1][1::2])),
                                 want))
            else:
                ok = _check(reply, want)
            failed += not ok
    return failed


def refused(timed: Timed) -> int:
    """Wire replies that were an error (-OVERLOADED/-UNAVAILABLE/-ERR)."""
    return sum(isinstance(reply, Exception)
               for replies in timed.replies for reply in replies)


def durability_sample(p: Plan, seed: int) -> list[tuple[bytes, bytes]]:
    """A seeded sample of acknowledged writes (of preloaded records when
    the timed phase wrote nothing) with the value each must still hold
    after a crash-restart."""
    if p.written:
        items = sorted(p.written.items())
    else:
        items = [(i, 0) for i in range(len(p.preload))]
    rng = random.Random(f"durability/{seed}")
    picked = rng.sample(items, min(DURABILITY_SAMPLE, len(items)))
    return [(key(i), value(i, v)) for i, v in picked]
