"""Span tracer for the traced benchmark run.

The program has no spans of its own yet, so the benchmark records them
from outside: :meth:`Tracer.install` replaces the public methods named
in :func:`targets` with class-level wrappers, in the child process
only.  Each call becomes a span -- name, parent, host start/end and the
simulated-clock delta -- and spans are aggregated in memory in a call
tree per thread (count, host total, simulated total; self = total minus
children is derived when the tree is exported).  A seeded 1-in-1000
sample of top-level spans (one per user op, numbered per thread) keeps
its full span tree.  Nothing is written until the run ends.

Two clocks: host time is ``perf_counter_ns``; simulated time is the
``SimClock`` of the store the span runs in.  Classes that know their
drive publish it through ``clock_of``; the classes below them (memtable,
WAL writer, bloom, cache, table builder) inherit the clock of the
enclosing span.
"""

from __future__ import annotations

import random
import threading
import time

SAMPLE_ONE_IN = 1000


class Node:
    """One call-tree position: every span with this name under this
    parent chain, on one thread."""

    __slots__ = ("name", "parent", "children", "count", "host_ns", "sim_s",
                 "hits", "root")

    def __init__(self, name: str, parent: "Node | None", root: bool = False):
        self.name = name
        self.parent = parent
        self.children: dict[str, Node] = {}
        self.count = 0
        self.host_ns = 0
        self.sim_s = 0.0
        self.hits = 0          # calls whose result satisfied ``hit_of``
        self.root = root


class _ThreadState(threading.local):
    cur = None          # innermost open span's node
    clock = None        # SimClock of the enclosing store
    rec = None          # span list of the op being sampled, or None
    depth = 0
    seq = 0             # top-level spans seen on this thread
    next_sample = 0     # the ``seq`` at which the next op is sampled
    rng = None          # this thread's seeded stream of sampling gaps


class Tracer:
    def __init__(self, seed: int) -> None:
        self._tl = _ThreadState()
        self._seed = seed
        self._lock = threading.Lock()
        self._phase = "idle"
        #: phase -> list of (thread name, root node)
        self.roots: dict[str, list[tuple[str, Node]]] = {}
        #: sampled ops: {"phase", "op": ordinal, "thread", "spans": [...]}
        self.samples: list[dict] = []
        self._epoch_ns = time.perf_counter_ns()

    # -- phases and roots ---------------------------------------------------

    def phase(self, name: str) -> Node:
        """Start aggregating into a fresh tree; returns the calling
        thread's root, which the caller closes with :meth:`end_phase`."""
        self._phase = name
        self._tl.cur = None
        return self._thread_root()

    def end_phase(self, root: Node, host_ns: int) -> None:
        root.count = 1
        root.host_ns = host_ns
        self._tl.cur = None
        self._phase = "idle"

    def _thread_root(self) -> Node:
        tl = self._tl
        root = Node("root", None, root=True)
        thread = threading.current_thread().name
        with self._lock:
            self.roots.setdefault(self._phase, []).append((thread, root))
            # one seeded stream per thread, in order of first appearance
            rng = random.Random(f"{self._seed}/{len(self.roots[self._phase])}")
        tl.cur = root
        tl.clock = None
        tl.rec = None
        tl.depth = 0
        tl.seq = 0
        tl.rng = rng
        tl.next_sample = 1 + int(rng.expovariate(1.0 / SAMPLE_ONE_IN))
        return root

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name: str, clock_of=None, hit_of=None):
        """``fn`` recorded as a span called ``name``."""
        tl = self._tl
        now_ns = time.perf_counter_ns
        thread_root = self._thread_root
        samples = self.samples
        epoch = self._epoch_ns

        def traced(*args, **kwargs):
            parent = tl.cur
            if parent is None:
                parent = thread_root()
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name, parent)
            rec = tl.rec
            if parent.root:
                tl.seq += 1
                if tl.seq >= tl.next_sample:
                    rec = tl.rec = []
                    tl.next_sample = tl.seq + 1 + int(
                        tl.rng.expovariate(1.0 / SAMPLE_ONE_IN))
            outer_clock = clock = tl.clock
            if clock_of is not None:
                clock = tl.clock = clock_of(args[0])
            sim0 = clock.now if clock is not None else 0.0
            if rec is not None:
                entry = [name, tl.depth, 0, 0, 0.0]
                rec.append(entry)
                tl.depth += 1
            tl.cur = node
            t0 = now_ns()
            try:
                result = fn(*args, **kwargs)
                if hit_of is not None and hit_of(result):
                    node.hits += 1
                return result
            finally:
                t1 = now_ns()
                sim = (clock.now - sim0) if clock is not None else 0.0
                node.count += 1
                node.host_ns += t1 - t0
                node.sim_s += sim
                tl.cur = parent
                tl.clock = outer_clock
                if rec is not None:
                    entry[2] = t0 - epoch
                    entry[3] = t1 - epoch
                    entry[4] = sim
                    tl.depth -= 1
                    if parent.root:
                        samples.append({
                            "phase": self._phase, "op": tl.seq,
                            "thread": threading.current_thread().name,
                            "spans": rec})
                        tl.rec = None

        return traced

    def wrap_lock_for(self, fn, name: str):
        """``lock_for`` returns a context manager; the wait is the time
        blocked in its ``__enter__``, so that is what the span covers."""
        enter = self.wrap(lambda lock: lock.__enter__(), name)

        class TimedLock:
            __slots__ = ("_lock",)

            def __init__(self, lock) -> None:
                self._lock = lock

            def __enter__(self):
                enter(self._lock)
                return self

            def __exit__(self, exc_type, exc, tb):
                return self._lock.__exit__(exc_type, exc, tb)

        def lock_for(store, key=None):
            return TimedLock(fn(store, key))

        return lock_for

    def install(self) -> None:
        for cls, method, name, clock_of, hit_of in targets():
            fn = getattr(cls, method)
            if method == "lock_for":
                setattr(cls, method, self.wrap_lock_for(fn, name))
            else:
                setattr(cls, method, self.wrap(fn, name, clock_of, hit_of))

    # -- export ---------------------------------------------------------------

    def export(self) -> dict:
        """Everything recorded, as plain data (see perf/README.md)."""
        phases = {}
        for phase, roots in self.roots.items():
            rows: dict[tuple[str, str], dict] = {}
            trees = []
            for thread, root in roots:
                _finish_sim(root)
                _aggregate(root, rows)
                trees.append({"thread": thread, "tree": _tree(root)})
            phases[phase] = {
                "spans": sorted(rows.values(),
                                key=lambda r: -r["host_self_s"]),
                "threads": trees,
            }
        return {"phases": phases, "sample_one_in": SAMPLE_ONE_IN,
                "samples": [
                    {"phase": s["phase"], "op": s["op"], "thread": s["thread"],
                     "spans": [{"name": n, "depth": d, "host_start_ns": a,
                                "host_end_ns": b, "sim_s": sim}
                               for n, d, a, b, sim in s["spans"]]}
                    for s in self.samples]}


def _finish_sim(node: Node) -> float:
    """A span above every clock (sharded facade, lock wait) measured no
    simulated time itself: give it the sum of its children's."""
    below = sum(_finish_sim(child) for child in node.children.values())
    if node.sim_s == 0.0:
        node.sim_s = below
    return node.sim_s


def _self(node: Node) -> tuple[int, float]:
    host = node.host_ns - sum(c.host_ns for c in node.children.values())
    sim = node.sim_s - sum(c.sim_s for c in node.children.values())
    return host, sim


def _aggregate(node: Node, rows: dict) -> None:
    key = (node.name, node.parent.name if node.parent is not None else "")
    row = rows.get(key)
    if row is None:
        row = rows[key] = {"name": key[0], "parent": key[1], "count": 0,
                           "hits": 0, "host_total_s": 0.0, "host_self_s": 0.0,
                           "sim_total_s": 0.0, "sim_self_s": 0.0}
    host_self, sim_self = _self(node)
    row["count"] += node.count
    row["hits"] += node.hits
    row["host_total_s"] += node.host_ns / 1e9
    row["host_self_s"] += host_self / 1e9
    row["sim_total_s"] += node.sim_s
    row["sim_self_s"] += sim_self
    for child in node.children.values():
        _aggregate(child, rows)


def _tree(node: Node) -> dict:
    host_self, sim_self = _self(node)
    return {"name": node.name, "count": node.count,
            "host_total_s": node.host_ns / 1e9, "host_self_s": host_self / 1e9,
            "sim_total_s": node.sim_s, "sim_self_s": sim_self,
            "children": [_tree(c) for c in node.children.values()]}


def targets():
    """(class, method, span name, clock_of, hit_of) for every wrapper.

    Span names are ``<layer>.<call>``; the layer prefix is what
    ``layers.py`` groups by.  The list is the program's public surface
    at each layer boundary and nothing finer: no per-entry loop is
    wrapped except the ones the issue names (``SSTableBuilder.add``,
    ``Memtable.add``).
    """
    from repro.core.dynamic_band import DynamicBandManager
    from repro.core.storage import DynamicBandStorage
    from repro.kvstore import KVStoreBase
    from repro.lsm.bloom import BloomFilter
    from repro.lsm.cache import LRUCache
    from repro.lsm.db import DB
    from repro.lsm.memtable import Memtable
    from repro.lsm.sstable import SSTableBuilder, SSTableReader
    from repro.lsm.wal import LogWriter
    from repro.shard.store import ShardedScan, ShardedStore
    from repro.smr.raw_hmsmr import RawHMSMRDrive

    def of_drive(obj):
        return obj.drive.clock

    def of_self(obj):
        return obj.clock

    def found(result):
        return result[0]

    def negative(result):
        return not result

    rows = []

    def add(cls, prefix, methods, clock_of=None, hit_of=None):
        for method in methods:
            rows.append((cls, method, f"{prefix}.{method.strip('_')}",
                         clock_of, hit_of))

    add(ShardedStore, "shard",
        ["put", "get", "delete", "scan", "flush", "write_batch", "reopen"])
    add(ShardedScan, "shard.scan", ["__next__", "close"])
    add(ShardedStore, "shard", ["lock_for"])
    add(KVStoreBase, "kvstore",
        ["put", "get", "delete", "scan", "flush", "write_batch", "reopen"],
        of_drive)
    add(KVStoreBase, "kvstore", ["lock_for"])
    add(DB, "lsm.db", ["write", "get", "scan"], of_drive)
    add(DB, "lsm.flush", ["flush"], of_drive)
    add(DB, "lsm.compaction", ["run_compaction"], of_drive)
    add(Memtable, "lsm.memtable", ["add"])
    add(Memtable, "lsm.memtable", ["get"], hit_of=found)
    add(LogWriter, "lsm.wal", ["add_record"])
    add(SSTableBuilder, "lsm.sstable.build", ["add", "finish"])
    add(SSTableReader, "lsm.sstable", ["get", "prefetch"])
    add(BloomFilter, "lsm.bloom", ["may_contain"], hit_of=negative)
    add(LRUCache, "lsm.cache", ["get"])
    add(DynamicBandStorage, "fs",
        ["append_log", "reset_log", "read_log_bytes", "append_meta_record",
         "read_meta_records", "reset_meta"], of_drive)
    add(DynamicBandStorage, "core.storage",
        ["write_files", "read_file", "delete_files", "delete_file"], of_drive)
    add(DynamicBandManager, "core.band", ["allocate", "free"], of_drive)
    add(RawHMSMRDrive, "smr.drive",
        ["__init__", "read", "write", "write_buffered", "trim"])
    return rows
