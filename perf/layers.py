"""Metric formulas: public counters in, named metrics out.

Counts come from the program's own public counters (``DBStats``,
``DriveStats``, ``AmplificationTracker``, ``LRUCache.hits/misses``,
compaction and flush records, the band manager and the set registry),
snapshotted before and after the timed phase.  Host times come from the
traced run's spans.  Names and units are declared in ``BENCHMARK.json``;
``run.py`` refuses a run whose names do not match it.
"""

from __future__ import annotations

import math
import statistics

from workloads import ENTRY_BYTES

P99_SEGMENTS = 10

#: snapshot keys that are levels, not running totals
GAUGES = {"footprint", "band_count", "free_bytes", "fragment_bytes",
          "sets_live", "set_members", "sets_dead_bytes", "files_live",
          "levels_used", "table_bytes_live"}


def snapshot(store) -> list[dict]:
    """One row of counters per shard (a single store is one shard)."""
    rows = []
    for s in getattr(store, "shards", None) or [store]:
        drive, stats, tracker = s.drive.stats, s.stats, s.tracker
        manager, registry = s.band_manager, s.set_registry
        cache = s.db.block_cache
        written = drive.bytes_written_by_category
        records = s.compaction_records
        real = [r for r in records if not r.trivial_move]
        levels = s.level_summary()
        rows.append({
            "puts": stats.puts, "gets": stats.gets, "scans": stats.scans,
            "get_hits": stats.get_hits,
            "tables_opened": stats.tables_opened,
            "read_retries": stats.read_retries,
            "user_bytes": tracker.user_bytes, "lsm_bytes": tracker.lsm_bytes,
            "cache_hits": cache.hits, "cache_misses": cache.misses,
            "bytes_read": drive.bytes_read,
            "bytes_written": drive.bytes_written,
            "read_ops": drive.read_ops, "write_ops": drive.write_ops,
            "seeks": drive.seeks, "busy_s": drive.busy_time,
            "rmw_count": drive.rmw_count,
            "table_bytes_written": written.get("table", 0),
            "wal_bytes": written.get("wal", 0),
            "meta_bytes": written.get("meta", 0),
            "band_appends": manager.appends, "band_inserts": manager.inserts,
            "band_splits": manager.splits,
            "band_coalesces": manager.coalesces,
            "flushes": len(s.db.flush_records),
            "flush_sim_s": sum(r.end_time - r.start_time
                               for r in s.db.flush_records),
            "compactions": len(records),
            "trivial_moves": len(records) - len(real),
            "compaction_sim_s": sum(r.latency for r in records),
            "compaction_bytes_in": sum(r.input_bytes for r in real),
            "compaction_bytes_out": sum(r.output_bytes for r in real),
            "sim_now": s.now,
            "footprint": manager.tail - manager.data_start,
            "band_count": len(manager.bands()),
            "free_bytes": manager.free_bytes(),
            "fragment_bytes": sum(f.length for f in s.fragments()),
            "sets_live": len(registry),
            "set_members": sum(i.num_members for i in registry.live_sets()),
            "sets_dead_bytes": registry.dead_bytes(),
            "files_live": sum(n for _l, n, _b in levels),
            "levels_used": sum(1 for _l, n, _b in levels if n),
            "table_bytes_live": sum(b for _l, _n, b in levels),
        })
    return rows


def deltas(before: list[dict], after: list[dict]) -> list[dict]:
    """Per shard: totals become what the timed phase added, gauges stay
    as they stood at its end."""
    return [{k: (a[k] if k in GAUGES else a[k] - b[k]) for k in a}
            for b, a in zip(before, after)]


def _totals(shards: list[dict]):
    """``total(key)``: one counter summed over the shards."""
    return lambda key: sum(row[key] for row in shards)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def steady_p99(latencies_ns: list[int]) -> float:
    """Median of the 99th percentiles of P99_SEGMENTS equal, consecutive
    slices of the run.  One noisy second on the host, or the cold start
    of the first slice, moves one slice and not the median; a slower
    program moves them all.  (The whole-run tail is
    ``lsm.stall.host_p999_us``.)"""
    size = len(latencies_ns) // P99_SEGMENTS
    return statistics.median(
        percentile(sorted(latencies_ns[i * size:(i + 1) * size]), 0.99)
        for i in range(P99_SEGMENTS))


def end_to_end(store, shards: list[dict], ops: int, wall_s: float,
               latencies_ns: list[int], live_keys: int) -> dict:
    """The end-to-end metrics one run can know by itself (``setup_s`` and
    ``peak_rss_mib`` are added by the child)."""
    total = _totals(shards)
    return {
        "host_ops_per_s": ops / wall_s,
        "host_p50_us": statistics.median(latencies_ns) / 1e3,
        "host_p99_us": steady_p99(latencies_ns) / 1e3,
        # device-parallel convention: the busiest shard sets the time
        "sim_ops_per_s": _ratio(ops, max(row["sim_now"] for row in shards)),
        "mwa": store.mwa(),
        "dev_read_bytes_per_op": total("bytes_read") / ops,
        "space_amp": total("footprint") / (live_keys * ENTRY_BYTES),
    }


def count_metrics(store, shards: list[dict], ops: int, wall_s: float,
                  latencies_ns: list[int], live_keys: int, cpu_s: float,
                  sys_s: float, refused: int, on_wire: bool) -> dict:
    """Per-layer metrics that need no span: program counters and the
    untraced run's own samples."""
    total = _totals(shards)
    lat = sorted(latencies_ns)
    gets = total("gets")
    allocs = total("band_appends") + total("band_inserts")
    footprint = total("footprint")
    live_bytes = live_keys * ENTRY_BYTES
    per_shard_ops = [row["puts"] + row["gets"] + row["scans"]
                     for row in shards]
    sim = [row["sim_now"] for row in shards]
    out = {
        "net.refused": refused,
        "shard.imbalance": _ratio(max(per_shard_ops),
                                  sum(per_shard_ops) / len(shards)),
        "shard.sim_s_max": max(sim),
        "shard.sim_s_sum": sum(sim),
        "lsm.stall.host_p999_us": percentile(lat, 0.999) / 1e3,
        "lsm.wal.bytes_per_user_byte": _ratio(total("wal_bytes"),
                                              total("user_bytes")),
        "lsm.flush.count": total("flushes"),
        "lsm.flush.sim_s": total("flush_sim_s"),
        "lsm.compaction.count": total("compactions"),
        "lsm.compaction.trivial_moves": total("trivial_moves"),
        "lsm.compaction.sim_s": total("compaction_sim_s"),
        "lsm.compaction.bytes_in": total("compaction_bytes_in"),
        "lsm.compaction.bytes_out": total("compaction_bytes_out"),
        "lsm.wa": store.wa(),
        "lsm.sstable.tables_opened": total("tables_opened"),
        "lsm.cache.hit_rate": _ratio(
            total("cache_hits"), total("cache_hits") + total("cache_misses")),
        "lsm.cache.lookups_per_get": _ratio(
            total("cache_hits") + total("cache_misses"), gets),
        "lsm.read_retries": total("read_retries"),
        "lsm.space_amp": total("table_bytes_live") / live_bytes,
        "lsm.version.files_live": total("files_live"),
        "lsm.version.levels_used": max(row["levels_used"] for row in shards),
        "fs.wal_bytes": total("wal_bytes"),
        "fs.meta_bytes": total("meta_bytes"),
        "core.band.allocs": allocs,
        "core.band.reuse_share": _ratio(total("band_inserts"), allocs),
        "core.band.splits": total("band_splits"),
        "core.band.coalesces": total("band_coalesces"),
        "core.band.count": total("band_count"),
        "core.band.fragment_bytes": total("fragment_bytes"),
        "core.band.free_bytes": total("free_bytes"),
        "core.sets.live": total("sets_live"),
        "core.sets.mean_members": _ratio(total("set_members"),
                                         total("sets_live")),
        "core.sets.dead_bytes": total("sets_dead_bytes"),
        "core.dead_share": _ratio(footprint - total("table_bytes_live"),
                                  footprint),
        "smr.read_ops": total("read_ops"),
        "smr.write_ops": total("write_ops"),
        "smr.seeks": total("seeks"),
        "smr.seeks_per_op": total("seeks") / ops,
        "smr.bytes_read": total("bytes_read"),
        "smr.bytes_written": total("bytes_written"),
        "smr.mean_write_kib": _ratio(total("bytes_written") / 1024,
                                     total("write_ops")),
        "smr.busy_sim_s": total("busy_s"),
        "smr.rmw_count": total("rmw_count"),
        "smr.awa": store.awa(),
        "host.timed_s": wall_s,
        "host.cpu_s": cpu_s,
        "host.sys_s": sys_s,
    }
    if not on_wire:
        for name in out:
            if name.startswith(("net.", "shard.")):
                out[name] = 0
    return out


class Spans:
    """Lookups over one phase of a tracer export, summed over parents
    and threads."""

    def __init__(self, export: dict, phase: str) -> None:
        self.rows = export["phases"].get(phase, {"spans": []})["spans"]

    def sum(self, field: str, *names: str, prefix: str | None = None,
            top_level: bool = False) -> float:
        return sum(
            row[field] for row in self.rows
            if (row["name"] in names
                or (prefix is not None and row["name"].startswith(prefix)))
            and (not top_level or row["parent"] == "root"))

    def per_call_us(self, name: str) -> float:
        return _ratio(self.sum("host_total_s", name) * 1e6,
                      self.sum("count", name))

    def layers(self, wall_s: float) -> dict[str, float]:
        """Share of the timed wall spent in each layer's own code (self
        time; a layer is a span name without its last component)."""
        shares: dict[str, float] = {}
        for row in self.rows:
            layer = row["name"].rpartition(".")[0] or "(outside spans)"
            if not row["name"].endswith(".lock_for"):
                shares[layer] = shares.get(layer, 0.0) + row["host_self_s"]
        return {layer: s / wall_s for layer, s in
                sorted(shares.items(), key=lambda kv: -kv[1])}


_FACADE_OPS = ("put", "get", "delete", "scan", "flush", "write_batch")


def time_metrics(export: dict, shards: list[dict], ops: int, wall_s: float,
                 scan_keys: int, sim_latencies_s: list[float],
                 codec: tuple[float, float] | None) -> dict:
    """Per-layer metrics read off the traced run's spans.  ``codec`` is
    (microseconds, bytes) per request from the offline replay, wire only."""
    timed, setup = Spans(export, "timed"), Spans(export, "setup")
    total = _totals(shards)
    s = timed.sum
    gets = total("gets")
    compaction_s = s("host_total_s", "lsm.compaction.run_compaction")
    moved_kib = (total("compaction_bytes_in")
                 + total("compaction_bytes_out")) / 1024
    build_s = s("host_total_s", prefix="lsm.sstable.build.")
    out = {
        "kvstore.self_us_per_op": s(
            "host_self_s", *(f"kvstore.{m}" for m in _FACADE_OPS)) * 1e6 / ops,
        "lsm.db.write_self_us": _ratio(s("host_self_s", "lsm.db.write") * 1e6,
                                       s("count", "lsm.db.write")),
        "lsm.db.get_self_us": _ratio(s("host_self_s", "lsm.db.get") * 1e6,
                                     s("count", "lsm.db.get")),
        "lsm.db.scan_us_per_key": _ratio(
            s("host_total_s", "op.scan", "shard.scan.next") * 1e6, scan_keys),
        "lsm.stall.sim_p999_ms": percentile(sorted(sim_latencies_s),
                                            0.999) * 1e3,
        "lsm.memtable.add_us": timed.per_call_us("lsm.memtable.add"),
        "lsm.memtable.get_us": timed.per_call_us("lsm.memtable.get"),
        "lsm.memtable.hit_share": _ratio(s("hits", "lsm.memtable.get"), gets),
        "lsm.wal.append_us": timed.per_call_us("lsm.wal.add_record"),
        "lsm.flush.host_s": s("host_total_s", "lsm.flush.flush") - compaction_s,
        "lsm.compaction.host_s": compaction_s,
        "lsm.compaction.host_share": compaction_s / wall_s,
        "lsm.compaction.host_us_per_kib": _ratio(compaction_s * 1e6,
                                                 moved_kib),
        "lsm.sstable.build_us_per_kib": _ratio(build_s * 1e6,
                                               total("lsm_bytes") / 1024),
        "lsm.sstable.get_us": timed.per_call_us("lsm.sstable.get"),
        "lsm.sstable.probes_per_get": _ratio(s("count", "lsm.sstable.get"),
                                             gets),
        "lsm.bloom.negative_share": _ratio(
            s("hits", "lsm.bloom.may_contain"),
            s("count", "lsm.bloom.may_contain")),
        "fs.manifest_append_us": timed.per_call_us("fs.append_meta_record"),
        "core.storage.host_s": s("host_self_s", prefix="core.storage."),
        "smr.init_s": setup.sum("host_total_s", "smr.drive.init"),
        "smr.host_s": s("host_self_s", "smr.drive.read", "smr.drive.write",
                        "smr.drive.write_buffered", "smr.drive.trim"),
    }
    store_s = s("host_total_s", *(f"shard.{m}" for m in _FACADE_OPS),
                "shard.scan.next", "shard.scan.close")
    if codec is None:
        # one caller: whatever no span covers is the benchmark's own loop
        attributed = s("host_total_s", prefix="", top_level=True)
        out.update({name: 0 for name in (
            "net.codec_us_per_req", "net.server_self_us_per_req",
            "net.lock_wait_us_per_req", "net.store_us_per_req",
            "net.bytes_per_req", "shard.self_us_per_op")})
    else:
        # several threads: store calls are what is attributed, the rest of
        # the wall is the server, the sockets and the clients
        attributed = store_s
        codec_us, wire_bytes = codec
        per_req_us = wall_s * 1e6 / ops
        out.update({
            "net.codec_us_per_req": codec_us,
            "net.store_us_per_req": store_s * 1e6 / ops,
            "net.lock_wait_us_per_req": s(
                "host_total_s", "shard.lock_for", "kvstore.lock_for",
                top_level=True) * 1e6 / ops,
            "net.server_self_us_per_req": max(
                0.0, per_req_us - codec_us - store_s * 1e6 / ops),
            "net.bytes_per_req": wire_bytes,
            "shard.self_us_per_op": s(
                "host_self_s", *(f"shard.{m}" for m in _FACADE_OPS),
                "shard.scan.next", "shard.scan.close") * 1e6 / ops,
        })
    out["host.unattributed_share"] = max(0.0, 1.0 - attributed / wall_s)
    return out
