"""Operation traces: record, save, load, and replay workloads.

Production KV studies (and the paper's YCSB runs) are driven by
operation streams.  This module gives the reproduction a trace layer:

* :class:`TraceRecorder` wraps any store and logs every operation;
* traces serialize to a compact line format (``P key value`` /
  ``D key`` / ``G key`` / ``S start limit``), gzip-friendly and
  diffable;
* :func:`replay` runs a trace against a store and reports throughput;
* :class:`ChurnTraceGenerator` synthesizes a trace with a configurable
  working set that drifts over time -- the update-churn pattern that
  ages LSM trees (useful for long-running fragment studies).
"""

from __future__ import annotations

import base64
import pathlib
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ReproError
from repro.kvstore import KVStoreBase
from repro.util.rng import make_rng
from repro.workloads.generators import KeyValueGenerator

def _b64(data: bytes) -> str:
    """Base64 with a '-' sentinel so empty fields survive split()."""
    return base64.b64encode(data).decode() or "-"


def _unb64(token: str) -> bytes:
    return b"" if token == "-" else base64.b64decode(token)


OP_PUT = "P"
OP_DELETE = "D"
OP_GET = "G"
OP_SCAN = "S"


@dataclass(frozen=True)
class TraceOp:
    """One operation.  ``value`` is None except for puts; scans use
    ``key`` as the start key and ``limit``."""

    kind: str
    key: bytes
    value: bytes | None = None
    limit: int = 0

    def encode(self) -> str:
        k = _b64(self.key)
        if self.kind == OP_PUT:
            return f"P {k} {_b64(self.value or b'')}"
        if self.kind == OP_DELETE:
            return f"D {k}"
        if self.kind == OP_GET:
            return f"G {k}"
        if self.kind == OP_SCAN:
            return f"S {k} {self.limit}"
        raise ReproError(f"unknown op kind {self.kind!r}")

    @classmethod
    def decode(cls, line: str) -> "TraceOp":
        parts = line.split()
        if not parts:
            raise ReproError("empty trace line")
        kind = parts[0]
        try:
            if kind == OP_PUT:
                return cls(OP_PUT, _unb64(parts[1]), _unb64(parts[2]))
            if kind == OP_DELETE:
                return cls(OP_DELETE, _unb64(parts[1]))
            if kind == OP_GET:
                return cls(OP_GET, _unb64(parts[1]))
            if kind == OP_SCAN:
                return cls(OP_SCAN, _unb64(parts[1]), limit=int(parts[2]))
        except (IndexError, ValueError) as exc:
            raise ReproError(f"malformed trace line {line!r}") from exc
        raise ReproError(f"unknown trace op {kind!r}")


def save_trace(ops: Iterable[TraceOp], path: str | pathlib.Path) -> int:
    """Write ops to ``path``; returns the number written."""
    count = 0
    with open(path, "w") as fh:
        for op in ops:
            fh.write(op.encode() + "\n")
            count += 1
    return count


def load_trace(path: str | pathlib.Path) -> Iterator[TraceOp]:
    """Stream ops back from ``path``."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                yield TraceOp.decode(line)


@dataclass
class ReplayResult:
    ops: int = 0
    puts: int = 0
    deletes: int = 0
    gets: int = 0
    get_hits: int = 0
    scans: int = 0
    sim_seconds: float = 0.0

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.sim_seconds if self.sim_seconds > 0 else 0.0


def replay(store: KVStoreBase, ops: Iterable[TraceOp]) -> ReplayResult:
    """Run a trace against ``store`` on the simulated clock."""
    result = ReplayResult()
    start = store.now
    for op in ops:
        result.ops += 1
        if op.kind == OP_PUT:
            store.put(op.key, op.value or b"")
            result.puts += 1
        elif op.kind == OP_DELETE:
            store.delete(op.key)
            result.deletes += 1
        elif op.kind == OP_GET:
            if store.get(op.key) is not None:
                result.get_hits += 1
            result.gets += 1
        elif op.kind == OP_SCAN:
            for _pair in store.scan(start=op.key, limit=op.limit or 10):
                pass
            result.scans += 1
        else:  # pragma: no cover - decode() rejects unknown kinds
            raise ReproError(f"unknown trace op {op.kind!r}")
    result.sim_seconds = store.now - start
    return result


class TraceRecorder:
    """Transparent store wrapper that records every operation.

    Construct with an existing store; use like the store (every
    attribute but the four recorded operations is the inner store's);
    take the recorded ops from :attr:`trace`.
    """

    def __init__(self, inner: KVStoreBase) -> None:
        self._inner = inner
        self.trace: list[TraceOp] = []

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *_exc) -> None:
        self._inner.close()

    def put(self, key: bytes, value: bytes) -> None:
        self.trace.append(TraceOp(OP_PUT, bytes(key), bytes(value)))
        self._inner.put(key, value)

    def delete(self, key: bytes) -> None:
        self.trace.append(TraceOp(OP_DELETE, bytes(key)))
        self._inner.delete(key)

    def get(self, key: bytes) -> bytes | None:
        self.trace.append(TraceOp(OP_GET, bytes(key)))
        return self._inner.get(key)

    def scan(self, start: bytes | None = None, end: bytes | None = None,
             limit: int | None = None):
        self.trace.append(TraceOp(OP_SCAN, bytes(start or b""),
                                  limit=limit or 0))
        return self._inner.scan(start, end, limit)


@dataclass
class ChurnTraceGenerator:
    """Synthesizes an update-churn trace with a drifting working set.

    At any moment the writer updates keys inside a window of
    ``working_set`` keys; the window slides forward by ``drift`` keys
    after every ``ops_per_phase`` operations, retiring old keys with
    deletes.  This produces the mixed insert/update/delete aging pattern
    that fragments on-disk layouts.
    """

    kv: KeyValueGenerator
    working_set: int = 2000
    drift: int = 500
    ops_per_phase: int = 1000
    delete_fraction: float = 0.1
    seed: int = 0

    def generate(self, total_ops: int) -> Iterator[TraceOp]:
        rng = make_rng(self.seed)
        window_start = 0
        emitted = 0
        while emitted < total_ops:
            phase_ops = min(self.ops_per_phase, total_ops - emitted)
            draws = rng.random(size=phase_ops)
            picks = rng.integers(0, self.working_set, size=phase_ops)
            for draw, pick in zip(draws, picks):
                index = window_start + int(pick)
                key = self.kv.scrambled_key(index)
                if draw < self.delete_fraction:
                    yield TraceOp(OP_DELETE, key)
                else:
                    yield TraceOp(OP_PUT, key, self.kv.value(index))
                emitted += 1
            window_start += self.drift
