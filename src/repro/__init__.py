"""SEALDB reproduction: a set-aware LSM key-value store on simulated
SMR drives with dynamic bands.

Public entry points (everything a caller needs without reaching into
``repro.lsm.*`` internals):

* :func:`repro.open` -- construct any store kind (``"leveldb"``,
  ``"smrdb"``, ``"leveldb+sets"``, ``"sealdb"``, ``"zonekv"``); the
  blessed way to build a store.  ``shards=N`` returns a
  keyspace-partitioned :class:`repro.ShardedStore` over N independent
  instances.
* :func:`repro.build_store` -- one plain store of a kind, never sharded
  or tapped; a kind is a row of :data:`repro.registry.STORE_SPECS`
  (display name, drive + placement builder, ``Options`` overrides).
* :class:`repro.KVStoreBase` -- the store facade every kind returns
  (context manager; ``store.obs`` is its observability bus;
  ``store.snapshot()`` is a pinned read view).
* :class:`repro.WriteBatch` -- atomic multi-key updates for
  ``store.write_batch`` (previously only at ``repro.lsm.wal``).
* :class:`repro.Options` / :class:`repro.ScaleProfile` and the named
  profiles in :data:`repro.PROFILES`.
* :mod:`repro.shard` -- routers and the sharded frontend.
* :mod:`repro.net` -- the serving layer: RESP-subset TCP server
  (``repro serve``), sync/pipelined client, and network load generator
  (imported lazily; ``from repro.net import ServerThread, NetClient``).
* :mod:`repro.obs` -- typed events, metrics registry, JSON-lines traces.
* :mod:`repro.workloads` -- micro-benchmarks and YCSB.
* :mod:`repro.experiments` -- one module per paper table/figure.

Quick start::

    import repro

    with repro.open("sealdb") as db:
        db.put(b"key", b"value")
        assert db.get(b"key") == b"value"

    with repro.open("sealdb", shards=4) as db:   # partitioned, parallel
        db.write_batch(repro.WriteBatch().put(b"a", b"1").put(b"z", b"2"))
        print(db.timeline())
"""

from repro.errors import KeyRangeUnavailable, MediaError, ShardUnavailable
from repro.harness import (
    DEFAULT_PROFILE,
    SMALL_PROFILE,
    ScaleProfile,
)
from repro.kvstore import KVStoreBase
from repro.lsm import DB, Options
from repro.lsm.db import Snapshot
from repro.lsm.wal import WriteBatch
from repro.registry import build_store, default_shards, open_store, store_kinds
from repro.obs import Observability
from repro.shard import HashRouter, RangeRouter, Router, ShardedStore

#: the single public constructor: ``repro.open("sealdb")``
open = open_store

#: the named scale profiles experiments refer to
PROFILES: dict[str, ScaleProfile] = {
    DEFAULT_PROFILE.name: DEFAULT_PROFILE,
    SMALL_PROFILE.name: SMALL_PROFILE,
}

__version__ = "1.3.0"

__all__ = [
    "DB",
    "DEFAULT_PROFILE",
    "HashRouter",
    "KVStoreBase",
    "KeyRangeUnavailable",
    "MediaError",
    "ShardUnavailable",
    "Observability",
    "Options",
    "PROFILES",
    "RangeRouter",
    "Router",
    "SMALL_PROFILE",
    "ScaleProfile",
    "ShardedStore",
    "Snapshot",
    "WriteBatch",
    "__version__",
    "build_store",
    "default_shards",
    "open",
    "open_store",
    "store_kinds",
]
