"""Store registry and the single public entry point ``repro.open``.

Every store class registers itself under its CLI kind name::

    @register_store("sealdb")
    class SealDB(KVStoreBase):
        ...

and callers construct stores uniformly::

    import repro

    with repro.open("sealdb") as db:                 # default profile
        ...
    db = repro.open("leveldb", profile=SMALL_PROFILE, drive_kind="hdd")

``repro.open`` also applies any installed observability taps
(:func:`repro.obs.tapping`), which is how ``repro trace`` /
``repro metrics`` instrument stores that experiments construct
internally.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable

from repro.errors import ReproError
from repro.harness.profiles import DEFAULT_PROFILE, ScaleProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.kvstore import KVStoreBase

_REGISTRY: dict[str, Callable[..., "KVStoreBase"]] = {}
_ALIASES: dict[str, str] = {
    "leveldb_sets": "leveldb+sets",  # shell-friendly spelling
}
_builtin_loaded = False


def register_store(kind: str, *aliases: str):
    """Class decorator: make ``kind`` constructible via ``repro.open``."""
    def decorate(cls):
        _REGISTRY[kind] = cls
        for alias in aliases:
            _ALIASES[alias] = kind
        return cls
    return decorate


def _ensure_builtin() -> None:
    """Import the bundled store modules so their decorators run.

    Lazy because the store modules import ``harness.profiles`` — a
    top-level import here would be circular.
    """
    global _builtin_loaded
    if _builtin_loaded:
        return
    _builtin_loaded = True
    import repro.baselines.leveldb      # noqa: F401
    import repro.baselines.leveldb_sets  # noqa: F401
    import repro.baselines.smrdb        # noqa: F401
    import repro.baselines.zonekv       # noqa: F401
    import repro.core.sealdb            # noqa: F401


def store_kinds() -> tuple[str, ...]:
    """The registered store kinds, sorted."""
    _ensure_builtin()
    return tuple(sorted(_REGISTRY))


def default_shards() -> int:
    """The implicit shard count: ``REPRO_DEFAULT_SHARDS`` if set
    (used by the CI matrix to smoke out single-shard assumptions),
    else 1."""
    raw = os.environ.get("REPRO_DEFAULT_SHARDS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ReproError(
            f"REPRO_DEFAULT_SHARDS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ReproError(f"REPRO_DEFAULT_SHARDS must be >= 1, got {value}")
    return value


def open_store(kind: str, *, profile: ScaleProfile = DEFAULT_PROFILE,
               shards: int | None = None, router: str = "hash",
               router_boundaries: list[bytes] | None = None,
               shard_parallel: bool = True,
               **overrides) -> "KVStoreBase":
    """Construct a store by kind name — the public entry point
    (exported as ``repro.open``).

    ``overrides`` are forwarded to the store constructor (``capacity``,
    ``clock``, drive/placement knobs, plus any ``Options`` overrides
    the store accepts).

    ``shards`` > 1 returns a :class:`repro.shard.ShardedStore` over
    that many independent instances of ``kind`` (each with its own
    drive, WAL, and compaction state; ``capacity`` and the profile
    apply *per shard*), keys partitioned by ``router`` (``"hash"``,
    ``"range"``, or a :class:`repro.shard.Router`).  ``shards=1`` (or
    unset, with ``REPRO_DEFAULT_SHARDS`` empty) is exactly the
    single-store construction path.
    """
    _ensure_builtin()
    key = kind.lower()
    key = _ALIASES.get(key, key)
    cls = _REGISTRY.get(key)
    if cls is None:
        raise ReproError(
            f"unknown store kind {kind!r}; choose from {store_kinds()}")
    if shards is None:
        shards = default_shards()
    if shards < 1:
        raise ReproError(f"shards must be >= 1, got {shards}")
    from repro.obs.bus import apply_taps
    if shards == 1:
        store = cls(profile, **overrides)
        apply_taps(store)
        return store
    if "clock" in overrides:
        raise ReproError(
            "cannot share one clock across shards; every shard owns an "
            "independent simulated timeline")
    from repro.shard import ShardedStore, make_router
    instances = [cls(profile, **overrides) for _ in range(shards)]
    store = ShardedStore(
        instances, make_router(router, shards, router_boundaries),
        parallel=shard_parallel)
    apply_taps(store)
    return store
