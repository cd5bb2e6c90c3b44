"""The per-store observability bus.

Design mirrors :mod:`repro.faults`: instrumented components (drive,
storage, allocator, engine, facade) each carry ``self._obs = None`` and
hot paths guard every hook with one falsy check::

    obs = self._obs
    if obs is not None:
        obs.emit(RMWEvent(...))

so a store with no subscriber pays a single attribute load per hook
and allocates nothing.  Arming the bus (first subscriber, or an
explicit :meth:`Observability.arm` for metrics-only collection) patches
``_obs`` onto every bound component; disarming restores ``None``.

Every emitted event also feeds the built-in :class:`MetricsRegistry`
(op counters, latency histograms, band/RMW/WAL tallies), so
``store.obs.metrics`` is populated whenever the bus is armed even with
zero subscribers.

Module-level *taps* let the CLI instrument stores it never constructs:
``repro.open`` calls :func:`apply_taps` on every new store, and
``tapping(fn)`` installs a callback for the duration of an experiment
run (this is how ``repro trace fig10`` sees the stores fig10 builds
internally).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

from repro.obs.events import Event
from repro.obs.metrics import MetricsRegistry

Subscriber = Callable[[Event], None]


class Observability:
    """Event bus + metrics registry for one store."""

    def __init__(self, name: str = "store") -> None:
        self.name = name
        self.metrics = MetricsRegistry()
        self._subscribers: list[tuple[Subscriber, frozenset[str] | None]] = []
        self._components: list = []
        self._armed = False
        self._hold = False  # explicit arm() keeps the bus live w/o subscribers

    # -- wiring ---------------------------------------------------------------

    def bind(self, *components) -> None:
        """(Re)bind the instrumented components.  Called by the store
        facade at construction and again after ``reopen()`` replaces
        the engine."""
        if self._armed:
            for c in self._components:
                c._obs = None
        self._components = [c for c in components if c is not None]
        if self._armed:
            for c in self._components:
                c._obs = self

    def arm(self) -> None:
        """Turn the hooks on (metrics collect even with no subscriber)."""
        self._hold = True
        if not self._armed:
            self._armed = True
            for c in self._components:
                c._obs = self

    def disarm(self) -> None:
        """Turn every hook back into a single falsy check."""
        self._hold = False
        if self._armed and not self._subscribers:
            self._armed = False
            for c in self._components:
                c._obs = None

    @property
    def armed(self) -> bool:
        return self._armed

    # -- subscription ---------------------------------------------------------

    def subscribe(self, callback: Subscriber,
                  events: Iterable[str] | None = None) -> Subscriber:
        """Deliver events to ``callback`` (optionally only the wire
        names in ``events``).  Subscribing arms the bus."""
        flt = frozenset(events) if events is not None else None
        self._subscribers.append((callback, flt))
        if not self._armed:
            self._armed = True
            for c in self._components:
                c._obs = self
        return callback

    def unsubscribe(self, callback: Subscriber) -> None:
        self._subscribers = [(cb, flt) for cb, flt in self._subscribers
                             if cb is not callback]
        if not self._subscribers and not self._hold:
            self._armed = False
            for c in self._components:
                c._obs = None

    # -- emission -------------------------------------------------------------

    def emit(self, event: Event) -> None:
        update = _METRIC_UPDATES.get(event.TYPE)
        if update is not None:
            update(self.metrics, event)
        for callback, flt in self._subscribers:
            if flt is None or event.TYPE in flt:
                callback(event)


# -- built-in metrics aggregation ---------------------------------------------
# One small updater per event type; emit() dispatches through this table
# so unknown/new events still reach subscribers without a registry entry.

def _on_put(m: MetricsRegistry, e) -> None:
    m.counter("ops.put").inc()
    m.histogram("latency.put").record(e.latency)


def _on_get(m: MetricsRegistry, e) -> None:
    m.counter("ops.get").inc()
    if e.hit:
        m.counter("ops.get_hit").inc()
    m.histogram("latency.get").record(e.latency)


def _on_delete(m: MetricsRegistry, e) -> None:
    m.counter("ops.delete").inc()
    m.histogram("latency.delete").record(e.latency)


def _on_scan(m: MetricsRegistry, e) -> None:
    m.counter("ops.scan").inc()
    m.counter("ops.scan_keys").inc(e.keys)
    m.histogram("latency.scan").record(e.latency)


def _on_flush_end(m: MetricsRegistry, e) -> None:
    m.counter("flush.count").inc()
    m.counter("flush.bytes").inc(e.nbytes)
    m.histogram("latency.flush").record(e.duration)


def _on_compaction_end(m: MetricsRegistry, e) -> None:
    if e.trivial_move:
        m.counter("compaction.trivial").inc()
        return
    m.counter("compaction.count").inc()
    m.counter("compaction.bytes_in").inc(e.input_bytes)
    m.counter("compaction.bytes_out").inc(e.output_bytes)
    m.histogram("latency.compaction").record(e.duration)


def _on_band_allocate(m: MetricsRegistry, e) -> None:
    m.counter("band.appends" if e.mode == "append" else "band.inserts").inc()


def _on_rmw(m: MetricsRegistry, e) -> None:
    m.counter("drive.rmw").inc()
    m.counter("drive.rmw_bytes").inc(e.moved_bytes)


def _on_cache_clean(m: MetricsRegistry, e) -> None:
    m.counter("drive.cache_cleans").inc()
    m.counter("drive.cache_clean_bytes").inc(e.nbytes)


def _on_wal(m: MetricsRegistry, e) -> None:
    m.counter("wal.appends").inc()
    m.counter("wal.bytes").inc(e.nbytes)


def _on_zone_gc(m: MetricsRegistry, e) -> None:
    m.counter("zone.gc_runs").inc()
    m.counter("zone.gc_bytes").inc(e.moved_bytes)


def _count(name: str):
    def update(m: MetricsRegistry, e) -> None:
        m.counter(name).inc()
    return update


def _on_scrub(m: MetricsRegistry, e) -> None:
    m.counter("scrub.passes").inc()
    m.counter("scrub.blocks").inc(e.blocks)
    m.counter("scrub.errors").inc(e.errors)


def _on_quarantine(m: MetricsRegistry, e) -> None:
    m.counter("resilience.quarantine_events").inc()


def _on_net_request(m: MetricsRegistry, e) -> None:
    m.counter("net.requests").inc()
    m.counter(f"net.cmd.{e.command.lower()}").inc()
    if not e.ok:
        m.counter("net.errors").inc()
    m.histogram("latency.net").record(e.latency)


def _on_net_overload(m: MetricsRegistry, e) -> None:
    m.counter("net.overloads").inc()


def _on_net_conn_close(m: MetricsRegistry, e) -> None:
    m.counter("net.conns_closed").inc()
    m.counter(f"net.close.{e.reason}").inc()


_METRIC_UPDATES: dict[str, Callable[[MetricsRegistry, Event], None]] = {
    "op.put": _on_put,
    "op.get": _on_get,
    "op.delete": _on_delete,
    "op.scan": _on_scan,
    "flush.end": _on_flush_end,
    "compaction.start": _count("compaction.started"),
    "compaction.end": _on_compaction_end,
    "band.allocate": _on_band_allocate,
    "band.free": _count("band.frees"),
    "band.coalesce": _count("band.coalesces"),
    "band.split": _count("band.splits"),
    "drive.rmw": _on_rmw,
    "drive.cache_clean": _on_cache_clean,
    "zone.reset": _count("zone.resets"),
    "wal.append": _on_wal,
    "manifest.append": _count("manifest.appends"),
    "fs.alloc": _count("fs.allocs"),
    "zone.gc": _on_zone_gc,
    "set.register": _count("sets.registered"),
    "set.fade": _count("sets.faded"),
    "scrub.pass": _on_scrub,
    "table.quarantine": _on_quarantine,
    "repair.drop": _count("repair.drops"),
    "net.conn_open": _count("net.conns_opened"),
    "net.conn_close": _on_net_conn_close,
    "net.request": _on_net_request,
    "net.overload": _on_net_overload,
    "net.drain": _count("net.drains"),
}


# -- global taps (used by repro.open / the trace & metrics CLI) ---------------

_taps: list[Callable] = []


def install_tap(fn: Callable) -> Callable:
    """Register ``fn(store)`` to run on every store ``repro.open``
    constructs (including stores experiments build internally)."""
    _taps.append(fn)
    return fn


def remove_tap(fn: Callable) -> None:
    with contextlib.suppress(ValueError):
        _taps.remove(fn)


@contextlib.contextmanager
def tapping(fn: Callable):
    install_tap(fn)
    try:
        yield fn
    finally:
        remove_tap(fn)


def apply_taps(store) -> None:
    for fn in _taps:
        fn(store)
