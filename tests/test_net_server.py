"""The serving layer end to end over loopback: commands, pipelining,
admission control, graceful drain, and degraded-mode parity.

Every test boots a real asyncio server (on its own thread, ephemeral
port) in front of a real store built on the tiny test profile, and
talks to it over TCP -- no mocked transports.
"""

import socket
import time

import pytest

import repro
from repro.net.client import NetClient, Overloaded, ServerError, Unavailable
from repro.net.protocol import RespParser, encode_command
from repro.net.server import ServerConfig, ServerThread
from repro.workloads.generators import KeyValueGenerator

from tests.conftest import TEST_PROFILE

pytestmark = pytest.mark.net


@pytest.fixture
def served():
    """A 2-shard sealdb store behind a live server; yields
    ``(store, handle, client)`` and drains everything afterwards."""
    store = repro.open("sealdb", profile=TEST_PROFILE, shards=2)
    handle = ServerThread(store).start()
    client = NetClient(*handle.address)
    yield store, handle, client
    client.close()
    handle.stop()
    store.close()


class TestCommands:
    def test_ping(self, served):
        _store, _handle, client = served
        assert client.ping()

    def test_set_get_del(self, served):
        _store, _handle, client = served
        client.set(b"k1", b"v1")
        assert client.get(b"k1") == b"v1"
        assert client.get(b"missing") is None
        client.delete(b"k1")
        assert client.get(b"k1") is None

    def test_set_reaches_the_store(self, served):
        store, _handle, client = served
        client.set(b"wire-key", b"wire-value")
        assert store.get(b"wire-key") == b"wire-value"

    def test_mset_is_write_batch(self, served):
        store, _handle, client = served
        client.mset([(b"a", b"1"), (b"m", b"2"), (b"z", b"3")])
        assert store.get(b"a") == b"1"
        assert store.get(b"z") == b"3"

    def test_scan_sorted_across_shards(self, served):
        _store, _handle, client = served
        for i in range(30):
            client.set(b"s%03d" % i, b"v%d" % i)
        pairs, partial = client.scan(b"s", b"t")
        assert not partial
        assert [k for k, _ in pairs] == sorted(k for k, _ in pairs)
        assert len(pairs) == 30
        assert dict(pairs)[b"s007"] == b"v7"

    def test_scan_limit(self, served):
        _store, _handle, client = served
        for i in range(20):
            client.set(b"s%03d" % i, b"v")
        pairs, _ = client.scan(b"s", b"t", limit=5)
        assert len(pairs) == 5

    def test_scan_limit_capped_by_server(self, served):
        _store, _handle, client = served
        for i in range(10):
            client.set(b"s%03d" % i, b"v")
        pairs, _ = client.scan(b"s", b"t", limit=10_000_000)
        assert len(pairs) == 10

    def test_unknown_command(self, served):
        _store, _handle, client = served
        with pytest.raises(ServerError) as exc:
            client.execute(b"FLUSHALL")
        assert exc.value.code == "ERR"

    def test_bad_arity(self, served):
        _store, _handle, client = served
        with pytest.raises(ServerError):
            client.execute(b"SET", b"only-key")

    def test_info(self, served):
        _store, _handle, client = served
        client.set(b"k", b"v")
        info = client.info()
        assert info["store"] == "SEALDBx2"
        assert info["shards"] == "2"
        assert info["shard_health"] == "healthy,healthy"
        assert int(info["net.requests"]) >= 1
        assert info["draining"] == "0"

    def test_quit_closes_connection(self, served):
        _store, _handle, client = served
        client.quit()
        with pytest.raises(Exception):
            client.ping()

    def test_protocol_error_answered_then_closed(self, served):
        _store, handle, _client = served
        raw = socket.create_connection(handle.address, timeout=5)
        raw.sendall(b"*1\r\n:5\r\n")  # array of ints: not a valid request
        parser = RespParser()
        deadline = time.monotonic() + 5
        reply = None
        while time.monotonic() < deadline:
            data = raw.recv(4096)
            if not data:
                break
            parser.feed(data)
            reply = parser.next_value()
            if reply is not None:
                break
        assert reply is not None and reply.code == "ERR"
        assert raw.recv(4096) == b""  # server closed after the error
        raw.close()


class TestPipelining:
    def test_replies_in_request_order(self, served):
        _store, _handle, client = served
        with client.pipeline() as pipe:
            for i in range(50):
                pipe.set(b"p%03d" % i, b"v%d" % i)
            for i in range(50):
                pipe.get(b"p%03d" % i)
        results = pipe.results
        assert results[:50] == ["OK"] * 50
        assert results[50:] == [b"v%d" % i for i in range(50)]

    def test_pipeline_with_tiny_window_still_completes(self):
        store = repro.open("sealdb", profile=TEST_PROFILE, shards=2)
        handle = ServerThread(
            store, ServerConfig(max_pipeline=2)).start()
        client = NetClient(*handle.address)
        try:
            results = client.execute_pipeline(
                [[b"SET", b"k%d" % i, b"v"] for i in range(40)])
            assert results == ["OK"] * 40
        finally:
            client.close()
            handle.stop()
            store.close()


class TestAdmissionControl:
    def test_overloaded_replies_when_saturated(self):
        store = repro.open("sealdb", profile=TEST_PROFILE, shards=2)
        handle = ServerThread(
            store, ServerConfig(max_inflight=1, max_pipeline=256)).start()
        client = NetClient(*handle.address)
        try:
            results = client.execute_pipeline(
                [[b"SET", b"k%d" % i, b"x" * 64] for i in range(80)])
            shed = [r for r in results if isinstance(r, Overloaded)]
            served = [r for r in results if r == "OK"]
            assert shed, "expected -OVERLOADED under max_inflight=1"
            assert served, "some requests must still be served"
            assert len(shed) + len(served) == 80
            # the server counted every shed request
            info = client.info()
            assert int(info["net.overloads"]) == len(shed)
            # control commands pass even while saturated
            assert client.ping()
        finally:
            client.close()
            handle.stop()
            store.close()

    def test_byte_budget_sheds_large_payloads(self):
        store = repro.open("sealdb", profile=TEST_PROFILE, shards=1)
        handle = ServerThread(
            store, ServerConfig(max_inflight_bytes=1024,
                                max_pipeline=64)).start()
        client = NetClient(*handle.address)
        try:
            results = client.execute_pipeline(
                [[b"SET", b"big%d" % i, b"x" * 4096] for i in range(8)])
            assert any(isinstance(r, Overloaded) for r in results)
        finally:
            client.close()
            handle.stop()
            store.close()


class TestGracefulDrain:
    def test_inflight_finish_before_close(self):
        store = repro.open("sealdb", profile=TEST_PROFILE, shards=2)
        handle = ServerThread(store).start()
        raw = socket.create_connection(handle.address, timeout=10)
        n = 60
        raw.sendall(b"".join(
            encode_command([b"SET", b"d%03d" % i, b"v%d" % i])
            for i in range(n)))
        time.sleep(0.2)  # let the server read + dispatch the burst
        handle.stop()
        parser = RespParser()
        replies = []
        while True:
            data = raw.recv(65536)
            if not data:
                break
            parser.feed(data)
            while (value := parser.next_value()) is not None:
                replies.append(value)
        raw.close()
        # every dispatched request got its reply before the close
        assert replies == ["OK"] * n
        # and the writes are durable in the (closed, flushed) store
        store.reopen()
        assert store.get(b"d000") == b"v0"
        assert store.get(b"d%03d" % (n - 1)) == b"v%d" % (n - 1)
        store.close()

    def test_listener_refuses_after_drain(self):
        store = repro.open("sealdb", profile=TEST_PROFILE, shards=1)
        handle = ServerThread(store).start()
        address = handle.address
        NetClient(*address).close()
        handle.stop()
        with pytest.raises(Exception):
            socket.create_connection(address, timeout=1).close()
        store.close()

    def test_server_owning_store_closes_it_idempotently(self):
        store = repro.open("sealdb", profile=TEST_PROFILE, shards=2)
        handle = ServerThread(store, owns_store=True).start()
        handle.stop()
        store.close()  # second close: must be a no-op
        store.close()


class TestDegradedModeOverTheWire:
    """PR 4 semantics survive the wire: a quarantined range answers a
    typed ``-UNAVAILABLE`` while every other key keeps serving."""

    def _rot_shard_table(self, shard):
        """Rot one live table of ``shard`` end to end; returns a user
        key whose only version lives in that table."""
        version = shard.db.versions.current
        meta = next(f for level in reversed(version.files) for f in level)
        keys = [key[0] for key, _ in shard.db._table(meta)]
        victim = keys[len(keys) // 2]
        media = shard.drive.inject_media_errors(seed=1)
        for ext in shard.storage.file_extents(meta.name):
            for off in range(0, ext.length, 256):
                media.add_rot(ext.start + off)
        shard.reopen()
        return victim

    def test_quarantined_range_is_typed_error_others_serve(self):
        store = repro.open("sealdb", profile=TEST_PROFILE, shards=2)
        kv = KeyValueGenerator(TEST_PROFILE.key_size,
                               TEST_PROFILE.value_size)
        for i in range(3000):
            store.put(kv.key(i), kv.value(i))
        store.flush()
        victim = self._rot_shard_table(store.shards[0])

        handle = ServerThread(store).start()
        client = NetClient(*handle.address)
        try:
            # the affected key: typed -UNAVAILABLE, not a hang or garbage
            with pytest.raises(Unavailable):
                client.get(victim)
            # ... and again: the degraded state is sticky, not flapping
            with pytest.raises(Unavailable):
                client.get(victim)
            # the store is degraded, and INFO says so over the wire
            info = client.info()
            assert "degraded" in info["shard_health"]
            assert int(info["degraded_ranges"]) >= 1
            # every key outside the degraded ranges still serves
            ranges = store.degraded_ranges()
            assert ranges
            served = 0
            for i in range(0, 3000, 61):
                key = kv.key(i)
                if any(lo <= key <= hi for lo, hi in ranges):
                    continue
                assert client.get(key) == kv.value(i)
                served += 1
            assert served > 20
            # writes keep landing too (possibly on the healthy shard)
            client.set(b"post-quarantine", b"ok")
            assert client.get(b"post-quarantine") == b"ok"
        finally:
            client.close()
            handle.stop()
            store.close()


class TestShardedScanClose:
    """Early termination releases every per-shard iterator
    deterministically (the mid-SCAN-disconnect contract)."""

    def test_close_releases_per_shard_streams(self):
        store = repro.open("sealdb", profile=TEST_PROFILE, shards=2)
        for i in range(200):
            store.put(b"c%04d" % i, b"v")
        store.obs.arm()
        scan = store.scan(b"c", b"d")
        for _count, _pair in zip(range(5), scan):
            pass
        scan.close()
        # closing emitted each shard's ScanEvent (finally clauses ran
        # eagerly, not whenever the GC got around to it)
        shard_scans = sum(
            shard.obs.metrics.counters["ops.scan"].value
            for shard in store.shards)
        assert shard_scans == 2
        with pytest.raises(StopIteration):
            next(scan)
        store.close()

    def test_scan_context_manager_closes(self):
        store = repro.open("sealdb", profile=TEST_PROFILE, shards=2)
        for i in range(50):
            store.put(b"c%04d" % i, b"v")
        store.obs.arm()
        with store.scan(b"c", b"d") as scan:
            next(scan)
        with pytest.raises(StopIteration):
            next(scan)
        store.close()
