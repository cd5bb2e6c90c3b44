"""Tests for the trace record/replay layer."""

import pathlib

import pytest

import repro
from repro.errors import ReproError
from repro.workloads.generators import KeyValueGenerator
from repro.workloads.trace import (
    ChurnTraceGenerator,
    TraceOp,
    TraceRecorder,
    load_trace,
    replay,
    save_trace,
)

from tests.conftest import TEST_PROFILE


class TestTraceOpCodec:
    def test_put_roundtrip(self):
        op = TraceOp("P", b"key\x00bin", b"value\xff")
        assert TraceOp.decode(op.encode()) == op

    def test_delete_get_scan_roundtrip(self):
        for op in (TraceOp("D", b"k"), TraceOp("G", b"k"),
                   TraceOp("S", b"k", limit=25)):
            assert TraceOp.decode(op.encode()) == op

    def test_bad_lines_rejected(self):
        with pytest.raises(ReproError):
            TraceOp.decode("")
        with pytest.raises(ReproError):
            TraceOp.decode("X abc")
        with pytest.raises(ReproError):
            TraceOp.decode("P onlykey")

    def test_unknown_kind_rejected_on_encode(self):
        with pytest.raises(ReproError):
            TraceOp("Z", b"k").encode()


class TestSaveLoad:
    def test_file_roundtrip(self, tmp_path: pathlib.Path):
        ops = [TraceOp("P", b"a", b"1"), TraceOp("G", b"a"),
               TraceOp("S", b"", limit=5), TraceOp("D", b"a")]
        path = tmp_path / "ops.trace"
        assert save_trace(ops, path) == 4
        assert list(load_trace(path)) == ops

    def test_comments_and_blanks_skipped(self, tmp_path: pathlib.Path):
        path = tmp_path / "ops.trace"
        path.write_text("# header\n\n" + TraceOp("G", b"k").encode() + "\n")
        assert list(load_trace(path)) == [TraceOp("G", b"k")]


class TestRecorderAndReplay:
    def test_recorded_trace_replays_identically(self):
        recorder = TraceRecorder(repro.open("sealdb", profile=TEST_PROFILE))
        recorder.put(b"a", b"1")
        recorder.put(b"b", b"2")
        recorder.delete(b"a")
        assert recorder.get(b"b") == b"2"
        list(recorder.scan(b"a", limit=3))

        # replay on a fresh store reproduces the same end state
        fresh = repro.open("sealdb", profile=TEST_PROFILE)
        result = replay(fresh, recorder.trace)
        assert result.ops == 5
        assert result.puts == 2 and result.deletes == 1
        assert result.gets == 1 and result.scans == 1
        assert fresh.get(b"a") is None
        assert fresh.get(b"b") == b"2"

    def test_replay_counts_hits(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        ops = [TraceOp("P", b"k", b"v"), TraceOp("G", b"k"),
               TraceOp("G", b"missing")]
        result = replay(store, ops)
        assert result.get_hits == 1

    def test_recorder_proxies_store_attrs(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        with TraceRecorder(store) as recorder:
            assert recorder.name == "SEALDB"
            recorder.put(b"x", b"y")
            recorder.flush()           # proxied
            assert recorder.wa() >= 0  # proxied metric
        assert store._closed           # the block closed the inner store


class TestChurnGenerator:
    def _gen(self, **kw):
        kv = KeyValueGenerator(16, 32)
        return ChurnTraceGenerator(kv, working_set=100, drift=50,
                                   ops_per_phase=200, seed=1, **kw)

    def test_generates_requested_count(self):
        ops = list(self._gen().generate(650))
        assert len(ops) == 650
        kinds = {op.kind for op in ops}
        assert kinds <= {"P", "D"}
        assert "P" in kinds

    def test_working_set_drifts(self):
        gen = self._gen()
        ops = list(gen.generate(600))   # 3 phases
        early_keys = {op.key for op in ops[:200]}
        late_keys = {op.key for op in ops[400:]}
        assert early_keys != late_keys  # the window moved

    def test_deterministic(self):
        a = [op.encode() for op in self._gen().generate(300)]
        b = [op.encode() for op in self._gen().generate(300)]
        assert a == b

    def test_churn_ages_a_store(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        result = replay(store, self._gen().generate(6000))
        assert result.puts > 0 and result.deletes > 0
        store.flush()
        store.db.check_invariants()
        # churn leaves dead space pinned inside live sets
        assert store.set_registry.dead_bytes() >= 0
