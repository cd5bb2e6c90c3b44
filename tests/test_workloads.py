"""Tests for key/value generation, the micro-benchmarks, and YCSB."""

import pytest

import repro
from repro.errors import ReproError
from repro.workloads.generators import KeyValueGenerator, scramble32
from repro.workloads.microbench import MICRO_WORKLOADS, MicroBenchmark
from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBRunner, YCSBWorkload

from tests.conftest import TEST_PROFILE


class TestKeyValueGenerator:
    def test_key_width_and_order(self):
        kv = KeyValueGenerator(16, 100)
        assert len(kv.key(0)) == 16
        assert len(kv.key(123456)) == 16
        assert kv.key(1) < kv.key(2) < kv.key(100)

    def test_scrambled_key_stable_and_distinct(self):
        kv = KeyValueGenerator(16, 100)
        assert kv.scrambled_key(5) == kv.scrambled_key(5)
        keys = {kv.scrambled_key(i) for i in range(10000)}
        assert len(keys) == 10000

    def test_scramble32_bijective_window(self):
        outs = {scramble32(i) for i in range(100000)}
        assert len(outs) == 100000

    def test_value_deterministic_and_sized(self):
        kv = KeyValueGenerator(16, 37)
        assert len(kv.value(9)) == 37
        assert kv.value(9) == kv.value(9)
        assert kv.value(9) != kv.value(10)

    def test_entry_size(self):
        assert KeyValueGenerator(16, 100).entry_size == 116

    def test_validation(self):
        with pytest.raises(ValueError):
            KeyValueGenerator(4, 100)
        with pytest.raises(ValueError):
            KeyValueGenerator(16, 0)


class TestMicroBenchmark:
    def _bench(self, n=2000):
        kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
        return MicroBenchmark(kv, n, seed=1)

    def test_workload_names(self):
        assert MICRO_WORKLOADS == ("fillseq", "fillrandom", "readseq",
                                   "readrandom")

    def test_fill_seq(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        r = self._bench().fill_seq(store)
        assert r.ops == 2000
        assert r.sim_seconds > 0
        assert r.ops_per_sec > 0
        kv = self._bench().kv
        assert store.get(kv.key(0)) == kv.value(0)
        assert store.get(kv.key(1999)) == kv.value(1999)

    def test_fill_random_then_read_random(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        bench = self._bench()
        bench.fill_random(store)
        r = bench.read_random(store, 200)
        assert r.ops == 200
        # uniform-with-duplicates load: most probed keys exist
        assert r.hits > 100

    def test_read_seq_returns_sorted(self):
        store = repro.open("leveldb", profile=TEST_PROFILE)
        bench = self._bench()
        bench.fill_seq(store)
        r = bench.read_seq(store, 500)
        assert r.ops == 500

    def test_deterministic_given_seed(self):
        a = repro.open("sealdb", profile=TEST_PROFILE)
        b = repro.open("sealdb", profile=TEST_PROFILE)
        ra = self._bench().fill_random(a)
        rb = self._bench().fill_random(b)
        assert ra.sim_seconds == rb.sim_seconds  # fully deterministic


class TestYCSBDefinitions:
    def test_all_six_defined(self):
        assert set(YCSB_WORKLOADS) == set("ABCDEF")

    def test_paper_mixes(self):
        assert YCSB_WORKLOADS["A"].read == 0.5 and YCSB_WORKLOADS["A"].update == 0.5
        assert YCSB_WORKLOADS["B"].read == 0.95
        assert YCSB_WORKLOADS["C"].read == 1.0
        assert YCSB_WORKLOADS["D"].insert == 0.05
        assert YCSB_WORKLOADS["E"].scan == 0.95
        assert YCSB_WORKLOADS["F"].rmw == 0.5

    def test_distributions(self):
        assert YCSB_WORKLOADS["A"].distribution == "zipfian"
        assert YCSB_WORKLOADS["D"].distribution == "latest"
        assert YCSB_WORKLOADS["E"].distribution == "latest"  # per the paper

    def test_proportions_validated(self):
        with pytest.raises(ReproError):
            YCSBWorkload("bad", read=0.5, update=0.6)
        with pytest.raises(ReproError):
            YCSBWorkload("bad", read=1.0, distribution="nope")


class TestYCSBRunner:
    def _runner(self, n=1500):
        kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
        return YCSBRunner(kv, n, seed=4)

    def test_load_phase(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        runner = self._runner()
        r = runner.load(store)
        assert r.ops == 1500
        assert store.get(runner.kv.scrambled_key(7)) == runner.kv.value(7)

    @pytest.mark.parametrize("name", list("ABCDEF"))
    def test_each_workload_runs(self, name):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        runner = self._runner(800)
        runner.load(store)
        r = runner.run(store, YCSB_WORKLOADS[name], 150)
        assert r.ops == 150
        total = r.reads + r.updates + r.inserts + r.scans + r.rmws
        assert total == 150
        w = YCSB_WORKLOADS[name]
        if w.read > 0.4:
            assert r.reads > 0
        if w.scan > 0.4:
            assert r.scans > 0
        if w.read >= 0.5:
            assert r.read_hits / max(1, r.reads) > 0.9

    def test_inserts_extend_keyspace(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        runner = self._runner(500)
        runner.load(store)
        r = runner.run(store, YCSB_WORKLOADS["D"], 400)
        assert r.inserts > 0
        # a key inserted during the run phase is readable
        probe = runner.kv.scrambled_key(500)  # first run-phase insert
        assert store.get(probe) is not None
