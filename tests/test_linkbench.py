"""Tests for the LinkBench-style graph workload."""

import pytest

import repro
from repro.workloads.linkbench import (
    DEFAULT_MIX,
    LinkBenchWorkload,
    link_key,
    link_prefix,
    node_key,
)

from tests.conftest import TEST_PROFILE


class TestKeyEncoding:
    def test_node_key_width(self):
        assert node_key(5) == b"n:000000000005"
        assert node_key(0) < node_key(1) < node_key(10 ** 11)

    def test_link_key_grouping(self):
        # all links of (src, type) sort inside their prefix range
        k = link_key(7, 2, 123)
        prefix = link_prefix(7, 2)
        assert k.startswith(prefix)
        assert link_key(7, 2, 0) < link_key(7, 2, 999)
        assert not link_key(7, 3, 0).startswith(prefix)
        assert not link_key(8, 2, 0).startswith(prefix)


class TestWorkload:
    def _bench(self, nodes=400):
        return LinkBenchWorkload(nodes, links_per_node=3, seed=2)

    def test_mix_normalized(self):
        w = self._bench()
        assert sum(w.mix.values()) == pytest.approx(1.0)
        assert set(w.mix) == set(DEFAULT_MIX)

    def test_load_creates_graph(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        w = self._bench()
        result = w.load(store)
        assert result.per_op["nodes"] == 400
        assert result.per_op["links"] == 400 * 3
        assert store.get(node_key(0)) is not None
        assert store.get(node_key(399)) is not None

    def test_link_lists_are_contiguous_scans(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        w = self._bench()
        w.load(store)
        # scan a hot node's type-0 links: every returned key belongs to it
        prefix = link_prefix(0, 0)
        for key, _v in store.scan(prefix, prefix + b"\xff", limit=100):
            assert key.startswith(prefix)

    def test_run_executes_full_mix(self):
        store = repro.open("sealdb", profile=TEST_PROFILE)
        w = self._bench()
        w.load(store)
        result = w.run(store, 800)
        assert result.ops == 800
        assert sum(result.per_op.values()) == 800
        # the frequent ops definitely occurred
        assert result.per_op["get_link"] > 200
        assert result.per_op["get_link_list"] > 50
        assert result.per_op["add_link"] > 10
        assert result.sim_seconds > 0

    def test_deterministic(self):
        a = repro.open("sealdb", profile=TEST_PROFILE)
        b = repro.open("sealdb", profile=TEST_PROFILE)
        w = self._bench()
        ra = (w.load(a).sim_seconds, w.run(a, 300).sim_seconds)
        w2 = self._bench()
        rb = (w2.load(b).sim_seconds, w2.run(b, 300).sim_seconds)
        assert ra == rb

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkBenchWorkload(1)

    def test_runs_on_every_store(self):
        w = LinkBenchWorkload(150, links_per_node=2, seed=1)
        for kind in ("leveldb", "smrdb", "sealdb"):
            store = repro.open(kind, profile=TEST_PROFILE)
            w.load(store)
            result = w.run(store, 200)
            assert result.ops == 200
