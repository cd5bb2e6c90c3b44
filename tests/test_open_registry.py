"""Tests for the store registry and the ``repro.open`` entry point."""

import pytest

import repro
from repro.errors import ReproError
from repro.kvstore import KVStoreBase
from repro.registry import open_store, store_kinds

from tests.conftest import TEST_PROFILE

ALL_KINDS = ("leveldb", "smrdb", "leveldb+sets", "zonekv", "sealdb")


class TestOpen:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_round_trip_every_kind(self, kind):
        store = repro.open(kind, profile=TEST_PROFILE)
        assert isinstance(store, KVStoreBase)
        store.put(b"alpha", b"1")
        store.put(b"beta", b"2")
        assert store.get(b"alpha") == b"1"
        store.reopen()
        assert store.get(b"beta") == b"2"
        store.close()

    def test_open_is_open_store(self):
        assert repro.open is open_store

    def test_kind_is_case_insensitive(self):
        assert repro.open("SealDB", profile=TEST_PROFILE, shards=1).name == \
            repro.open("sealdb", profile=TEST_PROFILE, shards=1).name == \
            "SEALDB"

    def test_shell_friendly_alias(self):
        a = repro.open("leveldb_sets", profile=TEST_PROFILE, shards=1)
        b = repro.open("leveldb+sets", profile=TEST_PROFILE, shards=1)
        assert a.name == b.name == "LevelDB+sets"

    def test_unknown_kind_raises(self):
        with pytest.raises(ReproError, match="unknown store kind"):
            repro.open("rocksdb", profile=TEST_PROFILE)

    def test_store_kinds_lists_all_builtin(self):
        kinds = store_kinds()
        assert set(ALL_KINDS) <= set(kinds)
        assert kinds == tuple(sorted(kinds))

    def test_context_manager(self):
        with repro.open("sealdb", profile=TEST_PROFILE) as db:
            db.put(b"k", b"v")
            assert db.get(b"k") == b"v"

    def test_reopen_returns_self_and_stats_survive(self):
        db = repro.open("sealdb", profile=TEST_PROFILE)
        db.put(b"k", b"v")
        puts_before = db.stats.puts
        stats_obj = db.stats
        assert db.reopen() is db
        assert db.stats is stats_obj            # same object through recovery
        assert db.stats.puts == puts_before
        db.put(b"k2", b"v2")
        assert db.stats.puts == puts_before + 1

    @pytest.mark.parametrize("kind, keyword", [
        ("sealdb", {"band_size": 64 * 1024}),
        ("sealdb", {"drive_kind": "hdd"}),
        ("smrdb", {"drive_kind": "hdd"}),
        ("smrdb", {"zone_size": 64 * 1024}),
        ("leveldb+sets", {"drive_kind": "hdd"}),
        ("leveldb", {"zone_size": 64 * 1024}),
        ("zonekv", {"band_size": 64 * 1024}),
        ("zonekv", {"drive_kind": "hdd"}),
    ], ids=lambda value: value if isinstance(value, str) else next(iter(value)))
    def test_kind_rejects_keyword_it_does_not_take(self, kind, keyword):
        with pytest.raises(TypeError):
            repro.open(kind, profile=TEST_PROFILE, **keyword)
