"""Tests for the store registry and the ``repro.open`` entry point."""

import pytest

import repro
from repro.errors import ReproError
from repro.kvstore import KVStoreBase
from repro.registry import open_store, register_store, store_kinds

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
        assert type(repro.open("SealDB", profile=TEST_PROFILE)).__name__ == \
            type(repro.open("sealdb", profile=TEST_PROFILE)).__name__

    def test_shell_friendly_alias(self):
        a = repro.open("leveldb_sets", profile=TEST_PROFILE)
        b = repro.open("leveldb+sets", profile=TEST_PROFILE)
        assert type(a) is type(b)

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

    def test_custom_registration(self):
        @register_store("test-custom-kind")
        class Custom(KVStoreBase):
            name = "CUSTOM"

            def __init__(self, profile, **overrides):
                template = repro.open("leveldb", profile=profile)
                super().__init__(template.drive, template.storage,
                                 template.options)

        try:
            store = repro.open("test-custom-kind", profile=TEST_PROFILE)
            assert store.name == "CUSTOM"
            assert "test-custom-kind" in store_kinds()
        finally:
            from repro import registry
            registry._REGISTRY.pop("test-custom-kind", None)
