"""Pinned bytes and pinned device traffic.

The table format and the order of device accesses are the contract
every host-side optimisation must keep.  The figure regenerations under
``benchmarks/`` guard it too, but tier-1 does not run them: these
digests and counters were taken on the commit *before* the tuple-keyed
byte path (PR 15) and must never move without a format change.
"""

import hashlib
import random

import pytest

import repro
from repro.lsm.ikey import make_key
from repro.lsm.options import Options
from repro.lsm.sstable import SSTableBuilder, SSTableReader
from repro.fs.ext4sim import Ext4Storage
from repro.smr.drive import ConventionalDrive
from repro.workloads.generators import KeyValueGenerator

from tests.conftest import TEST_PROFILE

KiB = 1024


def pinned_entries():
    """A seeded ``(Key, value)`` list in key order: tombstones, three
    versions of every 50th key, one 300-byte key and one 20 KiB value
    (multi-byte varints), values of 0..199 bytes so entries straddle
    restart and block boundaries."""
    rng = random.Random(15)
    entries = []
    sequence = 1_000_000
    for index in range(700):
        user_key = b"user%08d" % (index * 7)
        if index == 350:
            user_key += b"x" * 288
        versions = 3 if index % 50 == 0 else 1
        for _ in range(versions):
            sequence -= rng.randrange(1, 5)
            if rng.random() < 0.1:
                entries.append((make_key(user_key, sequence, 0), b""))
            elif index == 420:
                entries.append((make_key(user_key, sequence, 1),
                                rng.randbytes(20 * KiB)))
            else:
                entries.append((make_key(user_key, sequence, 1),
                                rng.randbytes(rng.randrange(0, 200))))
    return entries


def build(options, streamed=False):
    builder = SSTableBuilder(options)
    chunks = []
    for key, value in pinned_entries():
        builder.add(key, value)
        if streamed and builder.pending_bytes >= KiB:
            chunks.append(builder.drain())
    tail, props = builder.finish()
    chunks.append(tail)
    return b"".join(chunks), props


SMALL = dict(block_size=512, block_restart_interval=4)


class TestTableBytes:
    @pytest.mark.parametrize("options, size, digest", [
        (Options(**SMALL), 103372,
         "13d713b08e5e95ed5677dcf1dbbdd82ea8b82885fc3930eb2cce48336442be33"),
        (Options(bloom_bits_per_key=0, **SMALL), 102461,
         "ec6e13741bc512379ccb1179589478ae8bdeb202f626ba494d91f9929f1b4ff3"),
        (Options(), 96233,
         "d3d2c799ae1343a150d7cd734831edd2561f832843e62237f2aed30af093bf97"),
    ], ids=["small-bloom", "small-nobloom", "default"])
    def test_table_digest(self, options, size, digest):
        data, props = build(options)
        assert props.num_entries == 728
        assert props.file_size == len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest
        streamed, streamed_props = build(options, streamed=True)
        assert streamed == data
        assert streamed_props == props

    def test_pinned_table_reads_back(self):
        data, props = build(Options(**SMALL))
        storage = Ext4Storage(ConventionalDrive(8 * 1024 * KiB),
                              wal_size=16 * KiB, meta_size=16 * KiB,
                              block_size=512)
        storage.write_file("t.sst", data)
        reader = SSTableReader(storage, "t.sst", props.file_size)
        entries = pinned_entries()
        assert list(reader) == entries
        middle = entries[len(entries) // 2][0]
        assert list(reader.iterate_from(middle)) == entries[len(entries) // 2:]


#: (kind, keywords) -> (store.now, seeks, bytes_read, bytes_written)
#: after the fill; the keyword rows pin every drive, placement and
#: engine keyword a kind takes (values taken from the per-kind classes
#: the store spec table replaced)
PINNED_FILL = {
    ("leveldb", ()): (169.82060875035594, 2321, 9804165, 9659849),
    ("leveldb+sets", ()): (113.48587882932138, 1486, 5586153, 5755699),
    ("smrdb", ()): (16.155420335867596, 284, 296367, 903502),
    ("zonekv", ()): (58.18610261049558, 1341, 1708573, 2220745),
    ("sealdb", ()): (58.64168329447129, 1409, 1708573, 2220745),
    ("leveldb", (("drive_kind", "hdd"),)):
        (67.51649185485299, 2331, 1557472, 2220745),
    # DM-SMR: the media cache pushes table data past a region gap
    ("leveldb", (("drive_kind", "dm-smr"),)):
        (118.22817032085271, 2104, 4426634, 5089907),
    ("leveldb", (("band_size", 64 * KiB),)):
        (193.35444795837, 2240, 11619487, 11648020),
    ("leveldb+sets", (("band_size", 64 * KiB),)):
        (126.91467039010459, 1464, 6642921, 6850205),
    ("smrdb", (("band_size", 64 * KiB),)):
        (10.803394680459112, 90, 158206, 764502),
    ("zonekv", (("zone_size", 256 * KiB),)):
        (58.07325861613831, 1333, 1708573, 2220745),
    ("sealdb", (("max_levels", 3),)):
        (61.048643806273965, 1458, 1792394, 2296196),
    ("sealdb", (("victim_policy", "invalid-set-first"),)):
        (94.64766948968007, 2137, 2951620, 3385372),
}


def _case_id(case) -> str:
    kind, keywords = case
    return "-".join([kind] + [f"{k}={v}" for k, v in keywords])


class TestDeviceTraffic:
    """5 000 random-order puts + flush on each store kind: the simulated
    clock and the drive counters catch a changed byte *or* a reordered
    read/write (the non-prefetch kinds interleave lazy block reads with
    streamed output writes; seeks see the order)."""

    @pytest.mark.parametrize("case", list(PINNED_FILL), ids=_case_id)
    def test_fill_is_bit_identical(self, case):
        kind, keywords = case
        store = repro.open(kind, profile=TEST_PROFILE, shards=1,
                           **dict(keywords))
        kv = KeyValueGenerator(TEST_PROFILE.key_size, TEST_PROFILE.value_size)
        order = list(range(5000))
        random.Random(15).shuffle(order)
        for i in order:
            store.put(kv.key(i), kv.value(i))
        store.flush()
        stats = store.drive.stats
        assert (store.now, stats.seeks, stats.bytes_read,
                stats.bytes_written) == PINNED_FILL[case]
