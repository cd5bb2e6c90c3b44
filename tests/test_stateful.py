"""Stateful (model-based) property tests with hypothesis.

Two rule machines:

* ``DynamicBandMachine`` drives the dynamic-band manager with random
  allocate/write/free sequences and checks, after every step, that the
  manager's invariants hold and the drive never saw an unsafe write.
* ``KVStateMachine`` drives a SEALDB instance against a plain dict and
  checks get/scan equivalence, including across crash-recovery.
"""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
import hypothesis.strategies as st

from repro.core.dynamic_band import DynamicBandManager
from repro.errors import AllocationError
from repro.harness.profiles import ScaleProfile
from repro.registry import build_store
from repro.smr.raw_hmsmr import RawHMSMRDrive

KiB = 1024
MiB = 1024 * 1024


class DynamicBandMachine(RuleBasedStateMachine):
    """Random allocate/free traffic against the band manager."""

    regions = Bundle("regions")

    def __init__(self):
        super().__init__()
        self.drive = RawHMSMRDrive(2 * MiB, guard_size=4 * KiB)
        self.manager = DynamicBandManager(self.drive, 0, class_unit=4 * KiB)
        self.fill = 0

    @rule(target=regions, size_units=st.integers(1, 10))
    def allocate(self, size_units):
        size = size_units * 4 * KiB
        try:
            offset = self.manager.allocate(size)
        except AllocationError:
            return None
        self.fill = (self.fill + 1) % 251
        self.drive.write(offset, bytes([self.fill + 1]) * size)
        return (offset, size, self.fill + 1)

    @rule(region=regions)
    def free(self, region):
        if region is None:
            return
        offset, size, _fill = region
        if not self.manager.allocated.contains_range(offset, offset + size):
            return  # already freed in a previous rule application
        self.manager.free(offset, size)

    @invariant()
    def invariants_hold(self):
        self.manager.check_invariants()

    @invariant()
    def free_space_is_really_free(self):
        for region in self.manager.free_list.regions():
            assert self.drive.valid.covered_bytes(region.start, region.end) == 0


DynamicBandMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)
TestDynamicBandStateful = DynamicBandMachine.TestCase


_TINY = ScaleProfile(
    name="stateful",
    capacity=8 * MiB,
    sstable_size=2 * KiB,
    band_size=20 * KiB,
    guard_size=2 * KiB,
    block_size=512,
    value_size=24,
    wal_region=20 * KiB,
    meta_region=40 * KiB,
    block_cache_bytes=32 * KiB,
)


class KVStateMachine(RuleBasedStateMachine):
    """SEALDB vs dict, with crash-recovery thrown in."""

    def __init__(self):
        super().__init__()
        self.store = build_store("sealdb", _TINY)
        self.model: dict[bytes, bytes] = {}

    def _key(self, i: int) -> bytes:
        return b"k%015d" % i

    @rule(i=st.integers(0, 60), v=st.binary(min_size=1, max_size=40))
    def put(self, i, v):
        self.store.put(self._key(i), v)
        self.model[self._key(i)] = v

    @rule(i=st.integers(0, 60))
    def delete(self, i):
        self.store.delete(self._key(i))
        self.model.pop(self._key(i), None)

    @rule(i=st.integers(0, 60))
    def get_matches(self, i):
        assert self.store.get(self._key(i)) == self.model.get(self._key(i))

    @rule()
    def flush(self):
        self.store.flush()

    @rule()
    def crash_and_recover(self):
        self.store.reopen()

    @rule(lo=st.integers(0, 60), n=st.integers(1, 10))
    def scan_matches(self, lo, n):
        got = list(self.store.scan(self._key(lo), limit=n))
        expected = sorted((k, v) for k, v in self.model.items()
                          if k >= self._key(lo))[:n]
        assert got == expected

    @invariant()
    def tree_invariants(self):
        self.store.db.check_invariants()


KVStateMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None)
TestKVStateful = KVStateMachine.TestCase
