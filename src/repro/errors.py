"""Exception hierarchy shared across the SEALDB reproduction.

Every layer raises a subclass of :class:`ReproError` so callers can
distinguish simulation-model violations (bugs in a storage policy) from
ordinary KV-store conditions such as a missing key.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class DriveError(ReproError):
    """Base class for simulated-drive errors."""


class OutOfRangeError(DriveError):
    """An I/O request fell outside the drive's capacity."""

    def __init__(self, offset: int, length: int, capacity: int) -> None:
        super().__init__(
            f"request [{offset}, {offset + length}) exceeds capacity {capacity}"
        )
        self.offset = offset
        self.length = length
        self.capacity = capacity


class ShingleOverwriteError(DriveError):
    """A write to a raw HM-SMR drive would damage valid data.

    Writing tracks on an SMR drive destroys data on the subsequently
    shingled tracks.  The raw HM-SMR model raises this error whenever the
    damage zone of a write intersects an extent that still holds valid
    data -- i.e. the host violated the Caveat-Scriptor safety rule the
    dynamic-band manager is supposed to uphold (Eq. 1 in the paper).
    """

    def __init__(self, offset: int, length: int, damaged: tuple[int, int]) -> None:
        super().__init__(
            f"write [{offset}, {offset + length}) would damage valid data "
            f"extent [{damaged[0]}, {damaged[1]})"
        )
        self.offset = offset
        self.length = length
        self.damaged = damaged


class MediaError(DriveError):
    """A latent sector error: the drive could not read a byte range.

    Raised by the simulated media when a read overlaps a sector recorded
    in the drive's :class:`~repro.resilience.media.MediaErrorMap`.  This
    is the *hard* failure mode; silent bit-rot instead flips payload
    bytes and is only caught by block checksums further up the stack.
    """

    def __init__(self, offset: int, length: int) -> None:
        super().__init__(
            f"unrecoverable read error in [{offset}, {offset + length})"
        )
        self.offset = offset
        self.length = length


class AllocationError(ReproError):
    """A storage policy could not allocate space for a request."""


class StorageError(ReproError):
    """Base class for storage-layer (file abstraction) errors."""


class FileNotFoundStorageError(StorageError):
    """A named object does not exist in the storage layer."""


class CorruptionError(ReproError):
    """Persistent data failed a checksum or structural validation."""


class KeyRangeUnavailable(ReproError):
    """A key range is temporarily unserveable because its table (or
    shard) is quarantined after persistent media errors.

    Unlike :class:`CorruptionError` -- which reports the *detection* of
    bad bytes -- this error is the steady degraded state: the engine has
    already retried, given up, and fenced the range off so the rest of
    the store keeps serving.  ``reopen()`` + repair clears it.
    """

    def __init__(self, message: str, *,
                 smallest: bytes | None = None,
                 largest: bytes | None = None) -> None:
        super().__init__(message)
        self.smallest = smallest
        self.largest = largest


class ShardUnavailable(KeyRangeUnavailable):
    """An entire shard of a :class:`~repro.shard.store.ShardedStore` is
    failed; every key routed to it is unavailable until recovery."""


class InvariantViolation(ReproError):
    """An internal data-structure invariant was broken (indicates a bug)."""


class InjectedCrash(ReproError):
    """The simulated power failure raised by an armed failpoint.

    Everything already on the simulated drive survives; the in-flight
    operation is abandoned mid-way.  Crash tests catch this, then rebuild
    the engine with :meth:`repro.lsm.db.DB.recover` and verify the store
    came back consistent.
    """


class FailpointError(ReproError):
    """A failpoint was armed with an unknown name or a bad configuration."""
