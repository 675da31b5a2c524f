"""Common interface for the persistence-layer backends.

A backend manages named *stores*.  A store is the physical representation
of one persistent collection: the backend decides how appended bytes map
onto device writes (block-granular, doubling arrays, ...), and what
software overhead each operation carries.  The backend never sees record
payloads -- only byte counts -- because all pricing in the paper is in
cachelines.

Every data-path charge takes a ``count``:
:meth:`PersistenceBackend.append` / :meth:`PersistenceBackend.read`
price ``count`` identical transfers of ``nbytes`` each in one call,
through one :class:`~repro.pmem.device.PersistentMemoryDevice` charge
per direction.  A call with ``count=k`` leaves the device counters and
the store stats exactly as ``k`` calls with ``count=1`` would, so a
caller charging whole block batches does O(1) Python work per batch.
Subclasses implement one hook per direction, ``_charge_append`` and
``_charge_read``, which receive the count.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError, UnknownCollectionError
from repro.pmem.device import PersistentMemoryDevice


@dataclass
class StoreStats:
    """Per-store bookkeeping kept by every backend."""

    name: str
    logical_bytes: int = 0
    physical_bytes: int = 0
    append_calls: int = 0
    read_calls: int = 0
    truncate_calls: int = 0
    extra: dict = field(default_factory=dict)


class PersistenceBackend(ABC):
    """Abstract persistence layer between DRAM and persistent memory.

    Subclasses implement the cost policy of one of the four implementation
    techniques of Section 3.2.  All of them charge their costs against the
    shared :class:`~repro.pmem.device.PersistentMemoryDevice`.
    """

    #: Human-readable backend identifier (used in reports and figures).
    name: str = "abstract"

    def __init__(self, device: PersistentMemoryDevice) -> None:
        self.device = device
        self._stores: dict[str, StoreStats] = {}

    # ------------------------------------------------------------------ #
    # Store lifecycle.
    # ------------------------------------------------------------------ #
    def create_store(self, store_id: str) -> StoreStats:
        """Create an empty store; creating an existing store is an error."""
        if store_id in self._stores:
            raise ConfigurationError(f"store {store_id!r} already exists")
        stats = StoreStats(name=store_id)
        self._stores[store_id] = stats
        self._on_create(stats)
        return stats

    def ensure_store(self, store_id: str) -> StoreStats:
        """Return the store, creating it if it does not exist yet."""
        if store_id in self._stores:
            return self._stores[store_id]
        return self.create_store(store_id)

    def drop_store(self, store_id: str) -> None:
        """Remove a store and release its device allocation."""
        stats = self._require(store_id)
        self.device.release(stats.physical_bytes)
        self._on_drop(stats)
        del self._stores[store_id]

    def has_store(self, store_id: str) -> bool:
        return store_id in self._stores

    def store_stats(self, store_id: str) -> StoreStats:
        return self._require(store_id)

    def stores(self) -> list[str]:
        return list(self._stores)

    # ------------------------------------------------------------------ #
    # Data-path operations: the cost policy lives in the subclasses.
    # ------------------------------------------------------------------ #
    def append(self, store_id: str, nbytes: int, count: int = 1) -> None:
        """Append ``count`` chunks of ``nbytes`` payload, charging device writes."""
        if nbytes < 0:
            raise ConfigurationError("append size must be non-negative")
        if count < 0:
            raise ConfigurationError("append count must be non-negative")
        stats = self._require(store_id)
        if count and nbytes:
            self._charge_append(stats, nbytes, count)
        stats.logical_bytes += nbytes * count
        stats.append_calls += count

    def read(self, store_id: str, nbytes: int, count: int = 1) -> None:
        """Read ``count`` chunks of ``nbytes`` payload, charging device reads."""
        if nbytes < 0:
            raise ConfigurationError("read size must be non-negative")
        if count < 0:
            raise ConfigurationError("read count must be non-negative")
        stats = self._require(store_id)
        if count and nbytes:
            self._charge_read(stats, nbytes, count)
        stats.read_calls += count

    def truncate(self, store_id: str) -> None:
        """Discard the store's contents (cheap: metadata only)."""
        stats = self._require(store_id)
        self.device.release(stats.physical_bytes)
        self._on_truncate(stats)
        stats.logical_bytes = 0
        stats.physical_bytes = 0
        stats.truncate_calls += 1

    def logical_bytes(self, store_id: str) -> int:
        return self._require(store_id).logical_bytes

    def physical_bytes(self, store_id: str) -> int:
        return self._require(store_id).physical_bytes

    @property
    def total_physical_bytes(self) -> int:
        return sum(stats.physical_bytes for stats in self._stores.values())

    # ------------------------------------------------------------------ #
    # Hooks for subclasses.
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _charge_append(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        """Charge the device for ``count`` appends of ``chunk_bytes`` each.

        :meth:`append` applies the ``logical_bytes`` update afterwards, so
        the hook sees (and must leave) ``stats.logical_bytes`` at its
        value before the first chunk.
        """

    @abstractmethod
    def _charge_read(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        """Charge the device for ``count`` reads of ``chunk_bytes`` each."""

    def _on_create(self, stats: StoreStats) -> None:
        """Optional subclass hook run when a store is created."""

    def _on_drop(self, stats: StoreStats) -> None:
        """Optional subclass hook run when a store is dropped."""

    def _on_truncate(self, stats: StoreStats) -> None:
        """Optional subclass hook run when a store is truncated."""

    # ------------------------------------------------------------------ #
    # Internal helpers.
    # ------------------------------------------------------------------ #
    def _require(self, store_id: str) -> StoreStats:
        try:
            return self._stores[store_id]
        except KeyError:
            raise UnknownCollectionError(
                f"backend {self.name!r} has no store named {store_id!r}"
            ) from None

    def _grow_physical(self, stats: StoreStats, nbytes: int) -> None:
        """Record ``nbytes`` of additional physical allocation."""
        self.device.allocate(nbytes)
        stats.physical_bytes += nbytes

    def _grow_to(self, stats: StoreStats, needed: int, granule_bytes: int) -> int:
        """Grow the store's allocation to cover ``needed`` logical bytes.

        Allocates whole granules (blocks, filesystem records, extents) in
        one shot.  Returns the number of granules allocated (0 when the
        store already fits).
        """
        if stats.physical_bytes >= needed:
            return 0
        shortfall = needed - stats.physical_bytes
        granules = -(-shortfall // granule_bytes)  # ceiling division
        self._grow_physical(stats, granules * granule_bytes)
        return granules

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(stores={len(self._stores)})"
