"""Dynamic-array persistence backend.

Models the paper's "dynamic arrays" option (Section 3.2): the runtime's
memory allocator is replaced with one that allocates from persistent
memory, but data structures are left unchanged.  The canonical structure
is a C++ ``std::vector``: when capacity is exhausted it allocates a chunk
twice as large, copies every element over, and releases the old chunk.
On persistent memory that copy is a full re-write of the collection, which
is exactly the write amplification the paper blames for this backend's
poor performance.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.pmem.backends.base import PersistenceBackend, StoreStats
from repro.pmem.device import PersistentMemoryDevice

#: Software cost of one allocator call (allocate + free bookkeeping), ns.
DEFAULT_REALLOCATION_OVERHEAD_NS = 120.0


class DynamicArrayBackend(PersistenceBackend):
    """Capacity-doubling array over a persistent-memory allocator.

    Args:
        device: the device to charge I/O against.
        initial_capacity_bytes: capacity of a freshly created store before
            the first expansion.
        growth_factor: capacity multiplier on expansion (2.0 for the classic
            ``std::vector`` policy).
        reallocation_overhead_ns: software overhead charged per expansion,
            on top of the copy itself.
    """

    name = "dynamic_array"

    def __init__(
        self,
        device: PersistentMemoryDevice,
        initial_capacity_bytes: int | None = None,
        growth_factor: float = 2.0,
        reallocation_overhead_ns: float = DEFAULT_REALLOCATION_OVERHEAD_NS,
    ) -> None:
        super().__init__(device)
        self.initial_capacity_bytes = (
            initial_capacity_bytes
            if initial_capacity_bytes is not None
            else device.geometry.block_bytes
        )
        if self.initial_capacity_bytes <= 0:
            raise ConfigurationError("initial_capacity_bytes must be positive")
        if growth_factor <= 1.0:
            raise ConfigurationError(
                f"growth_factor must exceed 1.0, got {growth_factor}"
            )
        if reallocation_overhead_ns < 0:
            raise ConfigurationError("reallocation_overhead_ns must be non-negative")
        self.growth_factor = growth_factor
        self.reallocation_overhead_ns = reallocation_overhead_ns

    def _on_create(self, stats: StoreStats) -> None:
        self._grow_physical(stats, self.initial_capacity_bytes)
        stats.extra["expansions"] = 0
        stats.extra["copied_bytes"] = 0

    def _charge_append(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        # Replay the expansion schedule of ``count`` sequential appends: an
        # expansion triggered by chunk i copies the live bytes accumulated
        # by chunks 0..i-1, exactly as ``count`` one-chunk appends would.
        # Expansions are logarithmic in the total growth; the payload
        # itself is charged in one counted write.
        start = stats.logical_bytes
        end = start + chunk_bytes * count
        while stats.physical_bytes < end:
            fit = min(count, (stats.physical_bytes - start) // chunk_bytes)
            self._expand(stats, start + fit * chunk_bytes)
        self.device.write(chunk_bytes, count=count)

    def _charge_read(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        self.device.read(chunk_bytes, count=count)

    def _expand(self, stats: StoreStats, live: int) -> None:
        """Double the capacity and copy the ``live`` payload bytes over.

        The copy is a persistent-memory read of the current contents plus a
        persistent-memory write of the same amount at the new location --
        that write is the amplification this backend exists to demonstrate.
        """
        old_capacity = stats.physical_bytes
        new_capacity = max(
            int(old_capacity * self.growth_factor), old_capacity + 1
        )
        if live:
            self.device.read(live)
            self.device.write(live)
            stats.extra["copied_bytes"] = stats.extra.get("copied_bytes", 0) + live
        self.device.overhead(self.reallocation_overhead_ns, label="reallocation")
        self._grow_physical(stats, new_capacity - old_capacity)
        stats.extra["expansions"] = stats.extra.get("expansions", 0) + 1

    def _on_truncate(self, stats: StoreStats) -> None:
        # Truncation resets to the initial capacity, as releasing and
        # re-acquiring the initial chunk is how the C++ implementation
        # recycles vectors between runs.
        self._grow_physical(stats, self.initial_capacity_bytes)

    def expansions(self, store_id: str) -> int:
        """Number of capacity doublings the store has gone through."""
        return self.store_stats(store_id).extra.get("expansions", 0)

    def copied_bytes(self, store_id: str) -> int:
        """Total payload bytes rewritten because of expansions."""
        return self.store_stats(store_id).extra.get("copied_bytes", 0)
