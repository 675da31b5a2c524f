"""Blocked-memory persistence backend.

The paper's best-performing option (Section 3.2, "Blocked memory"): keep
the interface of a dynamic array but organize storage as a linked list of
fixed-size memory blocks.  Memory is allocated one block at a time with no
copying on expansion, so the only costs are the unavoidable persistent
memory reads and writes of the payload itself.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.pmem.backends.base import PersistenceBackend, StoreStats
from repro.pmem.device import PersistentMemoryDevice


class BlockedMemoryBackend(PersistenceBackend):
    """Linked list of fixed-size blocks; zero software overhead.

    Args:
        device: the device to charge I/O against.
        block_bytes: allocation unit; defaults to the device geometry's
            block size (1024 bytes in the paper's experiments).
    """

    name = "blocked_memory"

    def __init__(
        self,
        device: PersistentMemoryDevice,
        block_bytes: int | None = None,
    ) -> None:
        super().__init__(device)
        self.block_bytes = block_bytes or device.geometry.block_bytes
        if self.block_bytes <= 0:
            raise ConfigurationError("block_bytes must be positive")

    def _charge_append(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        # Allocate as many new blocks as the appends spill into.  Block
        # allocation is a pointer update in the block chain: no data is
        # copied, so only the payload write is charged.
        needed = stats.logical_bytes + chunk_bytes * count
        new_blocks = self._grow_to(stats, needed, self.block_bytes)
        if new_blocks:
            stats.extra["blocks"] = stats.extra.get("blocks", 0) + new_blocks
        self.device.write(chunk_bytes, count=count)

    def _charge_read(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        # Accessor methods over the block chain provide byte addressability,
        # so a read costs exactly the payload transfer.
        self.device.read(chunk_bytes, count=count)

    def blocks_allocated(self, store_id: str) -> int:
        """Number of blocks currently chained for the store."""
        return self.store_stats(store_id).extra.get("blocks", 0)

    def _on_truncate(self, stats: StoreStats) -> None:
        stats.extra["blocks"] = 0
