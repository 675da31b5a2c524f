"""The simulated persistent-memory device.

The device is the single funnel through which every persistent-memory
access in the library flows.  It owns:

* the :class:`~repro.pmem.latency.LatencyModel` (read/write latencies and
  the asymmetry ratio ``lambda``),
* the :class:`DeviceGeometry` (cacheline and block sizes),
* the :class:`~repro.pmem.metrics.IOCounters` used for reporting, and
* a coarse wear map recording how many cacheline writes landed on each
  region of the device, which the paper mentions as the reason writes are
  further amplified by wear-leveling.

Persistence backends (Section 3.2) never talk to the latency model
directly; they call :meth:`PersistentMemoryDevice.read`,
:meth:`~PersistentMemoryDevice.write` and
:meth:`~PersistentMemoryDevice.overhead`, which keeps the accounting in one
place and guarantees the invariant ``elapsed == transfer + overhead``.
Each of the three takes a ``count`` of identical accesses, so a backend
charging a batch of blocks makes one call per direction, not one per
block.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.pmem.latency import LatencyModel
from repro.pmem.metrics import IOCounters, IOSnapshot

#: Cacheline size assumed by the paper (Section 2: "typically equal to the
#: cacheline size, i.e. 64 or 128 bytes").
DEFAULT_CACHELINE_BYTES = 64

#: Block size the paper settles on for its experiments (Section 4 reports
#: 1024-byte blocks after a block-size sensitivity check).
DEFAULT_BLOCK_BYTES = 1024

#: Granularity of the wear map: one bucket per this many bytes.
DEFAULT_WEAR_REGION_BYTES = 1 << 20


@dataclass(frozen=True)
class DeviceGeometry:
    """Static geometry of the simulated device.

    Attributes:
        cacheline_bytes: unit in which the device is accessed and in which
            reads/writes are counted ("buffers" in the paper's analysis).
        block_bytes: unit in which persistent collections group their data
            to amortize access costs (Figure 3); must be a multiple of the
            cacheline size.
        capacity_bytes: optional capacity bound.  ``None`` means unbounded,
            which is the common case for experiments.
    """

    cacheline_bytes: int = DEFAULT_CACHELINE_BYTES
    block_bytes: int = DEFAULT_BLOCK_BYTES
    capacity_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.cacheline_bytes <= 0:
            raise ConfigurationError("cacheline_bytes must be positive")
        if self.block_bytes <= 0:
            raise ConfigurationError("block_bytes must be positive")
        if self.block_bytes % self.cacheline_bytes != 0:
            raise ConfigurationError(
                "block_bytes must be a multiple of cacheline_bytes "
                f"(got block={self.block_bytes}, cacheline={self.cacheline_bytes})"
            )
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise ConfigurationError("capacity_bytes must be positive when set")

    @property
    def cachelines_per_block(self) -> int:
        return self.block_bytes // self.cacheline_bytes

    def bytes_to_cachelines(self, nbytes: int | float) -> float:
        """Convert a byte count to (fractional) cachelines.

        The paper's analysis drops floor/ceiling functions; fractional
        cachelines keep the simulator consistent with that simplification.
        """
        if nbytes < 0:
            raise ConfigurationError("byte count must be non-negative")
        return nbytes / self.cacheline_bytes

    def bytes_to_blocks(self, nbytes: int | float) -> float:
        if nbytes < 0:
            raise ConfigurationError("byte count must be non-negative")
        return nbytes / self.block_bytes


class PersistentMemoryDevice:
    """Discrete cost simulator for a persistent-memory device.

    The device does not store payload bytes -- collections keep their own
    record data in Python structures -- it *prices* every access and keeps
    the running counters that the experiments report.  This separation is
    what makes a pure-Python reproduction feasible: correctness of the
    algorithms is checked on the real record data, while the performance
    model is evaluated exactly, independently of Python's own speed.
    """

    def __init__(
        self,
        latency: LatencyModel | None = None,
        geometry: DeviceGeometry | None = None,
        wear_region_bytes: int = DEFAULT_WEAR_REGION_BYTES,
    ) -> None:
        self.latency = latency or LatencyModel.paper_default()
        self.geometry = geometry or DeviceGeometry()
        if wear_region_bytes <= 0:
            raise ConfigurationError("wear_region_bytes must be positive")
        self._wear_region_bytes = wear_region_bytes
        self._counters = IOCounters()
        self._wear: dict[int, float] = {}
        self._allocated_bytes = 0

    # ------------------------------------------------------------------ #
    # Accounting primitives used by the persistence backends.  Each call
    # charges ``count`` identical accesses; the latency model is linear
    # per cacheline, so one call with ``count=k`` leaves the counters and
    # the wear map exactly as ``k`` calls with ``count=1`` would.
    # ------------------------------------------------------------------ #
    def read(
        self, nbytes: int | float, *, count: int = 1, address: int | None = None
    ) -> float:
        """Charge ``count`` reads of ``nbytes`` each; returns the cost in ns."""
        if nbytes < 0:
            raise ConfigurationError("cannot read a negative number of bytes")
        if count < 0:
            raise ConfigurationError("read count must be non-negative")
        if count == 0:
            return 0.0
        cachelines = self.geometry.bytes_to_cachelines(nbytes)
        cost = self.latency.read_cost_ns(cachelines)
        self._counters.record_read(cachelines, nbytes, cost, count)
        return cost * count

    def write(
        self, nbytes: int | float, *, count: int = 1, address: int | None = None
    ) -> float:
        """Charge ``count`` writes of ``nbytes`` each; returns the cost in ns."""
        if nbytes < 0:
            raise ConfigurationError("cannot write a negative number of bytes")
        if count < 0:
            raise ConfigurationError("write count must be non-negative")
        if count == 0:
            return 0.0
        cachelines = self.geometry.bytes_to_cachelines(nbytes)
        cost = self.latency.write_cost_ns(cachelines)
        self._counters.record_write(cachelines, nbytes, cost, count)
        if address is not None:
            region = address // self._wear_region_bytes
            self._wear[region] = self._wear.get(region, 0.0) + cachelines * count
        return cost * count

    def overhead(
        self, cost_ns: float, label: str = "other", *, count: int = 1
    ) -> float:
        """Charge ``count`` software overheads (system call, allocator work, ...)."""
        if cost_ns < 0:
            raise ConfigurationError("overhead must be non-negative")
        if count < 0:
            raise ConfigurationError("overhead count must be non-negative")
        if count == 0:
            return 0.0
        self._counters.record_overhead(cost_ns * count, label)
        return cost_ns * count

    # ------------------------------------------------------------------ #
    # Capacity tracking (optional).
    # ------------------------------------------------------------------ #
    def allocate(self, nbytes: int) -> None:
        """Reserve device capacity; raises when a capacity bound is exceeded."""
        if nbytes < 0:
            raise ConfigurationError("allocation size must be non-negative")
        capacity = self.geometry.capacity_bytes
        if capacity is not None and self._allocated_bytes + nbytes > capacity:
            raise ConfigurationError(
                f"device capacity exceeded: {self._allocated_bytes + nbytes} "
                f"> {capacity} bytes"
            )
        self._allocated_bytes += nbytes

    def release(self, nbytes: int) -> None:
        """Return previously allocated capacity to the device."""
        if nbytes < 0:
            raise ConfigurationError("release size must be non-negative")
        self._allocated_bytes = max(0, self._allocated_bytes - nbytes)

    @property
    def allocated_bytes(self) -> int:
        return self._allocated_bytes

    # ------------------------------------------------------------------ #
    # Reporting.
    # ------------------------------------------------------------------ #
    @property
    def counters(self) -> IOCounters:
        return self._counters

    @property
    def elapsed_ns(self) -> float:
        """Total simulated time accumulated on this device."""
        return self._counters.total_ns

    @property
    def write_read_ratio(self) -> float:
        """The device's asymmetry ratio ``lambda``."""
        return self.latency.write_read_ratio

    def snapshot(self) -> IOSnapshot:
        return self._counters.snapshot()

    def reset_counters(self) -> None:
        self._counters.reset()
        self._wear.clear()

    @property
    def wear_map(self) -> dict[int, float]:
        """Cacheline writes per wear region (region index -> writes)."""
        return dict(self._wear)

    @property
    def max_region_wear(self) -> float:
        """Worst-case region wear; zero when nothing has been written."""
        if not self._wear:
            return 0.0
        return max(self._wear.values())

    @contextmanager
    def measure(self):
        """Context manager yielding a mutable holder of the I/O delta.

        Example::

            with device.measure() as cost:
                algorithm.run()
            print(cost.delta.cacheline_writes)
        """
        holder = _MeasurementHolder(self)
        try:
            yield holder
        finally:
            holder.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PersistentMemoryDevice(r={self.latency.read_ns}ns, "
            f"w={self.latency.write_ns}ns, lambda={self.write_read_ratio:.1f}, "
            f"elapsed={self.elapsed_ns / 1e6:.3f}ms)"
        )


class _MeasurementHolder:
    """Captures the device snapshot delta across a ``measure()`` block."""

    def __init__(self, device: PersistentMemoryDevice) -> None:
        self._device = device
        self._start = device.snapshot()
        self.delta: IOSnapshot = IOSnapshot()
        self._finished = False

    def finish(self) -> None:
        if not self._finished:
            self.delta = self._device.snapshot() - self._start
            self._finished = True
