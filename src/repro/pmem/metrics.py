"""I/O accounting for the simulated persistent-memory device.

The paper instruments its C++ implementation to report the number of
cacheline reads and writes per algorithm (the tables under Figures 5 and
7).  :class:`IOCounters` is the equivalent bookkeeping here: every access
routed through :class:`repro.pmem.device.PersistentMemoryDevice` updates the
counters, and experiments take immutable :class:`IOSnapshot` deltas around
the region of interest.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IOCounters:
    """Mutable running totals of device activity.

    Cacheline counts are kept as floats: the paper explicitly drops floor
    and ceiling functions from its analysis because buffers are small, and
    the simulator mirrors that by charging fractional cachelines for
    transfers that are not cacheline multiples.  Byte totals are likewise
    accumulated exactly (fractional-cacheline transfers may carry
    fractional bytes); they are rounded to integers only when a snapshot
    is taken, so per-charge truncation cannot drift the totals downward.
    """

    cacheline_reads: float = 0.0
    cacheline_writes: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    read_calls: int = 0
    write_calls: int = 0
    #: Simulated time spent on data transfer (reads + writes), nanoseconds.
    transfer_ns: float = 0.0
    #: Simulated software overhead (system calls, copies bookkeeping), ns.
    overhead_ns: float = 0.0
    #: Per-label overhead breakdown; keys are backend-provided labels such as
    #: ``"syscall"`` or ``"reallocation"``.
    overhead_breakdown: dict = field(default_factory=dict)

    @property
    def total_ns(self) -> float:
        """Total simulated time: data transfer plus software overheads."""
        return self.transfer_ns + self.overhead_ns

    @property
    def total_cachelines(self) -> float:
        return self.cacheline_reads + self.cacheline_writes

    def record_read(
        self, cachelines: float, nbytes: int | float, cost_ns: float, count: int = 1
    ) -> None:
        """Record ``count`` identical reads of the given per-read figures."""
        self.cacheline_reads += cachelines * count
        self.bytes_read += nbytes * count
        self.read_calls += count
        self.transfer_ns += cost_ns * count

    def record_write(
        self, cachelines: float, nbytes: int | float, cost_ns: float, count: int = 1
    ) -> None:
        """Record ``count`` identical writes of the given per-write figures."""
        self.cacheline_writes += cachelines * count
        self.bytes_written += nbytes * count
        self.write_calls += count
        self.transfer_ns += cost_ns * count

    def record_overhead(self, cost_ns: float, label: str = "other") -> None:
        self.overhead_ns += cost_ns
        self.overhead_breakdown[label] = (
            self.overhead_breakdown.get(label, 0.0) + cost_ns
        )

    def snapshot(self) -> "IOSnapshot":
        """An immutable copy of the current totals.

        Byte totals are exposed as integers here (rounded once, over the
        exact accumulated sums) and the per-label overhead breakdown is
        carried along so snapshot deltas can attribute overhead to labels.
        """
        return IOSnapshot(
            cacheline_reads=self.cacheline_reads,
            cacheline_writes=self.cacheline_writes,
            bytes_read=int(round(self.bytes_read)),
            bytes_written=int(round(self.bytes_written)),
            read_calls=self.read_calls,
            write_calls=self.write_calls,
            transfer_ns=self.transfer_ns,
            overhead_ns=self.overhead_ns,
            overhead_breakdown=dict(self.overhead_breakdown),
        )

    def reset(self) -> None:
        """Zero every counter (used between benchmark repetitions)."""
        self.cacheline_reads = 0.0
        self.cacheline_writes = 0.0
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.read_calls = 0
        self.write_calls = 0
        self.transfer_ns = 0.0
        self.overhead_ns = 0.0
        self.overhead_breakdown = {}


@dataclass(frozen=True)
class IOSnapshot:
    """Immutable view of device activity, supporting deltas.

    ``IOSnapshot`` instances subtract, which is how experiments isolate the
    I/O performed by a single algorithm run::

        before = device.snapshot()
        algorithm.sort(data)
        cost = device.snapshot() - before
    """

    cacheline_reads: float = 0.0
    cacheline_writes: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    read_calls: int = 0
    write_calls: int = 0
    transfer_ns: float = 0.0
    overhead_ns: float = 0.0
    #: Per-label overhead attribution (e.g. ``"syscall"``, ``"reallocation"``);
    #: subtracts and adds label-wise along with the scalar counters.
    overhead_breakdown: dict = field(default_factory=dict)

    @property
    def total_ns(self) -> float:
        return self.transfer_ns + self.overhead_ns

    @property
    def total_seconds(self) -> float:
        return self.total_ns / 1e9

    @property
    def total_cachelines(self) -> float:
        return self.cacheline_reads + self.cacheline_writes

    @property
    def write_fraction(self) -> float:
        """Fraction of cacheline traffic that was writes (0 when idle)."""
        total = self.total_cachelines
        if total == 0:
            return 0.0
        return self.cacheline_writes / total

    def weighted_cachelines(self, write_read_ratio: float) -> float:
        """Cacheline traffic with writes weighted by ``lambda``.

        ``reads + lambda * writes`` is the unit the paper's cost models
        are expressed in; dividing a cost in ns by the read latency gives
        the same figure, which is what ``explain()`` renders as ``wcl``.
        """
        return self.cacheline_reads + write_read_ratio * self.cacheline_writes

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            cacheline_reads=self.cacheline_reads - other.cacheline_reads,
            cacheline_writes=self.cacheline_writes - other.cacheline_writes,
            bytes_read=self.bytes_read - other.bytes_read,
            bytes_written=self.bytes_written - other.bytes_written,
            read_calls=self.read_calls - other.read_calls,
            write_calls=self.write_calls - other.write_calls,
            transfer_ns=self.transfer_ns - other.transfer_ns,
            overhead_ns=self.overhead_ns - other.overhead_ns,
            overhead_breakdown=_combine_breakdowns(
                self.overhead_breakdown, other.overhead_breakdown, sign=-1.0
            ),
        )

    def __add__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            cacheline_reads=self.cacheline_reads + other.cacheline_reads,
            cacheline_writes=self.cacheline_writes + other.cacheline_writes,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            read_calls=self.read_calls + other.read_calls,
            write_calls=self.write_calls + other.write_calls,
            transfer_ns=self.transfer_ns + other.transfer_ns,
            overhead_ns=self.overhead_ns + other.overhead_ns,
            overhead_breakdown=_combine_breakdowns(
                self.overhead_breakdown, other.overhead_breakdown, sign=1.0
            ),
        )

    def as_dict(self) -> dict:
        """Plain-dictionary form, convenient for benchmark reporting."""
        return {
            "cacheline_reads": self.cacheline_reads,
            "cacheline_writes": self.cacheline_writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "read_calls": self.read_calls,
            "write_calls": self.write_calls,
            "transfer_ns": self.transfer_ns,
            "overhead_ns": self.overhead_ns,
            "overhead_breakdown": dict(self.overhead_breakdown),
            "total_ns": self.total_ns,
        }


def sum_snapshots(snapshots) -> IOSnapshot:
    """Element-wise sum of snapshots (e.g. the shards of one execution).

    Summing per-shard deltas gives the total device traffic of a sharded
    run, directly comparable to a single-device snapshot delta.
    """
    total = IOSnapshot()
    for snapshot in snapshots:
        total = total + snapshot
    return total


def critical_path_ns(snapshots) -> float:
    """Simulated makespan of concurrent snapshots: the slowest one.

    Devices execute independently in a sharded step, so the step's
    simulated elapsed time is the maximum -- not the sum -- of the
    per-device deltas.
    """
    return max((snapshot.total_ns for snapshot in snapshots), default=0.0)


def _combine_breakdowns(left: dict, right: dict, sign: float) -> dict:
    """Label-wise ``left + sign * right``, dropping labels that cancel."""
    combined = {}
    for label in left.keys() | right.keys():
        value = left.get(label, 0.0) + sign * right.get(label, 0.0)
        if value != 0.0:
            combined[label] = value
    return combined
