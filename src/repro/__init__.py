"""Write-limited sorts and joins for persistent memory.

A faithful, pure-Python reproduction of the system described in
"Write-limited sorts and joins for persistent memory" (Stratis D. Viglas,
PVLDB 7(5), 2014).

The package is organized as follows:

``repro.pmem``
    A simulated persistent-memory device with asymmetric read/write costs,
    plus the four persistence-layer backends of Section 3.2 of the paper
    (blocked memory, dynamic arrays, RAM disk, PMFS).

``repro.storage``
    Records, persistent collections, the DRAM bufferpool, and run files.

``repro.runtime``
    The deferred-materialization API of Section 3.1: ``split``,
    ``partition``, ``filter``, ``merge``; the control-flow graph; the
    operator context and its materialization rules.

``repro.sorts``
    External mergesort, multi-pass selection sort, segment sort, hybrid
    sort and lazy sort, together with their analytical cost models.

``repro.joins``
    Nested-loops, hash and Grace joins, plus the write-limited hybrid
    Grace/nested-loops join, segmented Grace join and lazy hash join.

``repro.query``
    The cost-based query layer: logical plans (``Scan``/``Filter``/
    ``Project``/``Join``/``GroupBy``/``OrderBy``), a planner that picks
    each node's physical operator with the Section 2 cost models, and an
    executor with per-node estimated-vs-actual I/O reporting.

``repro.shard``
    Sharded parallel query execution: collections hash/range-partitioned
    across N simulated devices (``ShardSet``/``ShardedCollection``), a
    sharded planner that decomposes queries into per-shard fragments with
    priced repartition exchanges (partition-wise joins, shard-local
    aggregation), and a concurrent executor running one worker per device
    under parent/child bufferpool shares, reporting per-shard estimated
    vs. actual I/O and the critical-path (max-over-shards) cost.

``repro.session``
    The top-level ``Session`` facade: one front door owning the backend
    (or shard set), the DRAM budget and the shared bufferpool, routing
    queries to the single-device or sharded executor through the uniform
    physical-operator protocol with per-edge materialize / pipeline /
    defer boundary decisions.  ``Session.submit()`` /
    ``Session.run_workload()`` expose the concurrent workload lifecycle;
    ``Session.query()`` is sugar over ``submit(...).result()``.

``repro.workload_mgmt``
    Multi-query workload management: admission control carving each
    admitted query a child bufferpool share sized from the planner's
    memory estimate (queue / shed / degrade policies on exhaustion), a
    scheduler co-scheduling fragments from different queries on one
    serial worker per simulated device, query handles, workload reports
    and the cost-model calibration aggregator.

``repro.workloads``
    Wisconsin-benchmark-style input generators.

``repro.analysis``
    Cost-surface computation, cost-model validation (Kendall's tau) and the
    lazy-hash-join progression of Table 1.

``repro.bench``
    The experiment harness used by the ``benchmarks/`` directory to
    regenerate every table and figure of the paper's evaluation.
"""

from repro.pmem.latency import LatencyModel
from repro.pmem.device import DeviceGeometry, PersistentMemoryDevice
from repro.pmem.backends import (
    BlockedMemoryBackend,
    DynamicArrayBackend,
    PersistenceBackend,
    PmfsBackend,
    RamDiskBackend,
    make_backend,
)
from repro.storage.schema import Schema, WISCONSIN_SCHEMA
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.runtime.context import OperatorContext
from repro.sorts import (
    ExternalMergeSort,
    HybridSort,
    LazySort,
    SegmentSort,
    SelectionSort,
)
from repro.joins import (
    GraceJoin,
    HybridGraceNestedLoopsJoin,
    LazyHashJoin,
    NestedLoopsJoin,
    SegmentedGraceJoin,
    SimpleHashJoin,
)
from repro.query import (
    Boundary,
    BoundaryKind,
    CostBasedPlanner,
    PhysicalOperator,
    PhysicalPlan,
    Query,
    QueryExecutor,
    QueryResult,
)
from repro.shard import (
    HashPartitioner,
    RangePartitioner,
    ShardedCollection,
    ShardedPhysicalPlan,
    ShardedPlanner,
    ShardedQueryExecutor,
    ShardedQueryResult,
    ShardSet,
)
from repro.session import Session
from repro.workload_mgmt import (
    ADMISSION_POLICIES,
    AdmissionController,
    AdmissionPolicy,
    CalibrationAggregator,
    DeviceWorkerPool,
    QueryHandle,
    QueryStatus,
    WorkloadResult,
    WorkloadScheduler,
)

__version__ = "1.0.0"

__all__ = [
    "LatencyModel",
    "DeviceGeometry",
    "PersistentMemoryDevice",
    "PersistenceBackend",
    "BlockedMemoryBackend",
    "DynamicArrayBackend",
    "RamDiskBackend",
    "PmfsBackend",
    "make_backend",
    "Schema",
    "WISCONSIN_SCHEMA",
    "CollectionStatus",
    "PersistentCollection",
    "Bufferpool",
    "MemoryBudget",
    "OperatorContext",
    "ExternalMergeSort",
    "SelectionSort",
    "SegmentSort",
    "HybridSort",
    "LazySort",
    "NestedLoopsJoin",
    "SimpleHashJoin",
    "GraceJoin",
    "HybridGraceNestedLoopsJoin",
    "SegmentedGraceJoin",
    "LazyHashJoin",
    "Query",
    "CostBasedPlanner",
    "PhysicalPlan",
    "PhysicalOperator",
    "Boundary",
    "BoundaryKind",
    "QueryExecutor",
    "QueryResult",
    "Session",
    "QueryHandle",
    "QueryStatus",
    "WorkloadResult",
    "WorkloadScheduler",
    "AdmissionController",
    "AdmissionPolicy",
    "ADMISSION_POLICIES",
    "CalibrationAggregator",
    "DeviceWorkerPool",
    "ShardSet",
    "ShardedCollection",
    "HashPartitioner",
    "RangePartitioner",
    "ShardedPlanner",
    "ShardedPhysicalPlan",
    "ShardedQueryExecutor",
    "ShardedQueryResult",
    "__version__",
]
