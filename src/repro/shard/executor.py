"""Execution of every session query: sharded physical plans.

A single device is the one-shard case: ``Session`` plans each query as a
:class:`~repro.shard.planner.ShardedPhysicalPlan` (a one-shard one for a
query over one device's collections) and runs it here.  The executor
walks the plan's steps in order and runs each step's
per-shard tasks on a :class:`~repro.workload_mgmt.workers.DeviceWorkerPool`
-- one serial worker per simulated device:

* a :class:`~repro.shard.planner.FragmentStep` executes its per-shard
  physical plans through ordinary single-device
  :class:`~repro.query.executor.QueryExecutor` instances, each under that
  shard's child share of the bufferpool the executor was given;
* an :class:`~repro.shard.planner.ExchangeStep` runs in two barrier
  phases -- every source shard scans its input and buckets records by
  destination (charging reads on the source device when the input is
  materialized), then every destination shard bulk-appends its bucket
  (charging writes on the destination device).

Thread-safety comes from the worker pool: all work touching device ``i``
is serialized on worker ``i``, so the per-device counters are
single-threaded *even when the pool is shared with other concurrently
running queries* (the workload scheduler passes one pool to every
executor).  For the same reason every task measures its own I/O with a
device snapshot delta taken on the worker -- a task-local measurement is
exact under co-scheduling, where a coordinator-side snapshot around a
step would absorb interleaved work from other queries.

The bufferpool handed to the executor is treated as externally owned
(typically a per-query share carved by the admission controller): the
executor carves per-shard child shares from it and closes only those,
never the pool itself.

The result merges the per-shard outputs (an ordered merge for a root
OrderBy, concatenation otherwise) into one in-DRAM collection -- with one
shard, the final fragment's output is the result as it is -- sums the
per-shard :class:`~repro.pmem.metrics.IOSnapshot` deltas, and reports the
critical path: per step, the slowest shard's simulated time, summed over
steps -- the makespan of the parallel execution.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.pmem.metrics import IOSnapshot, critical_path_ns, sum_snapshots
from repro.query.executor import QueryExecutor, QueryResult
from repro.shard.collection import ShardSet
from repro.shard.planner import (
    ExchangeStep,
    FragmentStep,
    ShardedPhysicalPlan,
    ShardedPlanner,
)
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.workload_mgmt.workers import DeviceWorkerPool

_result_counter = itertools.count()


@dataclass
class ShardedQueryResult:
    """Outcome of one sharded query execution."""

    plan: ShardedPhysicalPlan
    #: Final output: the one fragment's output with one shard, else the
    #: shard outputs merged in DRAM.
    output: PersistentCollection
    #: Summed device I/O across every shard.
    io: IOSnapshot
    #: Per-shard I/O over the whole execution, in shard order.
    per_shard_io: list[IOSnapshot]
    #: Simulated makespan: per step, the slowest shard, summed over steps.
    critical_path_ns: float
    #: Critical-path cacheline traffic (reads + writes of the slowest
    #: shard per step, summed over steps).
    critical_path_cachelines: float
    #: Per-step, per-shard I/O deltas keyed by step index.
    step_io: dict = field(default_factory=dict)
    #: Per-node actuals of every fragment, keyed by ``id(planned_node)``.
    executions: dict = field(default_factory=dict)
    #: Records moved per exchange step, keyed by step index.
    exchange_records: dict = field(default_factory=dict)

    @property
    def records(self) -> list[tuple]:
        return self.output.records

    @property
    def simulated_seconds(self) -> float:
        """Parallel wall-clock on the simulated devices (the makespan)."""
        return self.critical_path_ns / 1e9

    @property
    def summed_seconds(self) -> float:
        """Total device-time across all shards (the resource cost)."""
        return self.io.total_ns / 1e9

    def explain(self) -> str:
        """The sharded plan rendering with per-shard estimated vs. actual I/O."""
        return self.plan.explain(self)


class ShardedQueryExecutor:
    """Runs sharded plans concurrently over a shard set.

    Args:
        shard_set: the devices/backends the plan's collections live on.
        budget: parent DRAM budget shared by all concurrent fragments.
        bufferpool: externally-owned pool (e.g. the query's admitted
            share) the per-shard child shares are carved from; a fresh
            pool over ``budget`` when omitted.  Shares are reserved up
            front, so concurrent fragments can never jointly exceed it,
            and the executor never closes the pool itself.
        worker_pool: a shared :class:`DeviceWorkerPool` to co-schedule
            this query's tasks with other queries on the same devices
            (the workload scheduler passes its own); a private pool is
            created (and shut down) per execution when omitted.
    """

    def __init__(
        self,
        shard_set: ShardSet,
        budget: MemoryBudget,
        bufferpool: Bufferpool | None = None,
        boundary_policy: str = "cost",
        worker_pool: DeviceWorkerPool | None = None,
    ) -> None:
        self.shard_set = shard_set
        self.budget = budget
        self.bufferpool = bufferpool if bufferpool is not None else Bufferpool(budget)
        self.boundary_policy = boundary_policy
        self.worker_pool = worker_pool

    def execute(self, query) -> ShardedQueryResult:
        """Plan (when needed) and run a sharded query."""
        if isinstance(query, ShardedPhysicalPlan):
            plan = query
            if plan.shard_set is not self.shard_set:
                raise ConfigurationError(
                    "the plan was built for a different shard set than this "
                    "executor's; its fragments and I/O accounting would land "
                    "on the wrong devices"
                )
        else:
            plan = ShardedPlanner(
                self.shard_set, self.budget, boundary_policy=self.boundary_policy
            ).plan(query)
        pool = self.worker_pool
        owns_pool = pool is None
        if owns_pool:
            pool = DeviceWorkerPool(self.shard_set.devices)
        shares: list[Bufferpool] = []
        try:
            for index in range(plan.num_shards):
                shares.append(
                    self.bufferpool.share(
                        nbytes=plan.shard_budget.nbytes, owner=f"shard{index}"
                    )
                )
            return self._run(plan, shares, pool)
        finally:
            for share in shares:
                share.close()
            if owns_pool:
                pool.shutdown()

    # ------------------------------------------------------------------ #
    # Step execution.
    # ------------------------------------------------------------------ #
    def _run(self, plan, shares, pool) -> ShardedQueryResult:
        num_shards = plan.num_shards
        fragment_outputs: dict[int, list[PersistentCollection]] = {}
        executions: dict = {}
        exchange_records: dict[int, int] = {}
        step_io: dict[int, list[IOSnapshot]] = {}
        critical_ns = 0.0
        critical_cachelines = 0.0
        for step in plan.steps:
            if isinstance(step, FragmentStep):
                results = self._run_fragments(step, plan, shares, pool)
                fragment_outputs[step.index] = [r.output for r in results]
                for result in results:
                    executions.update(result.executions)
                # A fragment's QueryResult.io is the device delta taken
                # around its run *on its own serial worker*: exact even
                # when other queries interleave on the devices.
                deltas = [result.io for result in results]
                critical_ns += critical_path_ns(deltas)
                critical_cachelines += max(
                    delta.total_cachelines for delta in deltas
                )
            elif isinstance(step, ExchangeStep):
                moved, deltas, phase_ns, phase_cachelines = self._run_exchange(
                    step, fragment_outputs, pool
                )
                exchange_records[step.index] = moved
                critical_ns += phase_ns
                critical_cachelines += phase_cachelines
            else:  # pragma: no cover - the planner only emits the two kinds
                raise ConfigurationError(f"unknown plan step {type(step).__name__}")
            step_io[step.index] = deltas
        per_shard_io = [
            sum_snapshots(step_io[step.index][shard] for step in plan.steps)
            for shard in range(num_shards)
        ]
        self._release_exchange_stores(plan)
        outputs = fragment_outputs[plan.final_step_index]
        output = outputs[0] if num_shards == 1 else self._merge(plan, outputs)
        return ShardedQueryResult(
            plan=plan,
            output=output,
            io=sum_snapshots(per_shard_io),
            per_shard_io=per_shard_io,
            critical_path_ns=critical_ns,
            critical_path_cachelines=critical_cachelines,
            step_io=step_io,
            executions=executions,
            exchange_records=exchange_records,
        )

    def _run_fragments(
        self, step: FragmentStep, plan, shares, pool
    ) -> list[QueryResult]:
        def run_fragment(index: int) -> QueryResult:
            executor = QueryExecutor(
                self.shard_set.backends[index],
                plan.shard_budget,
                bufferpool=shares[index],
            )
            return executor.execute(step.fragments[index])

        return pool.map_shards(run_fragment, self.shard_set.devices)

    def _run_exchange(
        self, step: ExchangeStep, fragment_outputs, pool
    ) -> tuple[int, list[IOSnapshot], float, float]:
        """Run the two exchange phases; returns (records moved, per-shard
        deltas, critical ns, critical cachelines).

        The phases are barriers -- every destination waits for the slowest
        reader before writing -- so the step's critical path is the
        slowest read *plus* the slowest write, matching
        :attr:`ExchangeStep.est_critical_ns`, not the maximum of one
        device's combined delta.  Each phase task measures its own device
        delta on the device's serial worker.
        """
        if step.sources is not None:
            sources = step.sources
        else:
            sources = fragment_outputs[step.source_fragment]
        num_shards = len(step.dests)
        shard_of = step.partitioner.shard_of

        # Phase 1 (parallel per source shard): scan and bucket.  Reads are
        # charged on the source device iff the source is materialized.
        def read_and_bucket(index: int):
            device = self.shard_set.devices[index]
            before = device.snapshot()
            buckets: list[list[tuple]] = [[] for _ in range(num_shards)]
            for block in sources[index].scan_blocks():
                for record in block:
                    buckets[shard_of(record)].append(record)
            return buckets, device.snapshot() - before

        read_results = pool.map_shards(read_and_bucket, self.shard_set.devices)
        all_buckets = [buckets for buckets, _ in read_results]
        read_deltas = [delta for _, delta in read_results]

        # Phase 2 (parallel per destination shard): bulk-append the
        # destination's share from every source, charging its own device.
        def write_destination(dest_index: int):
            device = self.shard_set.devices[dest_index]
            before = device.snapshot()
            dest = step.dests[dest_index]
            dest.clear()
            # Destinations are planned in the MEMORY state; (re)attach the
            # backend store now so the writes charge this shard's device.
            dest.backend.ensure_store(dest.name)
            dest.mark_materialized()
            moved = 0
            for buckets in all_buckets:
                bucket = buckets[dest_index]
                dest.extend(bucket)
                moved += len(bucket)
            dest.seal()
            return moved, device.snapshot() - before

        write_results = pool.map_shards(write_destination, self.shard_set.devices)
        moved = sum(count for count, _ in write_results)
        write_deltas = [delta for _, delta in write_results]
        deltas = [read + write for read, write in zip(read_deltas, write_deltas)]
        phase_ns = critical_path_ns(read_deltas) + critical_path_ns(write_deltas)
        phase_cachelines = max(
            delta.total_cachelines for delta in read_deltas
        ) + max(delta.total_cachelines for delta in write_deltas)
        return moved, deltas, phase_ns, phase_cachelines

    @staticmethod
    def _release_exchange_stores(plan) -> None:
        """Return the exchange destinations' device allocation.

        The repartitioned intermediates have been consumed by their
        fragments; dropping the backend stores (releasing capacity, no
        I/O charge) keeps a long-lived shard set from accumulating
        allocation across queries.  The collection objects keep their
        records for inspection, and a re-execution of the same plan
        re-materializes the stores in the write phase.
        """
        for step in plan.steps:
            if not isinstance(step, ExchangeStep):
                continue
            for dest in step.dests:
                if dest.backend.has_store(dest.name):
                    dest.backend.drop_store(dest.name)

    # ------------------------------------------------------------------ #
    # Result merge.
    # ------------------------------------------------------------------ #
    def _merge(self, plan, outputs: list[PersistentCollection]):
        merged = PersistentCollection(
            name=f"sharded-result-{next(_result_counter)}",
            schema=plan.root_schema,
            status=CollectionStatus.MEMORY,
        )
        merge_kind, merge_key = plan.merge
        if merge_kind == "ordered":
            merged.extend(
                heapq.merge(
                    *(output.records for output in outputs),
                    key=lambda record: record[merge_key],
                )
            )
        else:
            for output in outputs:
                merged.extend(output.records)
        merged.seal()
        return merged
