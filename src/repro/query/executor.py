"""Physical plan execution over the uniform operator protocol.

The executor runs a :class:`~repro.query.planner.PhysicalPlan` bottom-up.
Every node -- scan, filter, project, sort, join, grouped aggregation --
is wrapped in a :class:`~repro.query.physical.PhysicalOperator` and
driven through ``open()``/``blocks()``/``close()``; what happens to the
operator's output stream is the plan's per-edge
:class:`~repro.query.physical.Boundary` decision:

* ``MATERIALIZE`` edges drain the block stream onto the persistent
  device (the classical settlement write);
* ``PIPELINE`` edges keep the intermediate in DRAM, so the consumer
  reads it for free;
* ``DEFER`` edges produce nothing: the filter's derivation is recorded
  in the execution's shared :class:`~repro.runtime.context.OperatorContext`
  (the Section 3.1 control-flow graph), its rules assess the declared
  collection, and -- if it stays deferred -- the consumer re-derives the
  records from the source on every scan.

Every operator registers its DRAM workspace with the executor's shared
:class:`~repro.storage.bufferpool.Bufferpool`, so operator workspaces are
enforced against the budget across the whole plan.  Pipelined
intermediates themselves are *not* pool-accounted (operators already
reserve the full budget while running, so staging them in the pool would
deadlock it); the planner's per-edge feasibility gate -- an intermediate
only pipelines when its estimated size fits the budget -- is what bounds
them, and a forced ``boundary_policy="pipeline"`` deliberately bypasses
that gate.  The device I/O of every node is snapshotted individually:
:meth:`QueryResult.explain` shows estimated vs. actual cacheline I/O and
elapsed device nanoseconds per node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.pmem.backends.base import PersistenceBackend
from repro.pmem.metrics import IOSnapshot
from repro.query.logical import Scan
from repro.query.physical import BoundaryKind, build_operator
from repro.query.planner import CostBasedPlanner, PhysicalPlan, PlannedNode
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.collection import (
    AppendBuffer,
    CollectionStatus,
    PersistentCollection,
)

_output_counter = itertools.count()
_context_counter = itertools.count()


@dataclass
class NodeExecution:
    """Actuals of one executed plan node."""

    node: PlannedNode
    output: PersistentCollection
    #: Device I/O attributable to this node (children excluded).
    io: IOSnapshot
    records: int
    details: dict = field(default_factory=dict)

    @property
    def elapsed_ns(self) -> float:
        """Simulated device time this node spent (reads+writes+overhead)."""
        return self.io.total_ns


@dataclass
class QueryResult:
    """Outcome of one query execution."""

    plan: PhysicalPlan
    output: PersistentCollection
    #: Total device I/O of the execution (all nodes).
    io: IOSnapshot
    #: Per-node actuals keyed by ``id(planned_node)``.
    executions: dict = field(default_factory=dict)
    #: The Section 3.1 runtime context backing DEFER boundaries, when any
    #: edge deferred (its graph, rules and decisions are inspectable).
    runtime_context: object = None

    @property
    def records(self) -> list[tuple]:
        return self.output.records

    @property
    def simulated_seconds(self) -> float:
        return self.io.total_ns / 1e9

    def explain(self) -> str:
        """The plan rendering with estimated vs. actual I/O per node."""
        return self.plan.explain(self.executions)


class _ExecutionState:
    """Per-execution scratch: node actuals plus the lazy runtime context."""

    def __init__(self, backend: PersistenceBackend) -> None:
        self.backend = backend
        self.executions: dict = {}
        self.context = None

    def context_factory(self):
        """The execution's shared OperatorContext, created on first use."""
        if self.context is None:
            from repro.runtime.context import OperatorContext

            self.context = OperatorContext(
                self.backend, name_prefix=f"query-ctx-{next(_context_counter)}"
            )
        return self.context


class QueryExecutor:
    """Runs physical plans against a backend under one shared bufferpool.

    Args:
        backend: persistence backend hosting inputs, intermediates and
            (optionally) the final output.
        budget: DRAM budget; also used to plan when :meth:`execute` is
            handed an unplanned logical query.
        bufferpool: shared pool every operator registers its workspace
            with; a fresh pool over ``budget`` when omitted.
        materialize_result: write the final output to the persistent
            device (the paper's experiments factor this write out, so the
            default keeps the root in DRAM).
        boundary_policy: how the planner places operator boundaries when
            :meth:`execute` plans a logical query itself; see
            :class:`~repro.query.planner.CostBasedPlanner`.
    """

    def __init__(
        self,
        backend: PersistenceBackend,
        budget: MemoryBudget,
        bufferpool: Bufferpool | None = None,
        materialize_result: bool = False,
        boundary_policy: str = "cost",
    ) -> None:
        self.backend = backend
        self.budget = budget
        self.bufferpool = bufferpool if bufferpool is not None else Bufferpool(budget)
        self.materialize_result = materialize_result
        self.boundary_policy = boundary_policy

    def execute(self, query) -> QueryResult:
        """Plan (when needed) and run a query, collecting per-node I/O."""
        if getattr(query, "is_sharded_plan", False):
            raise ConfigurationError(
                "this is a sharded plan; run it through "
                "repro.shard.ShardedQueryExecutor (or repro.Session) "
                "instead of the single-device QueryExecutor"
            )
        if isinstance(query, PhysicalPlan):
            plan = query
        else:
            plan = CostBasedPlanner(
                self.backend, self.budget, boundary_policy=self.boundary_policy
            ).plan(query)
        if getattr(plan, "is_sharded_plan", False):
            raise ConfigurationError(
                "the query scans sharded collections; run it through "
                "repro.shard.ShardedQueryExecutor (or repro.Session) "
                "instead of the single-device QueryExecutor"
            )
        if self.materialize_result:
            plan.materialize_root()
        device = self.backend.device
        state = _ExecutionState(self.backend)
        before = device.snapshot()
        root_execution = self._execute_node(plan.root, state)
        total = device.snapshot() - before
        self._backfill_deferred(state)
        return QueryResult(
            plan=plan,
            output=root_execution.output,
            io=total,
            executions=state.executions,
            runtime_context=state.context,
        )

    # ------------------------------------------------------------------ #
    # Node execution.
    # ------------------------------------------------------------------ #
    def _execute_node(self, node: PlannedNode, state: _ExecutionState) -> NodeExecution:
        inputs = [
            self._execute_node(child, state).output for child in node.children
        ]
        device = self.backend.device
        before = device.snapshot()
        operator = build_operator(
            node,
            inputs,
            backend=self.backend,
            bufferpool=self.bufferpool,
            context_factory=state.context_factory,
        )
        operator.open()
        output = self._settle(node, operator)
        operator.close()
        io = device.snapshot() - before
        execution = NodeExecution(
            node=node,
            output=output,
            io=io,
            records=0 if output.is_deferred else len(output.records),
            details=operator.details,
        )
        state.executions[id(node)] = execution
        return execution

    def _settle(self, node: PlannedNode, operator) -> PersistentCollection:
        """Realize the operator's output per the node's boundary decision."""
        if isinstance(node.logical, Scan):
            return operator.output
        kind = node.boundary.kind
        if kind is BoundaryKind.DEFER:
            # Nothing to drain: the consumer re-derives (or, if the rules
            # overrode the deferral, the runtime already produced it).
            return operator.output
        if (
            kind is BoundaryKind.PIPELINE
            and operator.output is not None
            and operator.output.is_memory
        ):
            return operator.output
        sink = AppendBuffer(self._sink(node))
        for block in operator.blocks():
            sink.extend(block)
        sink.seal()
        return sink.collection

    def _sink(self, node: PlannedNode) -> PersistentCollection:
        name = f"query-{node.operator.lower()}-{next(_output_counter)}"
        if node.materialized:
            return PersistentCollection(
                name=name,
                backend=self.backend,
                schema=node.schema,
                status=CollectionStatus.MATERIALIZED,
            )
        return PersistentCollection(
            name=name, schema=node.schema, status=CollectionStatus.MEMORY
        )

    def _backfill_deferred(self, state: _ExecutionState) -> None:
        """Fill in actuals for edges that stayed deferred.

        A deferred node never counts its own records at execution time;
        after the plan finishes, the runtime context knows how many
        records the consumer actually re-derived.
        """
        if state.context is None:
            return
        for execution in state.executions.values():
            if not execution.details.get("deferred"):
                continue
            if not execution.output.is_deferred:
                continue
            name = execution.output.name
            count = state.context.last_reconstructed_records(name)
            if count is not None:
                execution.records = count
            else:
                # No derivation ran to exhaustion, so the true cardinality
                # is unknown; fall back to the estimate and say so.
                execution.records = int(round(execution.node.est_records))
                execution.details["records_estimated"] = True
            execution.details["reconstructions"] = state.context.reconstruction_count(
                name
            )
