"""Concurrent workload scheduling over shared devices.

The scheduler turns the admission controller's decisions into running
queries while preserving the one invariant the simulated accounting
depends on: *per-device serialization across queries*.  All work that
touches device ``i`` — a whole single-device query, or one shard's
fragment/exchange task of a sharded query — is funneled through device
``i``'s serial worker in the shared :class:`DeviceWorkerPool`, so
fragments from different queries are co-scheduled on one worker-per-
device pool exactly as fragments of a single query used to be.

Execution shape per admitted query:

* a **single-device** query is one task on its device's worker (the
  :class:`~repro.query.executor.QueryExecutor` runs start to finish on
  that worker thread, under the query's admitted bufferpool share);
* a **sharded** query gets a lightweight coordinator thread that walks
  the plan's steps and submits each step's per-shard tasks to the shared
  pool (the refitted :class:`~repro.shard.executor.ShardedQueryExecutor`
  measures every task's I/O locally on the worker, so interleaved
  queries never pollute each other's snapshots).

Simulated time: devices only advance their clocks by doing work, so the
scheduler's *busy clock* — the maximum over devices of simulated busy
nanoseconds since the scheduler started — is the workload's notion of
"now".  A query's ``queue_wait_ns`` is the busy-clock delta between
submission and dispatch; its ``run_ns`` is its own critical path.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.query.executor import QueryExecutor
from repro.query.planner import CostBasedPlanner, PhysicalPlan
from repro.shard.planner import ShardedPlanner
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.workload_mgmt.admission import AdmissionController
from repro.workload_mgmt.calibration import CalibrationAggregator
from repro.workload_mgmt.handle import QueryHandle
from repro.workload_mgmt.workers import DeviceWorkerPool


class _SlotGate:
    """A non-blocking counting gate bounding concurrently running queries."""

    def __init__(self, slots: int) -> None:
        if slots <= 0:
            raise ConfigurationError("max_workers must be positive")
        self.slots = slots
        self._semaphore = threading.BoundedSemaphore(slots)

    def try_acquire(self) -> bool:
        return self._semaphore.acquire(blocking=False)

    def release(self) -> None:
        self._semaphore.release()


class WorkloadScheduler:
    """Admits, plans, and co-schedules a session's concurrent queries.

    The scheduler deliberately holds no reference to its ``Session`` (the
    session routes queries and hands over the pieces), so a dropped
    session is reclaimed promptly and its worker threads exit.

    Args:
        bufferpool: the session pool admitted shares are carved from.
        budget: the session budget (reference plans are priced under it).
        devices: every simulated device the session can touch, in shard
            order; one serial worker is created per device.
        policy: default admission policy name or instance.
        calibration: aggregator fed every completed query's result.
    """

    def __init__(
        self,
        bufferpool: Bufferpool,
        budget: MemoryBudget,
        devices: list,
        policy="queue",
        calibration: Optional[CalibrationAggregator] = None,
    ) -> None:
        self.budget = budget
        self.devices = list(devices)
        self.worker_pool = DeviceWorkerPool(len(self.devices))
        self.controller = AdmissionController(bufferpool, policy=policy)
        self.calibration = calibration
        self._baseline_ns = [device.snapshot().total_ns for device in self.devices]
        self._lock = threading.Lock()
        self._running: set[QueryHandle] = set()
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Submission.
    # ------------------------------------------------------------------ #
    def next_seq(self) -> int:
        with self._lock:
            seq = self._seq
            self._seq += 1
            return seq

    def submit(
        self, handle: QueryHandle, *, policy=None, dispatch: bool = True
    ) -> QueryHandle:
        """Admit (or queue/shed/degrade) a routed handle; maybe dispatch.

        The handle arrives routed by the session (its ``_shard_set`` /
        ``_backend`` / ``_device_index`` fields are set).  With
        ``dispatch=False`` an admitted handle holds its share but does
        not start until :meth:`start` — ``run_workload`` uses this to
        make admission decisions for a whole batch before any query can
        finish (and thereby free memory), which keeps the ``shed``
        policy's rejections deterministic.
        """
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    "the session is closed; no further queries can be submitted"
                )
        handle._scheduler = self
        handle._clock_submit = self.busy_clock_ns()
        self._prepare(handle)
        if self.controller.try_admit(handle, policy=policy):
            self._record_queue_wait(handle)
            self._finalize(handle)
            if not dispatch:
                handle._awaiting_start = True
            elif self._claim(handle):
                self._dispatch(handle)
        return handle

    def _record_queue_wait(self, handle: QueryHandle) -> None:
        """Stamp the admission wait: simulated busy ns between submit and
        the moment the share was carved (not dispatch, which can lag by
        wall-clock scheduling jitter without any simulated time passing
        for the query)."""
        handle.queue_wait_ns = max(
            0.0, self.busy_clock_ns() - handle._clock_submit
        )

    def start(self, handle: QueryHandle) -> None:
        """Dispatch a handle that :meth:`submit` admitted with
        ``dispatch=False``.

        A no-op for every other handle: a queued one is dispatched by
        the release that admits it, which may be running on a worker
        thread right now, so its share alone does not make it ours.
        """
        if handle._awaiting_start and self._claim(handle):
            self._dispatch(handle)

    def _claim(self, handle: QueryHandle) -> bool:
        """Take the sole right to dispatch or abandon ``handle``.

        One test-and-set under the scheduler lock: of ``start``, the
        release path and ``abandon``, exactly one wins per handle.
        """
        with self._lock:
            if handle._dispatched:
                return False
            handle._dispatched = True
            return True

    def busy_clock_ns(self) -> float:
        """Simulated 'now': the busiest device's ns since startup."""
        return max(
            (
                device.snapshot().total_ns - baseline
                for device, baseline in zip(self.devices, self._baseline_ns)
            ),
            default=0.0,
        )

    def device_busy_ns(self) -> list[float]:
        """Per-device simulated busy ns since scheduler startup."""
        return [
            device.snapshot().total_ns - baseline
            for device, baseline in zip(self.devices, self._baseline_ns)
        ]

    # ------------------------------------------------------------------ #
    # Planning.
    # ------------------------------------------------------------------ #
    def _prepare(self, handle: QueryHandle) -> None:
        """Reference-plan the query and size its admission request."""
        from repro.workload_mgmt.admission import estimate_plan_memory_bytes

        query = handle.query
        if isinstance(query, PhysicalPlan) or getattr(
            query, "is_sharded_plan", False
        ):
            # Already planned: the plan's own budget is the request (its
            # operators will reserve exactly that much workspace).
            handle._preplanned = True
            handle._reference_plan = query
            requested = self._clamp_request(query.budget.nbytes)
        elif handle._memory_bytes is not None:
            # An explicit request: plan straight under it, so admission
            # at the requested size reuses this plan instead of planning
            # twice.
            requested = self._clamp_request(handle._memory_bytes)
            budget = MemoryBudget(
                requested,
                cacheline_bytes=self.budget.cacheline_bytes,
                block_bytes=self.budget.block_bytes,
            )
            handle._reference_plan = self._plan(query, handle, budget)
        else:
            handle._reference_plan = self._plan(query, handle, self.budget)
            requested = self._clamp_request(
                estimate_plan_memory_bytes(handle._reference_plan)
            )
        handle.requested_bytes = requested
        handle.original_requested_bytes = requested

    def _clamp_request(self, requested: int) -> int:
        return max(
            min(int(requested), self.budget.nbytes),
            self.controller.floor_bytes,
        )

    def _plan(self, query, handle: QueryHandle, budget: MemoryBudget):
        if handle._shard_set is not None:
            return ShardedPlanner(
                handle._shard_set, budget, boundary_policy=handle._boundary_policy
            ).plan(query)
        return CostBasedPlanner(
            handle._backend, budget, boundary_policy=handle._boundary_policy
        ).plan(query)

    def _finalize(self, handle: QueryHandle) -> None:
        """Fix the executable plan for the admitted budget.

        A query admitted under less memory than its reference plan was
        priced with (an explicit smaller request, or the ``degrade``
        policy) is replanned under the admitted budget, so its operators
        size — and reserve — workspace that actually fits the share.
        """
        reference = handle._reference_plan
        if handle._preplanned or handle.admitted_bytes == reference.budget.nbytes:
            handle._plan = reference
            return
        budget = MemoryBudget(
            handle.admitted_bytes,
            cacheline_bytes=self.budget.cacheline_bytes,
            block_bytes=self.budget.block_bytes,
        )
        handle._plan = self._plan(handle.query, handle, budget)

    # ------------------------------------------------------------------ #
    # Dispatch and completion.
    # ------------------------------------------------------------------ #
    def _dispatch(self, handle: QueryHandle) -> None:
        """Start an admitted, finalized handle; the caller holds its claim."""
        handle._mark_running()
        with self._lock:
            self._running.add(handle)
        if handle._shard_set is not None:
            thread = threading.Thread(
                target=self._run_sharded,
                args=(handle,),
                name=f"workload-query-{handle.seq}",
                daemon=True,
            )
            thread.start()
        else:
            self.worker_pool.submit(handle._device_index, self._run_single, handle)

    def _run_single(self, handle: QueryHandle) -> None:
        """Runs on the query's device worker thread."""
        result, run_ns, error = None, 0.0, None
        try:
            executor = QueryExecutor(
                handle._backend,
                handle._share.budget,
                bufferpool=handle._share,
                materialize_result=handle._materialize_result,
            )
            result = executor.execute(handle._plan)
            run_ns = result.io.total_ns
        except BaseException as caught:  # noqa: BLE001 - stored on the handle
            error = caught
        self._complete(handle, result, run_ns, error)

    def _run_sharded(self, handle: QueryHandle) -> None:
        """Runs on the query's coordinator thread; per-shard tasks go to
        the shared worker pool."""
        # Imported lazily: repro.shard.executor builds on this package's
        # worker pool, so a module-level import would be circular.
        from repro.shard.executor import ShardedQueryExecutor

        result, run_ns, error = None, 0.0, None
        try:
            executor = ShardedQueryExecutor(
                handle._shard_set,
                handle._share.budget,
                bufferpool=handle._share,
                worker_pool=self.worker_pool,
            )
            result = executor.execute(handle._plan)
            run_ns = result.critical_path_ns
        except BaseException as caught:  # noqa: BLE001 - stored on the handle
            error = caught
        self._complete(handle, result, run_ns, error)

    def _complete(self, handle, result, run_ns, error) -> None:
        try:
            if error is not None:
                handle._fail(error)
            else:
                handle._finish(result, run_ns)
                if self.calibration is not None:
                    self.calibration.record(result)
        finally:
            with self._lock:
                self._running.discard(handle)
            self._release_and_dispatch(handle)
            handle._done.set()

    def _release_and_dispatch(self, handle: QueryHandle) -> None:
        """Return a handle's share and dispatch every waiter it admits."""
        pending = list(self.controller.release(handle))
        while pending:
            waiter = pending.pop(0)
            if not self._claim(waiter):
                # ``abandon`` won the claim and returns the share itself.
                continue
            try:
                self._record_queue_wait(waiter)
                self._finalize(waiter)
                self._dispatch(waiter)
            except BaseException as dispatch_error:  # noqa: BLE001
                waiter._fail(dispatch_error)
                # Releasing the failed waiter's share can admit more
                # queued handles; they must be dispatched too, not
                # dropped holding their shares.
                pending.extend(self.controller.release(waiter))
                waiter._done.set()

    def abandon(self, handle: QueryHandle) -> None:
        """Resolve a handle that will never be started.

        Used when a batch submission fails partway: queued handles are
        cancelled, and handles already admitted with ``dispatch=False``
        give their shares back (possibly admitting other waiters, which
        are dispatched normally).  Dispatched or terminal handles are
        left alone.
        """
        if handle.done or handle._dispatched:
            return
        if handle._share is None:
            # If a release admits it meanwhile, the cancel finds nothing
            # queued and the release path dispatches it.
            self.controller.cancel(handle)
            return
        if not self._claim(handle):
            return
        handle._cancel_abandoned()
        self._release_and_dispatch(handle)

    def _cancel(self, handle: QueryHandle) -> bool:
        return self.controller.cancel(handle)

    # ------------------------------------------------------------------ #
    # Shutdown.
    # ------------------------------------------------------------------ #
    def shutdown(self, wait: bool = True) -> list[QueryHandle]:
        """Stop accepting queries, cancel waiters, drain running ones.

        Returns the handles that were cancelled while queued.
        """
        with self._lock:
            self._closed = True
        cancelled = self.controller.drain_pending()
        if wait:
            idle_checks = 0
            while True:
                with self._lock:
                    running = list(self._running)
                if not running and self.controller.admitted_count == 0:
                    break
                for handle in running:
                    handle._done.wait()
                if not running:
                    # Admitted but not dispatched: either a completion is
                    # mid-flight (it will show up in _running shortly) or
                    # the handle was deliberately never started -- give
                    # the former a moment, then stop waiting on the
                    # latter rather than spinning forever.
                    idle_checks += 1
                    if idle_checks > 50:
                        break
                    time.sleep(0.001)
                else:
                    idle_checks = 0
        self.worker_pool.shutdown(wait=wait)
        return cancelled
