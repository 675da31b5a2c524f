"""Concurrent workload scheduling over shared devices.

The scheduler turns the admission controller's decisions into running
queries while preserving the one invariant the simulated accounting
depends on: *per-device serialization across queries*.  All work that
touches a device — one shard's fragment or exchange task of a query —
is funneled through that device's serial worker in the shared
:class:`DeviceWorkerPool`, so fragments from different queries are
co-scheduled on one worker-per-device pool exactly as fragments of a
single query are.

Every admitted query runs the same way: the session planned it as a
:class:`~repro.shard.planner.ShardedPhysicalPlan` (a one-shard plan for a
query over one device), and a lightweight coordinator thread runs it
through :class:`~repro.shard.executor.ShardedQueryExecutor`, which submits
each step's per-shard tasks to the shared pool and measures every task's
I/O locally on the worker, so interleaved queries never pollute each
other's snapshots.

Simulated time: devices only advance their clocks by doing work, so the
scheduler's *busy clock* — the maximum over devices of simulated busy
nanoseconds since the scheduler started — is the workload's notion of
"now".  A query's ``queue_wait_ns`` is the busy-clock delta between
submission and dispatch; its ``run_ns`` is its own critical path.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.shard.planner import ShardedPhysicalPlan, ShardedPlanner
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
    session picks each query's shard set and hands over the pieces), so a
    dropped session is reclaimed promptly and its worker threads exit.

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
        self.worker_pool = DeviceWorkerPool(self.devices)
        self.controller = AdmissionController(bufferpool, policy=policy)
        self.calibration = calibration
        self._baseline_ns = [device.snapshot().total_ns for device in self.devices]
        self._lock = threading.Lock()
        #: Notified whenever ``_drained()`` may have become true.
        self._idle = threading.Condition(self._lock)
        self._running: set[QueryHandle] = set()
        #: Admitted with ``dispatch=False`` and not yet started or abandoned.
        self._parked = 0
        #: :meth:`submit` calls past the closed check and not yet returned.
        self._submitting = 0
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
        """Admit (or queue/shed/degrade) a handle; maybe dispatch.

        The handle arrives with its ``_shard_set`` set by the session.  With
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
            self._submitting += 1
        try:
            handle._scheduler = self
            handle._clock_submit = self.busy_clock_ns()
            self._prepare(handle)
            if self.controller.try_admit(handle, policy=policy):
                self._record_queue_wait(handle)
                self._finalize(handle)
                if not dispatch:
                    with self._lock:
                        handle._awaiting_start = True
                        self._parked += 1
                elif self._claim(handle):
                    self._dispatch(handle)
        finally:
            with self._idle:
                self._submitting -= 1
                self._idle.notify_all()
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
            if handle._awaiting_start:
                self._parked -= 1
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
        if isinstance(query, ShardedPhysicalPlan):
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
        return ShardedPlanner(
            handle._shard_set, budget, boundary_policy=handle._boundary_policy
        ).plan(query)

    def _finalize(self, handle: QueryHandle) -> None:
        """Fix the executable plan for the admitted budget.

        A query admitted under less memory than its reference plan was
        priced with (an explicit smaller request, or the ``degrade``
        policy) is replanned under the admitted budget, so its operators
        size — and reserve — workspace that actually fits the share.  A
        ``materialize_result`` query has its final output marked for the
        device here.
        """
        reference = handle._reference_plan
        if handle._preplanned or handle.admitted_bytes == reference.budget.nbytes:
            handle._plan = reference
        else:
            budget = MemoryBudget(
                handle.admitted_bytes,
                cacheline_bytes=self.budget.cacheline_bytes,
                block_bytes=self.budget.block_bytes,
            )
            handle._plan = self._plan(handle.query, handle, budget)
        if handle._materialize_result:
            # The session accepts materialize_result on one-shard plans
            # only, whose one final fragment's output is the result.
            (fragment,) = handle._plan.final_step.fragments
            fragment.materialize_root()

    # ------------------------------------------------------------------ #
    # Dispatch and completion.
    # ------------------------------------------------------------------ #
    def _dispatch(self, handle: QueryHandle) -> None:
        """Start an admitted, finalized handle; the caller holds its claim."""
        handle._mark_running()
        with self._lock:
            self._running.add(handle)
        threading.Thread(
            target=self._run,
            args=(handle,),
            name=f"workload-query-{handle.seq}",
            daemon=True,
        ).start()

    def _run(self, handle: QueryHandle) -> None:
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
        try:
            if error is not None:
                handle._fail(error)
            else:
                handle._finish(result, run_ns)
                if self.calibration is not None:
                    self.calibration.record(result)
        finally:
            self._release_and_dispatch(handle)
            handle._done.set()
            with self._idle:
                self._running.discard(handle)
                self._idle.notify_all()

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
        with self._idle:
            self._idle.notify_all()

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

        Submissions already past the closed check finish first, so none
        of them can queue a handle after the waiters are cancelled or
        admit one after the workers stop.  With ``wait``, then blocks
        until :meth:`_drained`.  Returns the handles that were cancelled
        while queued.
        """
        with self._idle:
            self._closed = True
            self._idle.wait_for(lambda: not self._submitting)
        cancelled = self.controller.drain_pending()
        if wait:
            with self._idle:
                self._idle.wait_for(self._drained)
        self.worker_pool.shutdown(wait=wait)
        return cancelled

    def _drained(self) -> bool:
        """No query runs, and every admitted share belongs to a handle
        admitted with ``dispatch=False`` that was never started, which
        shutdown does not wait for.  Called under the scheduler lock."""
        return not self._running and self.controller.admitted_count == self._parked
