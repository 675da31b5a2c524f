"""Per-device worker pools.

The simulated devices keep unsynchronized I/O counters, so correctness
of the accounting rests on one invariant: *at any moment, at most one
thread touches one device*.  Within a single sharded query the barrier
structure of the plan steps used to guarantee this; once fragments from
*different* queries are co-scheduled, the guarantee must come from the
pool itself.

:class:`DeviceWorkerPool` provides it: one serial (single-thread)
executor per device, with every task keyed by the device it touches.  A
device's tasks always land on the same worker queue, so they execute in
submission order, serialized across queries — which also makes task-local
``device.snapshot()`` deltas exact per-task attributions even when many
queries share the devices.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Optional

from repro.exceptions import ConfigurationError


class DeviceWorkerPool:
    """One serial worker per simulated device.

    Args:
        devices: the devices the pool serves, in shard order; tasks are
            keyed by the device object they touch.
        name: thread-name prefix, for debuggability; the worker of
            ``devices[i]`` is named ``{name}-worker-{i}``.

    Tasks for one device run on its worker, in submission order.
    Because a device's work is funneled through exactly one thread, the
    device's counters are only ever updated by that thread and a
    ``snapshot()`` delta taken inside a task measures exactly that task's
    I/O — the property the workload scheduler relies on to keep per-query
    accounting exact under concurrency.
    """

    def __init__(self, devices: list, name: str = "device") -> None:
        if not devices:
            raise ConfigurationError("a worker pool needs at least one device")
        self._executors = {
            device: ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"{name}-worker-{index}"
            )
            for index, device in enumerate(devices)
        }
        self._shutdown = False

    @property
    def num_devices(self) -> int:
        return len(self._executors)

    def submit(self, device, fn: Callable, *args, **kwargs) -> Future:
        """Queue ``fn(*args, **kwargs)`` on ``device``'s worker."""
        if self._shutdown:
            raise ConfigurationError("the worker pool is shut down")
        executor = self._executors.get(device)
        if executor is None:
            raise ConfigurationError(
                "the task's device is not one of this worker pool's devices"
            )
        return executor.submit(fn, *args, **kwargs)

    def map_shards(self, fn: Callable[[int], object], devices: list) -> list:
        """Run ``fn(i)`` for every index ``i`` of ``devices``, on
        ``devices[i]``'s worker.

        Results come back in index order; if any task raised, every task
        is still awaited and the first error is re-raised.
        """
        futures = [
            self.submit(device, fn, index) for index, device in enumerate(devices)
        ]
        results: list = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as error:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = error
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting tasks and (optionally) wait for the queues."""
        self._shutdown = True
        for executor in self._executors.values():
            executor.shutdown(wait=wait)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DeviceWorkerPool(devices={self.num_devices})"
