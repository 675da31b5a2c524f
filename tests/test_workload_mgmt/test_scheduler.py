"""Co-scheduling: per-device serialization, equivalence, timing."""

import collections
import sys
import threading
import time

import pytest

from repro import MemoryBudget, PersistentMemoryDevice, Query, Session, ShardSet
from repro.exceptions import ConfigurationError
from repro.storage.collection import PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA
from repro.workload_mgmt import DeviceWorkerPool, QueryStatus
from repro.workload_mgmt.scheduler import WorkloadScheduler
from repro.workloads.generator import (
    make_sharded_join_inputs,
    make_sharded_sort_input,
)


def build_plain(backend, name, keys):
    collection = PersistentCollection(
        name=name, backend=backend, schema=WISCONSIN_SCHEMA
    )
    collection.extend(WISCONSIN_SCHEMA.make_record(key) for key in keys)
    collection.seal()
    return collection


def make_devices(count):
    return [PersistentMemoryDevice() for _ in range(count)]


class TestDeviceWorkerPool:
    def test_tasks_for_one_device_never_overlap(self):
        devices = make_devices(3)
        pool = DeviceWorkerPool(devices)
        active = [0] * 3
        overlapped = []
        lock = threading.Lock()

        def task(device_index):
            with lock:
                active[device_index] += 1
                if active[device_index] > 1:
                    overlapped.append(device_index)
            # Without per-device serialization 60 racing tasks on 3
            # workers would overlap with near-certainty.
            for _ in range(1000):
                pass
            with lock:
                active[device_index] -= 1

        futures = [
            pool.submit(devices[index % 3], task, index % 3) for index in range(60)
        ]
        for future in futures:
            future.result()
        pool.shutdown()
        assert overlapped == []

    def test_map_shards_returns_in_index_order(self):
        devices = make_devices(4)
        pool = DeviceWorkerPool(devices)
        assert pool.map_shards(lambda i: i * i, devices) == [0, 1, 4, 9]
        pool.shutdown()

    def test_map_shards_runs_each_task_on_its_devices_worker(self):
        devices = make_devices(3)
        pool = DeviceWorkerPool(devices)
        names = pool.map_shards(
            lambda i: threading.current_thread().name, list(reversed(devices))
        )
        pool.shutdown()
        assert [name.rsplit("_", 1)[0] for name in names] == [
            "device-worker-2",
            "device-worker-1",
            "device-worker-0",
        ]

    def test_map_shards_propagates_the_first_error(self):
        devices = make_devices(2)
        pool = DeviceWorkerPool(devices)

        def task(index):
            if index == 1:
                raise ValueError("boom")
            return index

        with pytest.raises(ValueError, match="boom"):
            pool.map_shards(task, devices)
        pool.shutdown()

    def test_task_for_a_device_outside_the_pool_rejected(self):
        pool = DeviceWorkerPool(make_devices(2))
        with pytest.raises(ConfigurationError, match="not one of this worker pool"):
            pool.submit(PersistentMemoryDevice(), lambda: None)
        pool.shutdown()

    def test_shard_local_query_runs_on_its_devices_worker(self):
        shard_set = ShardSet.create(2)
        plain = build_plain(shard_set.backends[1], "ON-1", range(300))
        threads = set()

        def predicate(record):
            threads.add(threading.current_thread().name)
            return record[0] < 100

        other, own = (device.snapshot() for device in shard_set.devices)
        with Session(shard_set, MemoryBudget.from_records(60)) as session:
            result = session.query(
                Query.scan(plain).filter(predicate, selectivity=1 / 3)
            )
        assert len(result.records) == 100
        assert [name.rsplit("_", 1)[0] for name in threads] == ["device-worker-1"]
        assert shard_set.devices[0].snapshot() == other
        charged = shard_set.devices[1].snapshot() - own
        assert charged.cacheline_reads > 0
        assert result.io == charged


class TestCoScheduling:
    def test_concurrent_workload_matches_serial_records(self):
        shard_set = ShardSet.create(2)
        sort_input = make_sharded_sort_input(240, shard_set, name="T")
        left, right = make_sharded_join_inputs(80, 800, shard_set)
        queries = [
            {"query": Query.scan(sort_input).order_by(), "tag": "sort"},
            {
                "query": Query.scan(left).join(Query.scan(right)),
                "tag": "join",
            },
            {
                "query": Query.scan(sort_input).group_by(
                    1, {"count": 1}, estimated_groups=120
                ),
                "tag": "agg",
            },
        ]
        budget = MemoryBudget.from_bytes(64_000)
        share = budget.nbytes // 3
        with Session(shard_set, budget) as session:
            concurrent = session.run_workload(
                [dict(item, memory_bytes=share) for item in queries],
                policy="queue",
            )
            assert [h.status for h in concurrent.handles] == [QueryStatus.DONE] * 3
            serial = [
                session.submit(item["query"], memory_bytes=share).result()
                for item in queries
            ]
        for handle, serial_result in zip(concurrent.handles, serial):
            assert handle.result().records == serial_result.records

    def test_single_device_queries_on_distinct_shards_overlap(self):
        """Two plain queries on different shard backends co-run: the
        workload critical path stays below the serial sum."""
        shard_set = ShardSet.create(2)
        a = build_plain(shard_set.backends[0], "A", range(4000))
        b = build_plain(shard_set.backends[1], "B", range(4000))
        with Session(shard_set, MemoryBudget.from_bytes(64_000)) as session:
            result = session.run_workload(
                [
                    Query.scan(a).filter(lambda r: r[0] % 2 == 0, selectivity=0.5),
                    Query.scan(b).filter(lambda r: r[0] % 2 == 0, selectivity=0.5),
                ]
            )
            assert len(result.completed) == 2
            assert result.critical_path_ns < result.serial_sum_ns
            assert result.overlap > 1.5

    def test_queue_waits_are_reported(self, backend):
        collection = build_plain(backend, "Q", range(2000))
        query = Query.scan(collection).order_by()
        with Session(backend, MemoryBudget.from_bytes(32_000)) as session:
            result = session.run_workload(
                [
                    {"query": query, "memory_bytes": 24_000, "tag": "first"},
                    {"query": query, "memory_bytes": 24_000, "tag": "second"},
                ],
                policy="queue",
            )
            first, second = result.handles
            assert first.queue_wait_ns == 0.0
            assert second.queue_wait_ns > 0.0
            assert second.queue_wait_ns == pytest.approx(first.run_ns)
            rendered = result.explain()
            assert "queue-wait" in rendered
            assert "critical path" in rendered

    def test_critical_path_bounded_by_serial_sum(self):
        shard_set = ShardSet.create(2)
        sort_input = make_sharded_sort_input(200, shard_set)
        plain = build_plain(shard_set.backends[0], "P", range(500))
        with Session(shard_set, MemoryBudget.from_bytes(48_000)) as session:
            result = session.run_workload(
                [
                    Query.scan(sort_input).order_by(),
                    Query.scan(plain).filter(lambda r: r[0] < 250, selectivity=0.5),
                ]
            )
            assert result.critical_path_ns <= result.serial_sum_ns + 1e-6

    def test_max_workers_bounds_concurrent_queries(self, backend):
        collection = build_plain(backend, "MW", range(500))
        query = Query.scan(collection).filter(
            lambda r: r[0] < 100, selectivity=0.2
        )
        with Session(backend, MemoryBudget.from_bytes(64_000)) as session:
            result = session.run_workload(
                [
                    {"query": query, "memory_bytes": 4_096, "tag": f"q{i}"}
                    for i in range(4)
                ],
                max_workers=1,
            )
            assert len(result.completed) == 4
            # With one slot the later queries must have waited even
            # though memory alone would admit all four at once.
            waits = [handle.queue_wait_ns for handle in result.handles]
            assert sum(1 for wait in waits if wait > 0.0) >= 3

    def test_failed_query_releases_memory_and_reports(self, backend):
        bad = build_plain(backend, "BAD", range(100))

        def exploding(record):
            raise RuntimeError("predicate exploded")

        with Session(backend, MemoryBudget.from_bytes(32_000)) as session:
            handle = session.submit(
                Query.scan(bad).filter(exploding, selectivity=0.5)
            )
            handle.wait()
            assert handle.status is QueryStatus.FAILED
            with pytest.raises(RuntimeError, match="predicate exploded"):
                handle.result()
            # The admitted share was returned despite the failure.
            follow_up = session.submit(
                Query.scan(bad).filter(lambda r: True, selectivity=1.0)
            )
            assert len(follow_up.result().records) == 100
        assert session.bufferpool.holders() == {}


class TestRunWorkloadDispatch:
    """A queued batch member admitted by a finishing query runs once.

    ``run_workload`` admits its batch with dispatch deferred and then
    starts the admitted handles one by one.  A query that finishes in the
    meantime releases its share and admits the first queued member on a
    worker thread, then plans and dispatches it.  The test holds that
    worker inside ``_finalize`` until ``start`` has been called for the
    member, the interleaving in which ``start`` used to dispatch it a
    second time.
    """

    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
    def test_release_admitted_member_runs_exactly_once(self, monkeypatch, sharded):
        if sharded:
            target = ShardSet.create(2)
            data = make_sharded_sort_input(400, target, name="DD")
        else:
            target = ShardSet.create(1).backends[0]
            data = build_plain(target, "DD", range(400, 0, -1))
        share = 16_000
        queries = [
            {
                "query": Query.scan(data)
                .filter(lambda r, i=i: r[0] % 6 != i, selectivity=5 / 6)
                .order_by(),
                "memory_bytes": share,
                "tag": f"q{i}",
            }
            for i in range(6)
        ]

        caller = threading.current_thread()
        worker_in_finalize = threading.Event()
        member_started = threading.Event()
        runs = collections.Counter()
        original_finalize = WorkloadScheduler._finalize
        original_start = WorkloadScheduler.start
        original_run = WorkloadScheduler._run

        def finalize(self, handle):
            if threading.current_thread() is not caller:
                worker_in_finalize.set()
                member_started.wait(timeout=10)
            original_finalize(self, handle)

        def start(self, handle):
            if handle.tag != "q3":
                original_start(self, handle)
                return
            # q3 is the first member the budget queues: let a finishing
            # query admit it on a worker thread and stall there before
            # dispatching it.
            worker_in_finalize.wait(timeout=10)
            original_start(self, handle)
            member_started.set()

        def counted(original):
            def run(self, handle):
                runs[handle.tag] += 1
                original(self, handle)

            return run

        monkeypatch.setattr(WorkloadScheduler, "_finalize", finalize)
        monkeypatch.setattr(WorkloadScheduler, "start", start)
        monkeypatch.setattr(WorkloadScheduler, "_run", counted(original_run))

        with Session(target, MemoryBudget.from_bytes(3 * share)) as session:
            result = session.run_workload(queries, policy="queue")
            assert worker_in_finalize.is_set() and member_started.is_set()
            errors = [handle.error for handle in result.handles]
            assert errors == [None] * len(queries)
            assert [h.status for h in result.handles] == [QueryStatus.DONE] * 6
            assert runs == {item["tag"]: 1 for item in queries}
            monkeypatch.undo()
            serial = [
                session.submit(item["query"], memory_bytes=share).result()
                for item in queries
            ]
        for handle, serial_result in zip(result.handles, serial):
            assert handle.result().records == serial_result.records
        assert session.bufferpool.holders() == {}


class TestShutdown:
    def test_returns_at_once_with_a_never_started_handle(
        self, backend, monkeypatch
    ):
        collection = build_plain(backend, "NS", range(200))
        session = Session(backend, MemoryBudget.from_bytes(32_000))
        scheduler = session.scheduler
        handle = session.submit(Query.scan(collection).order_by(), _dispatch=False)
        assert handle._awaiting_start and handle._share is not None

        def no_polling(seconds):
            raise AssertionError("shutdown polled with time.sleep")

        monkeypatch.setattr(time, "sleep", no_polling)
        returned = threading.Event()

        def shut_down():
            scheduler.shutdown()
            returned.set()

        thread = threading.Thread(target=shut_down)
        thread.start()
        thread.join(timeout=10)
        assert returned.is_set()
        assert not handle._dispatched
        scheduler.abandon(handle)
        assert handle.status is QueryStatus.CANCELLED
        assert session.bufferpool.holders() == {}

    def test_waits_for_a_running_query(self, backend):
        collection = build_plain(backend, "RUN", range(200))
        entered, release = threading.Event(), threading.Event()

        def blocking(record):
            entered.set()
            release.wait(timeout=10)
            return True

        session = Session(backend, MemoryBudget.from_bytes(32_000))
        handle = session.submit(
            Query.scan(collection).filter(blocking, selectivity=1.0)
        )
        assert entered.wait(timeout=10)
        scheduler = session.scheduler
        returned = threading.Event()

        def shut_down():
            scheduler.shutdown()
            returned.set()

        thread = threading.Thread(target=shut_down)
        thread.start()
        assert not returned.wait(timeout=0.2)
        release.set()
        thread.join(timeout=10)
        assert returned.is_set()
        assert handle.status is QueryStatus.DONE
        assert len(handle.result().records) == 200

    def test_drains_a_busy_scheduler(self, backend):
        """Submitters race a shutdown under a budget that admits three
        queries at a time: shutdown returns once every admitted query
        has finished, so none fails on a stopped worker pool, and every
        share is returned."""
        collection = build_plain(backend, "BUSY", range(300))
        query = Query.scan(collection).filter(
            lambda r: r[0] % 3 == 0, selectivity=1 / 3
        )
        session = Session(backend, MemoryBudget.from_bytes(24_000))
        scheduler = session.scheduler
        handles = []
        started = threading.Barrier(9)

        def submit_many():
            started.wait(timeout=60)
            for _ in range(40):
                try:
                    handles.append(session.submit(query, memory_bytes=8_000))
                except ConfigurationError:  # the scheduler closed
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            submitters = [threading.Thread(target=submit_many) for _ in range(8)]
            for thread in submitters:
                thread.start()
            started.wait(timeout=60)
            deadline = time.monotonic() + 60
            while len(handles) < 8 and time.monotonic() < deadline:
                time.sleep(0)
            scheduler.shutdown()
            for thread in submitters:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in submitters)
        for handle in handles:
            handle.wait(timeout=60)
        statuses = {handle.status for handle in handles}
        assert statuses <= {QueryStatus.DONE, QueryStatus.CANCELLED}, [
            handle.error for handle in handles if handle.status is QueryStatus.FAILED
        ][:1]
        assert session.bufferpool.holders() == {}
        session.close()
