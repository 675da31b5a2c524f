"""The Session facade: routing and the shared bufferpool."""

import pytest

from repro import (
    MemoryBudget,
    PersistentMemoryDevice,
    Query,
    Session,
    ShardSet,
    ShardedQueryResult,
)
from repro.bench.harness import budget_for, make_environment
from repro.exceptions import ConfigurationError
from repro.query import QueryResult
from repro.shard import ShardedCollection
from repro.storage.bufferpool import Bufferpool
from repro.storage.schema import WISCONSIN_SCHEMA
from repro.workloads.generator import (
    make_sharded_sort_input,
    make_sort_input,
)


class TestTargets:
    def test_backend_target_runs_single_device(self, backend):
        collection = make_sort_input(200, backend)
        session = Session(backend, budget_for(collection, 0.10))
        result = session.query(Query.scan(collection).order_by())
        assert isinstance(result, QueryResult)
        assert result.records == sorted(collection.records)

    def test_device_target_wraps_blocked_memory(self):
        device = PersistentMemoryDevice()
        session = Session(device)
        assert session.backend.name == "blocked_memory"
        assert session.device is device

    def test_backend_name_target_builds_a_fresh_device(self):
        session = Session("pmfs")
        assert session.backend.name == "pmfs"
        collection = session.create_collection(
            "t", records=[WISCONSIN_SCHEMA.make_record(k) for k in [3, 1, 2]]
        )
        result = session.query(Query.scan(collection).order_by())
        assert [r[0] for r in result.records] == [1, 2, 3]

    def test_shard_set_target_runs_sharded(self):
        shard_set = ShardSet.create(2)
        collection = make_sharded_sort_input(64, shard_set)
        session = Session(shard_set, MemoryBudget.from_records(8))
        result = session.query(Query.scan(collection).order_by())
        assert isinstance(result, ShardedQueryResult)
        assert [r[0] for r in result.records] == sorted(
            r[0] for r in collection.records
        )

    def test_unsupported_target_rejected(self):
        with pytest.raises(ConfigurationError, match="Session"):
            Session(42)

    def test_invalid_boundary_policy_rejected(self, backend):
        with pytest.raises(ConfigurationError, match="boundary policy"):
            Session(backend, boundary_policy="eager")


class TestRouting:
    def test_sharded_session_rejects_unsharded_query(self, backend):
        shard_set = ShardSet.create(2)
        session = Session(shard_set, MemoryBudget.from_records(8))
        plain = make_sort_input(32, backend)
        with pytest.raises(ConfigurationError, match="ShardSet"):
            session.query(Query.scan(plain).order_by())

    def test_mismatched_shard_set_rejected(self):
        set_a = ShardSet.create(2)
        set_b = ShardSet.create(2)
        collection = make_sharded_sort_input(32, set_b)
        session = Session(set_a, MemoryBudget.from_records(8))
        with pytest.raises(ConfigurationError, match="different shard set"):
            session.query(Query.scan(collection).order_by())

    def test_materialize_result_rejected_on_sharded_queries(self):
        shard_set = ShardSet.create(2)
        collection = make_sharded_sort_input(32, shard_set)
        session = Session(shard_set, MemoryBudget.from_records(8))
        with pytest.raises(ConfigurationError, match="materialize_result"):
            session.query(
                Query.scan(collection).order_by(), materialize_result=True
            )

    def test_plan_and_explain_route_like_query(self, backend):
        shard_set = ShardSet.create(2)
        sharded = make_sharded_sort_input(32, shard_set)
        session = Session(shard_set, MemoryBudget.from_records(8))
        plan = session.plan(Query.scan(sharded).order_by())
        assert plan.is_sharded_plan
        assert "sharded physical plan" in session.explain(
            Query.scan(sharded).order_by()
        )


class TestSharedBufferpool:
    def test_queries_share_and_release_the_session_pool(self, backend):
        collection = make_sort_input(200, backend)
        budget = budget_for(collection, 0.10)
        pool = Bufferpool(budget)
        session = Session(backend, budget, bufferpool=pool)
        for _ in range(3):
            session.query(Query.scan(collection).order_by())
        assert session.bufferpool is pool
        assert pool.reserved_bytes == 0

    def test_sharded_queries_share_the_session_pool(self):
        shard_set = ShardSet.create(2)
        collection = make_sharded_sort_input(64, shard_set)
        budget = MemoryBudget.from_records(16)
        session = Session(shard_set, budget)
        session.query(Query.scan(collection).order_by())
        assert session.bufferpool.reserved_bytes == 0


class TestCreateCollection:
    def test_sharded_session_points_to_sharded_collection(self):
        shard_set = ShardSet.create(2)
        session = Session(shard_set, MemoryBudget.from_records(8))
        with pytest.raises(ConfigurationError, match="ShardedCollection"):
            session.create_collection("t")

    def test_collection_lands_on_the_session_backend(self):
        env = make_environment()
        session = Session(env.backend)
        collection = session.create_collection(
            "orders",
            records=[WISCONSIN_SCHEMA.make_record(k) for k in range(8)],
        )
        assert collection.backend is env.backend
        assert collection.is_sealed
        assert len(collection) == 8
