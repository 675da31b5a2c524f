"""Golden equivalence test for queries run through ``Session``.

Every case runs one query through a fresh :class:`~repro.session.Session`
and compares against ``golden_session.json``: a digest of the output
records, the full ``IOSnapshot`` of the run (``read_calls`` /
``write_calls`` and the overhead breakdown included), the ``explain()``
text, the handle's ``run_ns``, the admission memory estimate of the
plan and the calibration report after the run.  The comparison is
exact, so a change of how a session routes, plans or executes a query
that moves any record, charge or rendering fails here.

The cases are a filter -> join -> group-by under each boundary policy
and a sort with ``materialize_result=True`` on each of the four
backends, plus one shard-local query (inputs on a single shard's
backend) on each shard of a 2-shard pmfs session.  Regenerate, only
for an intended change of behaviour, with::

    PYTHONPATH=src python tests/test_query/test_session_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.pmem.backends import BACKEND_REGISTRY, make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.query.logical import Query
from repro.session import Session
from repro.shard.collection import ShardSet
from repro.storage.bufferpool import MemoryBudget
from repro.workload_mgmt.admission import estimate_plan_memory_bytes
from repro.workloads.generator import make_join_inputs, make_sort_input

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_session.json")

LEFT, RIGHT = 120, 1_200
SORT_RECORDS = 600
FRACTION = 0.1
BOUNDARY_POLICIES = ("cost", "materialize", "pipeline", "defer")
SHARDS = 2


def filter_join_group(left, right):
    return (
        Query.scan(left)
        .filter(lambda record: record[0] % 2 == 0, selectivity=0.5)
        .join(Query.scan(right))
        .group_by(3, {"count": 0, "sum": 13}, estimated_groups=LEFT // 2)
    )


def case_ids() -> list[str]:
    ids = [
        f"fjg-{policy}/{backend}"
        for backend in sorted(BACKEND_REGISTRY)
        for policy in BOUNDARY_POLICIES
    ]
    ids += [f"sort-materialized/{backend}" for backend in sorted(BACKEND_REGISTRY)]
    ids += [f"shard-local/pmfs/shard{index}" for index in range(SHARDS)]
    return ids


def outcome(session: Session, query, **options) -> dict:
    """Run ``query`` on ``session`` and return its comparable outcome."""
    estimate = estimate_plan_memory_bytes(
        session.plan(query, boundary_policy=options.get("boundary_policy"))
    )
    handle = session.submit(query, **options)
    result = handle.result()
    records = result.records
    return {
        "records": len(records),
        "digest": hashlib.sha256(repr(records).encode()).hexdigest(),
        "io": dataclasses.asdict(handle.io),
        "explain": result.explain(),
        "run_ns": handle.run_ns,
        "memory_estimate": estimate,
        "calibration": session.calibration_report(),
    }


def run_backend_case(case_id: str) -> dict:
    kind, backend_name = case_id.split("/")
    backend = make_backend(backend_name, PersistentMemoryDevice())
    if kind == "sort-materialized":
        data = make_sort_input(SORT_RECORDS, backend)
        with Session(backend, MemoryBudget.fraction_of(data, FRACTION)) as session:
            return outcome(
                session, Query.scan(data).order_by(), materialize_result=True
            )
    left, right = make_join_inputs(LEFT, RIGHT, backend)
    budget = MemoryBudget.fraction_of(left, 4 * FRACTION)
    with Session(backend, budget) as session:
        return outcome(
            session,
            filter_join_group(left, right),
            boundary_policy=kind.split("-", 1)[1],
        )


def run_shard_local_cases() -> dict:
    """One shard-local query per shard, in one 2-shard pmfs session."""
    shard_set = ShardSet.create(SHARDS, backend_name="pmfs")
    inputs = [
        make_join_inputs(
            LEFT, RIGHT, backend, left_name=f"L{index}", right_name=f"R{index}"
        )
        for index, backend in enumerate(shard_set.backends)
    ]
    budget = MemoryBudget.fraction_of(inputs[0][0], 4 * FRACTION)
    outcomes = {}
    with Session(shard_set, budget) as session:
        for index, (left, right) in enumerate(inputs):
            outcomes[f"shard-local/pmfs/shard{index}"] = outcome(
                session, filter_join_group(left, right)
            )
    return outcomes


def run_all() -> dict:
    outcomes = {
        case_id: run_backend_case(case_id)
        for case_id in case_ids()
        if not case_id.startswith("shard-local/")
    }
    outcomes.update(run_shard_local_cases())
    return outcomes


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case_id", [c for c in case_ids() if not c.startswith("shard-local/")]
)
def test_session_query_matches_golden(golden, case_id):
    assert run_backend_case(case_id) == golden[case_id]


def test_shard_local_queries_match_golden(golden):
    for case_id, got in run_shard_local_cases().items():
        assert got == golden[case_id], case_id


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_ids())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(run_all(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
