"""Golden equivalence test for the sorts' per-record loops.

Every case sorts the same Wisconsin input with one algorithm on one
backend under one budget and key attribute, and compares against
``golden_sorts.json``: a digest of the output records, the full
``IOSnapshot`` of the run (``read_calls`` / ``write_calls`` and the
overhead breakdown included), the number of input scans, the runs
generated and lazy sort's materialization points.  The comparison is
exact, so a loop rewrite that changes what a sort reads, writes, emits
or in which order it breaks ties fails here.

The budgets are small enough that lazy sort materializes intermediates
(the test checks that it does), and attributes 1 and 2 carry duplicate
keys (pairs and 31 distinct values respectively), so tie order is
covered.  Regenerate, only for an intended change of behaviour, with::

    PYTHONPATH=src python tests/test_sorts/test_sort_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.pmem.backends import BACKEND_REGISTRY, make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.sorts import (
    ExternalMergeSort,
    HybridSort,
    LazySort,
    SegmentSort,
    SelectionSort,
)
from repro.storage.bufferpool import MemoryBudget
from repro.storage.schema import Schema
from repro.workloads.generator import make_sort_input

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_sorts.json")

NUM_RECORDS = 1_500
FRACTIONS = (0.04, 0.12)
KEY_ATTRIBUTES = (0, 1, 2)
ALGORITHMS = {
    "LaS": (LazySort, {}),
    "SelS": (SelectionSort, {}),
    "SegS-x0": (SegmentSort, {"write_intensity": 0.0}),
    "SegS-x0.3": (SegmentSort, {"write_intensity": 0.3}),
    "SegS-x1": (SegmentSort, {"write_intensity": 1.0}),
    "ExMS": (ExternalMergeSort, {}),
    "HybS-x0.1": (HybridSort, {"write_intensity": 0.1}),
    "HybS-x0.5": (HybridSort, {"write_intensity": 0.5}),
    "HybS-x0.9": (HybridSort, {"write_intensity": 0.9}),
}


def case_ids() -> list[str]:
    return [
        f"{algorithm}/{backend}/f{fraction}/attr{attribute}"
        for algorithm in ALGORITHMS
        for backend in sorted(BACKEND_REGISTRY)
        for fraction in FRACTIONS
        for attribute in KEY_ATTRIBUTES
    ]


def run_case(case_id: str) -> dict:
    """Run one case on a fresh device and return its comparable outcome."""
    algorithm, backend_name, fraction, attribute = case_id.split("/")
    backend = make_backend(backend_name, PersistentMemoryDevice())
    data = make_sort_input(NUM_RECORDS, backend)
    budget = MemoryBudget.fraction_of(data, float(fraction[1:]))
    cls, options = ALGORITHMS[algorithm]
    sorter = cls(
        backend, budget, schema=Schema(key_index=int(attribute[4:])), **options
    )
    result = sorter.sort(data)
    records = result.output.records
    return {
        "records": len(records),
        "digest": hashlib.sha256(repr(records).encode()).hexdigest(),
        "io": dataclasses.asdict(result.io),
        "input_scans": result.input_scans,
        "runs_generated": result.runs_generated,
        "merge_passes": result.merge_passes,
        "materialization_points": result.details.get("materialization_points"),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case_id", case_ids())
def test_sort_matches_golden(golden, case_id):
    assert run_case(case_id) == golden[case_id]


def test_golden_covers_every_case_and_lazy_materialization(golden):
    assert sorted(golden) == sorted(case_ids())
    materializing = [
        case_id
        for case_id, outcome in golden.items()
        if outcome["materialization_points"]
    ]
    # Both budgets make lazy sort materialize on every backend and key.
    assert len(materializing) == len(BACKEND_REGISTRY) * len(FRACTIONS) * len(
        KEY_ATTRIBUTES
    )


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({case_id: run_case(case_id) for case_id in case_ids()}, indent=1)
        + "\n",
        encoding="utf-8",
    )
