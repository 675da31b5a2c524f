"""Regression tests for the block-batched I/O path.

Every charge takes a ``count``: one device, counter or backend call
prices ``count`` identical transfers.  These tests pin that

* a call with ``count=k`` leaves the device counters (the
  :class:`~repro.pmem.metrics.IOSnapshot` fields), the wear map and the
  per-store stats exactly as ``k`` calls with ``count=1`` do, on every
  backend;
* the batched collection APIs (``extend`` / ``scan_blocks``) charge
  exactly what the per-record ones (``append`` / ``scan``) charge;
* the Fig. 5 / Fig. 7 sweeps and ``scan()`` abandoned mid-stream charge
  exactly what ``golden_batched_io.json`` records.  That file was
  recorded from the per-record charging path, one backend call per
  block, so the batched path is held to it.

Regenerate the golden, only for an intended change of behaviour, with::

    PYTHONPATH=src python tests/test_storage/test_batched_io.py
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import pathlib

import pytest

from repro.bench import experiments
from repro.exceptions import ConfigurationError
from repro.pmem.backends import BACKEND_REGISTRY, make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.storage.collection import (
    AppendBuffer,
    CollectionStatus,
    PersistentCollection,
)
from repro.storage.schema import WISCONSIN_SCHEMA

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_batched_io.json")

#: Records in the abandoned-scan collection: 7 full 13-record blocks of
#: 80-byte records plus a 9-record tail.
SCAN_RECORDS = 100

#: Records consumed before ``scan()`` is abandoned (``None``: run it to
#: exhaustion).  A consumer that takes all 100 records but never asks for
#: the 101st also abandons the scan, before the tail is charged.
SCAN_STOPS = {
    "mid_block": 20,
    "block_boundary": 26,
    "one_before_end": SCAN_RECORDS - 1,
    "all_records": SCAN_RECORDS,
    "exhausted": None,
}


def _materialized(backend, name="col"):
    return PersistentCollection(
        name=name,
        backend=backend,
        schema=WISCONSIN_SCHEMA,
        status=CollectionStatus.MATERIALIZED,
    )


def _records(n):
    return [WISCONSIN_SCHEMA.make_record(key) for key in range(n)]


def _store_state(backend, name):
    stats = backend.store_stats(name)
    return (
        stats.logical_bytes,
        stats.physical_bytes,
        stats.append_calls,
        stats.read_calls,
        dict(stats.extra),
    )


# --------------------------------------------------------------------- #
# Device-level accounting: count=k equals k calls with count=1.
# --------------------------------------------------------------------- #
def test_device_count_matches_repeated_single_calls():
    single, counted = PersistentMemoryDevice(), PersistentMemoryDevice()
    for _ in range(7):
        single.read(1024)
        single.write(1024, address=4096)
        single.overhead(80.0, label="x")
    assert counted.read(1024, count=7) == 7 * single.latency.read_cost_ns(16)
    counted.write(1024, count=7, address=4096)
    counted.overhead(80.0, label="x", count=7)
    assert single.snapshot() == counted.snapshot()
    assert single.wear_map == counted.wear_map
    assert single.counters.overhead_breakdown == counted.counters.overhead_breakdown


def test_device_zero_count_charges_nothing():
    device = PersistentMemoryDevice()
    assert device.read(1024, count=0) == 0.0
    assert device.write(1024, count=0) == 0.0
    assert device.overhead(80.0, count=0) == 0.0
    assert device.snapshot() == PersistentMemoryDevice().snapshot()


def test_device_rejects_negative_count():
    device = PersistentMemoryDevice()
    with pytest.raises(ConfigurationError):
        device.read(1024, count=-1)
    with pytest.raises(ConfigurationError):
        device.write(1024, count=-1)
    with pytest.raises(ConfigurationError):
        device.overhead(80.0, count=-1)


def test_device_count_and_address_are_keyword_only():
    device = PersistentMemoryDevice()
    with pytest.raises(TypeError):
        device.read(1024, 7)
    with pytest.raises(TypeError):
        device.write(1024, 4096)


# --------------------------------------------------------------------- #
# Backend-level charges, every backend.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", sorted(BACKEND_REGISTRY))
def test_backend_count_matches_sequential_calls(backend_name):
    single_backend = make_backend(backend_name, PersistentMemoryDevice())
    counted_backend = make_backend(backend_name, PersistentMemoryDevice())
    for backend in (single_backend, counted_backend):
        backend.create_store("s")
    # 37 appends of 1024 then 37 reads of 1024, with awkward odd sizes mixed
    # in so growth paths (doubling, extents, fs blocks) are exercised.
    for _ in range(37):
        single_backend.append("s", 1024)
    single_backend.append("s", 700)
    for _ in range(37):
        single_backend.read("s", 1024)
    single_backend.read("s", 700)
    counted_backend.append("s", 1024, count=37)
    counted_backend.append("s", 700)
    counted_backend.read("s", 1024, count=37)
    counted_backend.read("s", 700)
    assert single_backend.device.snapshot() == counted_backend.device.snapshot()
    assert _store_state(single_backend, "s") == _store_state(counted_backend, "s")


@pytest.mark.parametrize("backend_name", sorted(BACKEND_REGISTRY))
def test_backend_zero_count_and_negative_count(backend_name):
    backend = make_backend(backend_name, PersistentMemoryDevice())
    backend.create_store("s")
    before = _store_state(backend, "s")
    backend.append("s", 1024, count=0)
    backend.read("s", 1024, count=0)
    assert _store_state(backend, "s") == before
    assert backend.device.snapshot() == PersistentMemoryDevice().snapshot()
    with pytest.raises(ConfigurationError):
        backend.append("s", 1024, count=-1)
    with pytest.raises(ConfigurationError):
        backend.read("s", 1024, count=-1)


# --------------------------------------------------------------------- #
# Collection-level equivalence: extend/scan_blocks vs append/scan.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", sorted(BACKEND_REGISTRY))
@pytest.mark.parametrize("num_records", [0, 1, 11, 2000])
def test_collection_batched_path_is_cost_identical(backend_name, num_records):
    records = _records(num_records)
    snapshots, states, payloads = [], [], []
    for batched in (False, True):
        device = PersistentMemoryDevice()
        backend = make_backend(backend_name, device)
        collection = _materialized(backend)
        if batched:
            collection.extend(records)
            collection.seal()
            seen = [record for block in collection.scan_blocks() for record in block]
        else:
            for record in records:
                collection.append(record)
            collection.seal()
            seen = list(collection.scan())
        snapshots.append(device.snapshot())
        states.append(_store_state(backend, "col"))
        payloads.append(seen)
    assert snapshots[0] == snapshots[1]
    assert states[0] == states[1]
    assert payloads[0] == payloads[1] == records


def test_scan_blocks_matches_scan_records_and_charges(backend):
    collection = _materialized(backend)
    collection.extend(_records(777))
    collection.seal()
    device = backend.device
    before = device.snapshot()
    scanned = list(collection.scan())
    scan_delta = device.snapshot() - before
    before = device.snapshot()
    blocks = list(collection.scan_blocks())
    blocks_delta = device.snapshot() - before
    assert [r for block in blocks for r in block] == scanned
    assert blocks_delta == scan_delta
    # Every block except possibly the last holds one I/O block's records.
    per_block = -(-collection.block_bytes // WISCONSIN_SCHEMA.record_bytes)
    assert all(len(block) == per_block for block in blocks[:-1])


def test_scan_blocks_slice_matches_scan_slice(backend):
    collection = _materialized(backend)
    collection.extend(_records(300))
    collection.seal()
    device = backend.device
    before = device.snapshot()
    scanned = list(collection.scan(start=37, stop=211))
    scan_delta = device.snapshot() - before
    before = device.snapshot()
    flat = list(collection.scan_blocks_flat(start=37, stop=211))
    flat_delta = device.snapshot() - before
    assert flat == scanned
    assert flat_delta == scan_delta


def test_scan_blocks_abandoned_early_charges_only_consumed_blocks(backend):
    collection = _materialized(backend)
    collection.extend(_records(1000))
    collection.seal()
    device = backend.device
    before = device.snapshot()
    iterator = collection.scan_blocks()
    consumed = [next(iterator), next(iterator)]
    iterator.close()
    delta = device.snapshot() - before
    per_block = -(-collection.block_bytes // WISCONSIN_SCHEMA.record_bytes)
    expected_bytes = 2 * per_block * WISCONSIN_SCHEMA.record_bytes
    assert sum(len(block) for block in consumed) == 2 * per_block
    assert delta.bytes_read == expected_bytes
    assert delta.read_calls <= 2


def test_extend_empty_is_noop_even_when_sealed(backend):
    collection = _materialized(backend)
    collection.extend(_records(5))
    collection.seal()
    collection.extend([])  # zero appends touch no state
    assert len(collection.records) == 5


def test_append_buffer_flushes_and_seals(backend):
    collection = _materialized(backend)
    buffer = AppendBuffer(collection, batch_records=8)
    for record in _records(21):
        buffer.append(record)
    assert len(collection.records) == 16  # two full batches flushed
    buffer.seal()
    assert len(collection.records) == 21
    assert collection.is_sealed


def test_memory_collection_extend_and_scan_blocks_charge_nothing(backend):
    device = backend.device
    collection = PersistentCollection(
        name="mem", schema=WISCONSIN_SCHEMA, status=CollectionStatus.MEMORY
    )
    collection.extend(_records(100))
    assert [r for b in collection.scan_blocks() for r in b] == collection.records
    assert device.snapshot().total_ns == 0.0


# --------------------------------------------------------------------- #
# block_bytes validation (regression: 0 used to silently become default).
# --------------------------------------------------------------------- #
def test_zero_block_bytes_raises(backend):
    with pytest.raises(ConfigurationError):
        PersistentCollection(name="bad", backend=backend, block_bytes=0)
    with pytest.raises(ConfigurationError):
        PersistentCollection(
            name="bad-mem", status=CollectionStatus.MEMORY, block_bytes=0
        )
    with pytest.raises(ConfigurationError):
        PersistentCollection(name="bad-neg", backend=backend, block_bytes=-1)


def test_default_block_bytes_comes_from_device_geometry(backend):
    collection = _materialized(backend, name="defaults")
    assert collection.block_bytes == backend.device.geometry.block_bytes


# --------------------------------------------------------------------- #
# Golden outcomes, recorded from the per-record charging path.
# --------------------------------------------------------------------- #
def _comparable(rows):
    return [
        {
            key: row[key]
            for key in (
                "algorithm",
                "simulated_seconds",
                "cacheline_reads",
                "cacheline_writes",
            )
        }
        for row in rows
    ]


def fig5_outcome() -> list[dict]:
    rows = experiments.sort_memory_sweep(
        num_records=900, memory_fractions=(0.05, 0.11)
    )
    assert all(row["sorted"] for row in rows)
    return _comparable(rows)


def fig7_outcome() -> dict:
    rows = experiments.join_memory_sweep(
        left_records=300,
        right_records=3000,
        memory_fractions=(0.05, 0.11),
        hybrid_intensities=((0.5, 0.5),),
        segmented_intensities=(0.5,),
    )
    return {
        "rows": _comparable(rows),
        "matches": [row["matches"] for row in rows],
    }


def scan_abandoned_outcome(backend_name: str, stop: int | None) -> dict:
    """The device delta of a ``scan()`` dropped after ``stop`` records."""
    backend = make_backend(backend_name, PersistentMemoryDevice())
    collection = _materialized(backend)
    collection.extend(_records(SCAN_RECORDS))
    collection.seal()
    before = backend.device.snapshot()
    iterator = collection.scan()
    consumed = list(itertools.islice(iterator, stop))
    iterator.close()
    assert len(consumed) == (SCAN_RECORDS if stop is None else stop)
    return dataclasses.asdict(backend.device.snapshot() - before)


def scan_case_ids() -> list[str]:
    return [
        f"{backend_name}/{label}"
        for backend_name in sorted(BACKEND_REGISTRY)
        for label in SCAN_STOPS
    ]


def _scan_case(case_id: str) -> dict:
    backend_name, label = case_id.split("/")
    return scan_abandoned_outcome(backend_name, SCAN_STOPS[label])


def golden_outcome() -> dict:
    return {
        "fig5_sort_sweep": fig5_outcome(),
        "fig7_join_sweep": fig7_outcome(),
        "scan_abandoned": {case_id: _scan_case(case_id) for case_id in scan_case_ids()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_fig5_sort_sweep_matches_golden(golden):
    assert fig5_outcome() == golden["fig5_sort_sweep"]


def test_fig7_join_sweep_matches_golden(golden):
    outcome = fig7_outcome()
    assert outcome == golden["fig7_join_sweep"]
    assert all(count > 0 for count in outcome["matches"])


@pytest.mark.parametrize("case_id", scan_case_ids())
def test_scan_abandoned_charges_match_golden(golden, case_id):
    assert _scan_case(case_id) == golden["scan_abandoned"][case_id]


@pytest.mark.parametrize("backend_name", sorted(BACKEND_REGISTRY))
def test_scan_charges_each_block_as_it_goes(backend_name):
    # scan() charges a block when its last record is handed out and the
    # partial tail only when the stream is exhausted, never on close.
    calls = {
        label: scan_abandoned_outcome(backend_name, stop)["read_calls"]
        for label, stop in SCAN_STOPS.items()
    }
    assert calls["mid_block"] == 1
    assert calls["block_boundary"] == 2
    assert calls["one_before_end"] == calls["all_records"] == 7
    assert calls["exhausted"] == 8


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(golden_outcome(), indent=1) + "\n", encoding="utf-8"
    )
