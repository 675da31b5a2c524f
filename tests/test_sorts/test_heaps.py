"""Tests for the heap structures used by the sorts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.pmem.backends import make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.sorts.external_mergesort import generate_runs_replacement_selection
from repro.sorts.heaps import (
    BoundedMaxHeap,
    ReplacementSelectionHeap,
    selection_pass,
)
from repro.storage.collection import PersistentCollection
from repro.storage.runs import RunSet
from repro.storage.schema import WISCONSIN_SCHEMA


def record(key):
    return WISCONSIN_SCHEMA.make_record(key)


class TestBoundedMaxHeap:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            BoundedMaxHeap(0)

    def test_retains_smallest(self):
        heap = BoundedMaxHeap(3)
        for position, key in enumerate([9, 1, 7, 3, 8, 2]):
            heap.offer(key, position, record(key))
        assert [r[0] for r in heap.drain_sorted()] == [1, 2, 3]

    def test_offer_returns_displaced(self):
        heap = BoundedMaxHeap(2)
        assert heap.offer(5, 0, record(5)) is None
        assert heap.offer(3, 1, record(3)) is None
        displaced = heap.offer(1, 2, record(1))
        assert displaced[0] == 5

    def test_offer_rejects_larger_when_full(self):
        heap = BoundedMaxHeap(2)
        heap.offer(1, 0, record(1))
        heap.offer(2, 1, record(2))
        rejected = heap.offer(9, 2, record(9))
        assert rejected[0] == 9
        assert len(heap) == 2

    def test_max_key_position(self):
        heap = BoundedMaxHeap(3)
        assert heap.max_key_position is None
        heap.offer(5, 0, record(5))
        heap.offer(2, 1, record(2))
        assert heap.max_key_position == (5, 0)

    def test_duplicate_keys_ordered_by_position(self):
        heap = BoundedMaxHeap(2)
        heap.offer(5, 0, record(5))
        heap.offer(5, 1, record(5))
        assert heap.max_key_position == (5, 1)
        displaced = heap.offer(5, 2, record(5))
        assert displaced is not None

    def test_would_accept(self):
        heap = BoundedMaxHeap(1)
        assert heap.would_accept(10, 0)
        heap.offer(10, 0, record(10))
        assert heap.would_accept(5, 1)
        assert not heap.would_accept(11, 1)

    def test_drain_empties_heap(self):
        heap = BoundedMaxHeap(4)
        heap.offer(1, 0, record(1))
        heap.drain_sorted()
        assert len(heap) == 0

    def test_clear(self):
        heap = BoundedMaxHeap(4)
        heap.offer(1, 0, record(1))
        heap.clear()
        assert len(heap) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=60))
    def test_property_retains_k_smallest(self, keys):
        capacity = 5
        heap = BoundedMaxHeap(capacity)
        for position, key in enumerate(keys):
            heap.offer(key, position, record(key))
        retained = sorted(r[0] for r in heap.drain_sorted())
        assert retained == sorted(keys)[: min(capacity, len(keys))]


class TestReplacementSelectionHeap:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            ReplacementSelectionHeap(0, WISCONSIN_SCHEMA.key)

    def test_fill_then_full(self):
        heap = ReplacementSelectionHeap(2, WISCONSIN_SCHEMA.key)
        heap.fill(record(3))
        assert not heap.is_full
        heap.fill(record(1))
        assert heap.is_full
        with pytest.raises(ConfigurationError):
            heap.fill(record(2))

    def test_push_pop_emits_ascending_within_run(self):
        heap = ReplacementSelectionHeap(3, WISCONSIN_SCHEMA.key)
        for key in [5, 2, 8]:
            heap.fill(record(key))
        emitted = []
        for key in [9, 6, 7]:
            rec, closed = heap.push_pop(record(key))
            emitted.append(rec[0])
            assert not closed
        assert emitted == sorted(emitted)

    def test_smaller_record_parks_for_next_run(self):
        heap = ReplacementSelectionHeap(2, WISCONSIN_SCHEMA.key)
        heap.fill(record(5))
        heap.fill(record(6))
        _, closed = heap.push_pop(record(1))  # 1 < emitted 5: next run
        assert not closed
        assert heap.next_size == 1

    def test_run_closes_when_current_exhausted(self):
        heap = ReplacementSelectionHeap(1, WISCONSIN_SCHEMA.key)
        heap.fill(record(5))
        _, closed = heap.push_pop(record(1))
        assert closed
        assert heap.current_size == 1  # rolled over to the next run

    def test_drain_current_and_next(self):
        heap = ReplacementSelectionHeap(2, WISCONSIN_SCHEMA.key)
        heap.fill(record(4))
        heap.fill(record(6))
        heap.push_pop(record(1))
        current = [r[0] for r in heap.drain_current()]
        assert current == sorted(current)
        assert heap.has_next_run()
        nxt = [r[0] for r in heap.drain_next()]
        assert nxt == [1]

    def test_pop_current_on_empty_returns_none(self):
        heap = ReplacementSelectionHeap(1, WISCONSIN_SCHEMA.key)
        assert heap.pop_current() is None

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=5, max_size=80))
    def test_property_runs_are_sorted_and_cover_input(self, keys):
        capacity = 4
        heap = ReplacementSelectionHeap(capacity, WISCONSIN_SCHEMA.key)
        runs = [[]]
        pending = list(keys)
        for key in pending[:capacity]:
            heap.fill(record(key))
        for key in pending[capacity:]:
            emitted, closed = heap.push_pop(record(key))
            runs[-1].append(emitted[0])
            if closed:
                runs.append([])
        for rec in heap.drain_current():
            runs[-1].append(rec[0])
        if heap.has_next_run():
            runs.append([rec[0] for rec in heap.drain_next()])
        # Every run is individually sorted and together they cover the input.
        for run in runs:
            assert run == sorted(run)
        flattened = sorted(key for run in runs for key in run)
        assert flattened == sorted(keys)


def reference_selection_pass(records, capacity, threshold):
    """One selection scan written with :class:`BoundedMaxHeap`."""
    heap = BoundedMaxHeap(capacity)
    spilled = []
    for position, rec in enumerate(records):
        key = rec[0]
        if threshold is None or (key, position) > threshold:
            displaced = heap.offer(key, position, rec)
            if displaced is not None:
                spilled.append(displaced)
    largest = heap.max_key_position
    return heap.drain_sorted(), largest, spilled


class TestSelectionPass:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigurationError):
            selection_pass([], 0, 0)

    def test_empty_scan_keeps_nothing(self):
        assert selection_pass([[]], 3, 0) == ([], None)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=12), max_size=60),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=7),
    )
    def test_matches_the_bounded_heap_pass_by_pass(self, keys, capacity, block):
        # Duplicate keys with distinct payloads make tie order visible.
        records = [(key, uid) for uid, key in enumerate(keys)]
        blocks = [records[i:i + block] for i in range(0, len(records), block)]
        threshold = None
        while True:
            spilled = []
            batch, next_threshold = selection_pass(
                iter(blocks), capacity, 0, threshold, spilled
            )
            assert (batch, next_threshold, spilled) == reference_selection_pass(
                records, capacity, threshold
            )
            if not batch:
                break
            threshold = next_threshold


def reference_runs(records, capacity):
    """Replacement-selection runs written with :class:`ReplacementSelectionHeap`."""
    heap = ReplacementSelectionHeap(capacity, lambda rec: rec[0])
    runs, current = [], None
    for rec in records:
        if not heap.is_full:
            heap.fill(rec)
            continue
        if current is None:
            current = []
            runs.append(current)
        emitted, closed = heap.push_pop(rec)
        current.append(emitted)
        if closed:
            current = None
    if len(heap):
        if current is None:
            runs.append([])
        runs[-1].extend(heap.drain_current())
        if heap.has_next_run():
            runs.append(list(heap.drain_next()))
    return runs


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=12), max_size=80),
    st.integers(min_value=1, max_value=9),
)
def test_run_generation_matches_the_two_heap_structure(keys, capacity):
    backend = make_backend("blocked_memory", PersistentMemoryDevice())
    collection = PersistentCollection(name="rs", backend=backend)
    collection.extend((key,) + (uid,) * 9 for uid, key in enumerate(keys))
    runset = RunSet(backend, prefix="rs-run")
    generate_runs_replacement_selection(collection.scan_blocks(), runset, capacity, 0)
    assert [run.records for run in runset.runs] == reference_runs(
        collection.records, capacity
    )
