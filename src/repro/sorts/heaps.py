"""Heap utilities shared by the sorting algorithms.

Two structures appear throughout Section 2.1 of the paper:

* a *bounded max-heap* that retains the K smallest elements seen so far
  (the selection region of hybrid sort, the scan heap of selection sort and
  lazy sort), and
* the classic *two-heap replacement selection* structure used for run
  generation in external mergesort and in the replacement-selection region
  of hybrid sort.

Both are implemented on ``heapq`` with explicit tie-breaking on input
position so that records with equal keys have a stable, strict total
order -- the write-limited sorts rely on that order to guarantee that
consecutive scans never select the same record twice.

The sorts run them as inlined loops: :func:`selection_pass` is one scan
through the bounded max-heap (selection sort, lazy sort, segment sort's
selection segment and hybrid sort's selection region), and
:func:`repro.sorts.external_mergesort.generate_runs_replacement_selection`
is the two-heap run generator.  :class:`BoundedMaxHeap` and
:class:`ReplacementSelectionHeap` are the plain object forms; the tests
hold the inlined loops to them.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.exceptions import ConfigurationError


class BoundedMaxHeap:
    """Keeps the ``capacity`` smallest ``(key, position, record)`` entries.

    Ordering is lexicographic on ``(key, position)``, which is a strict
    total order even in the presence of duplicate keys.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"heap capacity must be positive, got {capacity}")
        self.capacity = capacity
        # heapq is a min-heap; store negated ordering tuples to get a max-heap.
        self._heap: list[tuple[int, int, tuple]] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        return len(self._heap) >= self.capacity

    @property
    def max_key_position(self) -> tuple[int, int] | None:
        """The largest ``(key, position)`` currently retained, or ``None``."""
        if not self._heap:
            return None
        neg_key, neg_pos, _ = self._heap[0]
        return (-neg_key, -neg_pos)

    def offer(self, key: int, position: int, record: tuple) -> tuple | None:
        """Offer an entry; returns the displaced record, if any.

        * If the heap is not full the entry is retained and ``None`` is
          returned.
        * If the heap is full and the entry is smaller than the current
          maximum, the maximum is displaced (and returned) to make room.
        * Otherwise the entry itself is rejected and returned unchanged.
        """
        item = (-key, -position, record)
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, item)
            return None
        largest = self._heap[0]
        if item > largest:  # negated: item smaller than current max
            displaced = heapq.heapreplace(self._heap, item)
            return displaced[2]
        return record

    def would_accept(self, key: int, position: int) -> bool:
        """Whether :meth:`offer` would retain an entry with this ordering."""
        if len(self._heap) < self.capacity:
            return True
        neg_key, neg_pos, _ = self._heap[0]
        return (key, position) < (-neg_key, -neg_pos)

    def drain_sorted(self) -> list[tuple]:
        """Remove and return all retained records in ascending key order."""
        entries = sorted(self._heap, reverse=True)
        self._heap = []
        return [record for _, _, record in entries]

    def clear(self) -> None:
        self._heap = []


def selection_pass(
    blocks: Iterable[list[tuple]],
    capacity: int,
    key_index: int,
    threshold: tuple[int, int] | None = None,
    spill=None,
) -> tuple[list[tuple], tuple[int, int] | None]:
    """One selection scan: the ``capacity`` smallest records above ``threshold``.

    ``blocks`` is the scan of the input (positions count from its first
    record).  Records whose ``(key, position)`` is not above
    ``threshold`` were emitted by an earlier pass and are skipped.  Of
    the rest, the ``capacity`` smallest are kept in a bounded max-heap of
    ``(-key, -position, record)``; every other record goes to ``spill``
    (when given) in the order it leaves the scan: a rejected record when
    it is read, a displaced one when it is displaced.

    Returns the kept records in ascending ``(key, position)`` order and
    the largest kept ``(key, position)``, the next pass's threshold
    (``None`` when nothing was kept).
    """
    if capacity <= 0:
        raise ConfigurationError(f"heap capacity must be positive, got {capacity}")
    low_key, low_position = threshold if threshold is not None else (None, -1)
    heap: list[tuple[int, int, tuple]] = []
    push = heapq.heappush
    replace = heapq.heapreplace
    spill_append = spill.append if spill is not None else None
    # Every retained entry precedes the current record in the scan, so
    # the record beats the heap maximum exactly when its key is smaller.
    max_key = None
    position = -1
    for block in blocks:
        for record in block:
            position += 1
            key = record[key_index]
            if low_key is not None and (
                key < low_key or (key == low_key and position <= low_position)
            ):
                continue
            if max_key is None:
                push(heap, (-key, -position, record))
                if len(heap) == capacity:
                    max_key = -heap[0][0]
            elif key < max_key:
                displaced = replace(heap, (-key, -position, record))[2]
                max_key = -heap[0][0]
                if spill_append is not None:
                    spill_append(displaced)
            elif spill_append is not None:
                spill_append(record)
    if not heap:
        return [], None
    heap.sort(reverse=True)
    largest_key, largest_position, _ = heap[-1]
    return [entry[2] for entry in heap], (-largest_key, -largest_position)


class ReplacementSelectionHeap:
    """Two-heap replacement selection over a fixed record capacity.

    The structure produces maximal runs: records are emitted in ascending
    order from the *current* heap; an incoming record smaller than the last
    emitted one is parked in the *next* heap and participates in the
    following run.  On average runs are twice the memory size for random
    inputs, the property the paper's Eq. 1 relies on.
    """

    def __init__(self, capacity: int, key_fn) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"heap capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.key_fn = key_fn
        self._current: list[tuple[int, int, tuple]] = []
        self._next: list[tuple[int, int, tuple]] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._current) + len(self._next)

    @property
    def is_full(self) -> bool:
        return len(self) >= self.capacity

    @property
    def current_size(self) -> int:
        return len(self._current)

    @property
    def next_size(self) -> int:
        return len(self._next)

    def _entry(self, record: tuple) -> tuple[int, int, tuple]:
        self._sequence += 1
        return (self.key_fn(record), self._sequence, record)

    def fill(self, record: tuple) -> None:
        """Add a record while capacity remains (initial fill phase)."""
        if self.is_full:
            raise ConfigurationError("replacement-selection heap is already full")
        heapq.heappush(self._current, self._entry(record))

    def push_pop(self, record: tuple) -> tuple[tuple, bool]:
        """Insert ``record`` and emit the smallest current-run record.

        Returns ``(emitted_record, run_closed)``.  ``run_closed`` is true
        when the current heap became empty and the structure rolled over to
        the next run *after* emitting.
        """
        if not self._current:
            raise ConfigurationError("push_pop on an empty current heap")
        smallest = self._current[0]
        emitted = heapq.heappop(self._current)[2]
        if self.key_fn(record) >= smallest[0]:
            heapq.heappush(self._current, self._entry(record))
        else:
            heapq.heappush(self._next, self._entry(record))
        run_closed = not self._current
        if run_closed:
            self._rollover()
        return emitted, run_closed

    def pop_current(self) -> tuple | None:
        """Emit the smallest record of the current run, or ``None`` if empty."""
        if not self._current:
            return None
        return heapq.heappop(self._current)[2]

    def _rollover(self) -> None:
        self._current, self._next = self._next, []
        heapq.heapify(self._current)

    def drain_current(self) -> Iterator[tuple]:
        """Emit the remainder of the current run in order."""
        while self._current:
            yield heapq.heappop(self._current)[2]

    def drain_next(self) -> Iterator[tuple]:
        """Emit the parked next-run records in order."""
        while self._next:
            yield heapq.heappop(self._next)[2]

    def has_next_run(self) -> bool:
        return bool(self._next)
