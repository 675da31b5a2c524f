"""Sorted runs and multi-pass merging.

External sorting algorithms produce *runs*: sorted persistent collections
that a merge phase later combines.  :class:`RunSet` manages the run
collections for one sort, and :func:`merge_runs` performs the (possibly
multi-pass) k-way merge, charging every intermediate read and write to the
backend like the paper's merging phase does.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, Iterator

from repro.exceptions import ConfigurationError
from repro.pmem.backends.base import PersistenceBackend
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.storage.schema import Schema, WISCONSIN_SCHEMA


class RunSet:
    """A named family of sorted run collections sharing one backend."""

    def __init__(
        self,
        backend: PersistenceBackend,
        schema: Schema = WISCONSIN_SCHEMA,
        prefix: str = "run",
    ) -> None:
        self.backend = backend
        self.schema = schema
        self.prefix = prefix
        self._counter = itertools.count()
        self.runs: list[PersistentCollection] = []

    def new_run(self) -> PersistentCollection:
        """Create an empty materialized run collection."""
        run = PersistentCollection(
            name=f"{self.prefix}-{next(self._counter)}",
            backend=self.backend,
            schema=self.schema,
            status=CollectionStatus.MATERIALIZED,
        )
        self.runs.append(run)
        return run

    def write_sorted_run(self, records: Iterable[tuple]) -> PersistentCollection:
        """Materialize a complete sorted run from an iterable of records."""
        run = self.new_run()
        run.extend(records)
        run.seal()
        return run

    def add_existing(self, collection: PersistentCollection) -> None:
        """Adopt an externally produced sorted collection as a run."""
        self.runs.append(collection)

    def drop_all(self) -> None:
        """Drop every run's backend store (cleanup between experiments)."""
        for run in self.runs:
            run.drop()
        self.runs = []

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[PersistentCollection]:
        return iter(self.runs)


def merge_streams(
    streams: list[Iterator[tuple]],
    key: Callable[[tuple], int],
) -> Iterator[tuple]:
    """K-way merge of already-sorted record streams.

    A small explicit heap keyed on ``(key, stream_index)`` keeps the merge
    stable across streams, which matters for the position-based tie-breaks
    the write-limited sorts rely on.
    """
    heap: list[tuple[int, int, tuple, Iterator[tuple]]] = []
    for index, stream in enumerate(streams):
        try:
            first = next(stream)
        except StopIteration:
            continue
        heap.append((key(first), index, first, stream))
    heapq.heapify(heap)
    while heap:
        record_key, index, record, stream = heapq.heappop(heap)
        yield record
        try:
            following = next(stream)
        except StopIteration:
            continue
        heapq.heappush(heap, (key(following), index, following, stream))


def merge_runs(
    runs: list[PersistentCollection],
    output: PersistentCollection,
    fan_in: int,
    backend: PersistenceBackend,
    schema: Schema = WISCONSIN_SCHEMA,
    key: Callable[[tuple], int] | None = None,
    materialize_output: bool = True,
) -> int:
    """Merge sorted runs into ``output`` with at most ``fan_in`` inputs per pass.

    Intermediate passes write temporary runs through ``backend`` (and read
    them back), so the I/O profile matches the paper's ``logM |T|`` merge
    passes.  The final pass streams into ``output``; when
    ``materialize_output`` is false the output collection is expected to be
    an in-memory one (pipelined to a consumer) and no writes are charged by
    construction.

    Returns:
        The number of merge passes performed (0 when a single empty or
        single-run input needed no merging work).
    """
    if fan_in < 2:
        raise ConfigurationError(f"merge fan-in must be at least 2, got {fan_in}")
    key_fn = key or schema.key

    if not runs:
        output.seal()
        return 0
    passes = 0
    current = list(runs)
    scratch = RunSet(backend, schema=schema, prefix=f"{output.name}-merge")
    while len(current) > fan_in:
        passes += 1
        next_level: list[PersistentCollection] = []
        for group_start in range(0, len(current), fan_in):
            group = current[group_start:group_start + fan_in]
            if len(group) == 1:
                next_level.append(group[0])
                continue
            merged = scratch.new_run()
            merged.extend(
                merge_streams([run.scan_blocks_flat() for run in group], key_fn)
            )
            merged.seal()
            next_level.append(merged)
        current = next_level
    passes += 1
    if len(current) == 1:
        # A single run: copy it to the output (read it, optionally write it).
        output.extend(current[0].scan_blocks_flat())
    else:
        output.extend(
            merge_streams([run.scan_blocks_flat() for run in current], key_fn)
        )
    if materialize_output:
        output.seal()
    return passes
