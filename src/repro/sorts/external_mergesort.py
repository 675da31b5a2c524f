"""External mergesort with replacement selection (the paper's ``ExMS``).

This is the symmetric-I/O baseline of Section 2.1: run generation fully
reads the input and writes it back as sorted runs (of roughly twice the
memory size thanks to replacement selection), and each merge pass reads
and rewrites the whole data set.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from repro.sorts import cost
from repro.sorts.base import SortAlgorithm, SortResult
from repro.storage.collection import AppendBuffer, PersistentCollection
from repro.storage.runs import RunSet, merge_runs


def generate_runs_replacement_selection(
    blocks: Iterable[list[tuple]],
    runset: RunSet,
    capacity_records: int,
    key_index: int,
) -> int:
    """Generate sorted runs from the records of ``blocks`` into ``runset``.

    Returns the number of runs produced.  Shared by external mergesort,
    the mergesort segment of segment sort (both pass a
    ``collection.scan_blocks(...)``) and hybrid sort's replacement region
    (which passes the records its selection region displaced).  Two-heap
    replacement selection over ``capacity_records`` entries of ``(key,
    sequence, record)``, each key read once: a record at least as large
    as the one just emitted joins the current run, a smaller one is
    parked for the next run, and the run closes when the current heap
    empties.  Emitted records are buffered per run, so runs are written
    through the batched collection I/O path.
    """
    heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
    current: list[tuple[int, int, tuple]] = []
    parked: list[tuple[int, int, tuple]] = []
    run: AppendBuffer | None = None
    sequence = 0
    for block in blocks:
        for record in block:
            sequence += 1
            key = record[key_index]
            if sequence <= capacity_records:
                heappush(current, (key, sequence, record))
                continue
            if run is None:
                run = AppendBuffer(runset.new_run())
            if key >= current[0][0]:
                run.append(heapreplace(current, (key, sequence, record))[2])
                continue
            run.append(heappop(current)[2])
            heappush(parked, (key, sequence, record))
            if not current:
                # The parked heap becomes the next run's current heap.
                run.seal()
                run = None
                current, parked = parked, []
    # Drain what remains in the two heaps: the tail of the current run and,
    # if present, the records already parked for the next run.
    if current:
        if run is None:
            run = AppendBuffer(runset.new_run())
        current.sort()
        run.extend(entry[2] for entry in current)
        run.seal()
        if parked:
            parked.sort()
            runset.write_sorted_run(entry[2] for entry in parked)
    elif run is not None:
        run.seal()
    return len(runset)


class ExternalMergeSort(SortAlgorithm):
    """Standard external mergesort using replacement selection (``ExMS``)."""

    short_name = "ExMS"
    write_limited = False

    def _execute(self, collection: PersistentCollection) -> SortResult:
        output = self._make_output(collection.name)
        if len(collection) == 0:
            output.seal()
            return SortResult(output=output, io=None)
        runset = RunSet(
            self.backend, schema=self.schema, prefix=f"{collection.name}-exms"
        )
        generate_runs_replacement_selection(
            collection.scan_blocks(),
            runset,
            self.workspace_records,
            self.schema.key_index,
        )
        merge_passes = merge_runs(
            runset.runs,
            output,
            fan_in=self.budget.merge_fan_in(),
            backend=self.backend,
            schema=self.schema,
            key=self.key_fn,
            materialize_output=self.materialize_output,
        )
        return SortResult(
            output=output,
            io=None,
            runs_generated=len(runset),
            merge_passes=merge_passes,
            input_scans=1,
        )

    def estimated_cost_ns(self, input_buffers: float) -> float:
        return cost.external_mergesort_cost(
            input_buffers,
            self.memory_buffers,
            read_cost=self.backend.device.latency.read_ns,
            lam=self.backend.device.write_read_ratio,
        )
