"""Multi-pass selection sort: the write-minimal building block.

The generalization of selection sort described in Section 2.1.1: with a
budget of M buffers the algorithm repeatedly scans the input, each pass
extracting the next M smallest records (by a strict ``(key, position)``
order so duplicates are handled exactly once) and appending them to the
output.  Every record is written exactly once, at its final location, at
the price of |T|/M read passes.
"""

from __future__ import annotations

from repro.exceptions import ReproError
from repro.sorts import cost
from repro.sorts.base import SortAlgorithm, SortResult
from repro.sorts.heaps import selection_pass
from repro.storage.collection import PersistentCollection


def selection_batches(
    collection: PersistentCollection,
    workspace_records: int,
    key_index: int,
    start: int = 0,
    stop: int | None = None,
):
    """Yield a slice of ``collection`` as successive sorted batches.

    Each batch is one read pass over the slice (charging reads) that
    selects the next ``workspace_records`` smallest records; nothing is
    written.  A pass starts only when the previous batch is asked for.
    """
    if collection.is_deferred:
        total = sum(1 for _ in collection.scan(start=start, stop=stop))
    else:
        # The slice length, without copying the slice.
        total = len(range(len(collection))[start:stop])
    emitted = 0
    threshold: tuple[int, int] | None = None
    while emitted < total:
        batch, threshold = selection_pass(
            collection.scan_blocks(start=start, stop=stop),
            workspace_records,
            key_index,
            threshold,
        )
        if not batch:
            raise ReproError(
                "selection sort made no progress; input mutated during sorting?"
            )
        emitted += len(batch)
        yield batch


def selection_sort_stream(
    collection: PersistentCollection,
    workspace_records: int,
    key_index: int,
    start: int = 0,
    stop: int | None = None,
):
    """Lazily yield a slice of ``collection`` in sorted order.

    The generator performs the multi-pass selection sort but never writes:
    each pass re-reads the slice and yields the next batch of minimum
    records.  Segment sort pipes this stream straight into its final
    merge, which is how it avoids materializing the selection segment as
    an intermediate run.
    """
    for batch in selection_batches(
        collection, workspace_records, key_index, start, stop
    ):
        yield from batch


def selection_sort_into(
    collection: PersistentCollection,
    output: PersistentCollection,
    workspace_records: int,
    key_index: int,
    start: int = 0,
    stop: int | None = None,
) -> int:
    """Selection-sort a slice of ``collection``, appending to ``output``.

    Returns the number of read passes performed over the slice.
    """
    passes = 0
    for batch in selection_batches(
        collection, workspace_records, key_index, start, stop
    ):
        output.extend(batch)
        passes += 1
    return passes


class SelectionSort(SortAlgorithm):
    """The pure multi-pass selection sort (minimum writes, maximum reads)."""

    short_name = "SelS"
    write_limited = True

    def _execute(self, collection: PersistentCollection) -> SortResult:
        output = self._make_output(collection.name)
        if len(collection) == 0:
            output.seal()
            return SortResult(output=output, io=None)
        passes = selection_sort_into(
            collection, output, self.workspace_records, self.schema.key_index
        )
        output.seal()
        return SortResult(
            output=output,
            io=None,
            runs_generated=0,
            merge_passes=0,
            input_scans=passes,
        )

    def estimated_cost_ns(self, input_buffers: float) -> float:
        return cost.selection_sort_cost(
            input_buffers,
            self.memory_buffers,
            read_cost=self.backend.device.latency.read_ns,
            lam=self.backend.device.write_read_ratio,
        )
