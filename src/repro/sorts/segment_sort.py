"""Segment sort (the paper's ``SegS``, Section 2.1.1).

The input is split at a *write intensity* x ∈ (0, 1): the first x-fraction
is sorted with external mergesort (write-incurring, fast), the remaining
(1 − x)-fraction with the multi-pass selection sort (write-limited, more
reads).  The selection segment is never materialized as a run: it is
produced lazily, in sorted order, and piped straight into the final merge
together with the mergesort runs, so the algorithm writes x·|T| buffers of
runs plus the output -- the write profile the paper reports.

With x = 0 the algorithm degenerates to pure selection sort and performs
the minimum number of writes (one per input buffer); with x = 1 it is
plain external mergesort.  When no intensity is supplied the cost-optimal
value from Eq. 4 of the paper is used.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError, CostModelError
from repro.sorts import cost
from repro.sorts.base import SortAlgorithm, SortResult
from repro.sorts.external_mergesort import generate_runs_replacement_selection
from repro.sorts.selection_sort import selection_sort_stream
from repro.storage.collection import PersistentCollection
from repro.storage.runs import RunSet, merge_runs, merge_streams


class SegmentSort(SortAlgorithm):
    """Segment sort: external mergesort on a prefix, selection sort on the rest.

    Args:
        write_intensity: fraction x of the input processed with external
            mergesort.  ``None`` selects the Eq. 4 cost-optimal value at
            sort time (falling back to 0.5 when the optimum is undefined
            for the given |T|, M and λ).
    """

    short_name = "SegS"
    write_limited = True

    def __init__(self, *args, write_intensity: float | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if write_intensity is not None and not 0.0 <= write_intensity <= 1.0:
            raise ConfigurationError(
                f"write intensity must lie in [0, 1], got {write_intensity}"
            )
        self.write_intensity = write_intensity

    def resolve_intensity(self, input_buffers: float) -> float:
        """The write intensity used for an input of the given size."""
        if self.write_intensity is not None:
            return self.write_intensity
        lam = self.backend.device.write_read_ratio
        try:
            return cost.optimal_segment_intensity(
                input_buffers, self.memory_buffers, lam
            )
        except CostModelError:
            return 0.5

    def _execute(self, collection: PersistentCollection) -> SortResult:
        output = self._make_output(collection.name)
        total_records = len(collection)
        if total_records == 0:
            output.seal()
            return SortResult(output=output, io=None)

        intensity = self.resolve_intensity(collection.num_buffers)
        boundary = int(round(total_records * intensity))
        runset = RunSet(
            self.backend, schema=self.schema, prefix=f"{collection.name}-segs"
        )

        # Write-incurring segment: replacement-selection run generation.
        if boundary > 0:
            generate_runs_replacement_selection(
                collection.scan_blocks(stop=boundary),
                runset,
                self.workspace_records,
                self.schema.key_index,
            )

        merge_passes = 0
        selection_scans = 0
        if boundary >= total_records:
            # Pure external mergesort.
            merge_passes = merge_runs(
                runset.runs,
                output,
                fan_in=self.budget.merge_fan_in(),
                backend=self.backend,
                schema=self.schema,
                key=self.key_fn,
                materialize_output=self.materialize_output,
            )
        else:
            # The selection segment is produced lazily in sorted order and
            # merged with the (possibly pre-reduced) mergesort runs.  The
            # number of read passes over the segment is its size divided by
            # the workspace, as in Eq. 1's quadratic term.
            segment_records = total_records - boundary
            selection_scans = max(
                1, -(-segment_records // self.workspace_records)
            )
            fan_in = self.budget.merge_fan_in()
            runs = list(runset.runs)
            if len(runs) + 1 > fan_in:
                # Reduce the mergesort runs so the final pass (runs plus the
                # selection stream) fits in the merge fan-in.
                reduced = RunSet(
                    self.backend,
                    schema=self.schema,
                    prefix=f"{collection.name}-segs-reduced",
                )
                reduced_output = reduced.new_run()
                merge_passes += merge_runs(
                    runs,
                    reduced_output,
                    fan_in=fan_in,
                    backend=self.backend,
                    schema=self.schema,
                    key=self.key_fn,
                )
                runs = [reduced_output]
            streams = [run.scan_blocks_flat() for run in runs]
            streams.append(
                selection_sort_stream(
                    collection,
                    self.workspace_records,
                    self.schema.key_index,
                    start=boundary,
                )
            )
            merge_passes += 1
            output.extend(merge_streams(streams, self.key_fn))
            output.seal()

        return SortResult(
            output=output,
            io=None,
            runs_generated=len(runset),
            merge_passes=merge_passes,
            input_scans=1 + selection_scans,
            details={"write_intensity": intensity, "boundary": boundary},
        )

    def estimated_cost_ns(self, input_buffers: float) -> float:
        intensity = self.resolve_intensity(input_buffers)
        return cost.segment_sort_cost(
            intensity,
            input_buffers,
            self.memory_buffers,
            read_cost=self.backend.device.latency.read_ns,
            lam=self.backend.device.write_read_ratio,
        )
