"""Hybrid sort (the paper's ``HybS``, Algorithm 1).

The DRAM budget M is split into a *selection region* Rs and a
*replacement-selection region* Rr.  Rs is a bounded max-heap that ends up
holding the globally smallest |Rs| records -- those records are written
exactly once, straight into the output, and never pass through a run.
Every record displaced from (or rejected by) Rs flows through Rr, the
classic two-heap replacement-selection structure that emits sorted runs.
Finally the runs are merged behind the Rs prefix.

The write intensity is the fraction of M allocated to the selection
region, as in the paper's Algorithm 1.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.sorts import cost
from repro.sorts.base import SortAlgorithm, SortResult
from repro.sorts.external_mergesort import generate_runs_replacement_selection
from repro.sorts.heaps import selection_pass
from repro.storage.collection import PersistentCollection
from repro.storage.runs import RunSet, merge_runs

#: Default split of M between the selection and replacement regions.
DEFAULT_SELECTION_FRACTION = 0.5


class HybridSort(SortAlgorithm):
    """Hybrid sort: a selection region plus a replacement-selection region.

    Args:
        write_intensity: fraction x of the DRAM budget allocated to the
            selection region Rs (Algorithm 1, line 1).
    """

    short_name = "HybS"
    write_limited = True

    def __init__(
        self,
        *args,
        write_intensity: float = DEFAULT_SELECTION_FRACTION,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if not 0.0 < write_intensity < 1.0:
            raise ConfigurationError(
                f"write intensity must lie in (0, 1), got {write_intensity}"
            )
        self.write_intensity = write_intensity

    def _region_capacities(self) -> tuple[int, int]:
        """Record capacities of (Rs, Rr); both are at least one record."""
        selection = max(1, int(self.workspace_records * self.write_intensity))
        if selection >= self.workspace_records:
            selection = self.workspace_records - 1
        selection = max(1, selection)
        replacement = max(1, self.workspace_records - selection)
        return selection, replacement

    def _execute(self, collection: PersistentCollection) -> SortResult:
        output = self._make_output(collection.name)
        if len(collection) == 0:
            output.seal()
            return SortResult(output=output, io=None)

        selection_capacity, replacement_capacity = self._region_capacities()
        runset = RunSet(
            self.backend, schema=self.schema, prefix=f"{collection.name}-hybs"
        )
        # One scan through the selection region Rs keeps the globally
        # smallest records; every record it displaces (an evicted former
        # maximum or the incoming record itself), in the order it leaves
        # Rs, flows through the replacement region Rr, which cuts runs.
        displaced: list[tuple] = []
        selected, _ = selection_pass(
            collection.scan_blocks(),
            selection_capacity,
            self.schema.key_index,
            spill=displaced,
        )
        generate_runs_replacement_selection(
            [displaced], runset, replacement_capacity, self.schema.key_index
        )
        # Algorithm 1, lines 17-19: Rs becomes the output prefix without
        # an intermediate run.
        output.extend(selected)

        # Line 20: merge all remaining runs behind the Rs prefix.  Every run
        # record is >= the largest record of Rs (Rs only ever evicted its
        # maximum), so appending the merged stream preserves sortedness.
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
            details={
                "write_intensity": self.write_intensity,
                "selection_capacity": selection_capacity,
                "replacement_capacity": replacement_capacity,
            },
        )

    def estimated_cost_ns(self, input_buffers: float) -> float:
        return cost.hybrid_sort_cost(
            self.write_intensity,
            input_buffers,
            self.memory_buffers,
            read_cost=self.backend.device.latency.read_ns,
            lam=self.backend.device.write_read_ratio,
        )
