"""Lazy sort (the paper's ``LaS``, Algorithm 2).

Lazy sort is the dynamic variant of the multi-pass selection sort.  It
keeps rescanning the input to extract the next M smallest records, paying
a read penalty instead of writing intermediate results.  It tracks how
much it has saved by not materializing and how much the rescans have cost;
once the penalty catches up with the savings (Eq. 5 of the paper,
``n = floor(|T| lambda / (M (lambda + 1)))``), it materializes the still
unprocessed remainder as a smaller intermediate input, and reverts to
being lazy on that input.
"""

from __future__ import annotations

from repro.sorts import cost
from repro.sorts.base import SortAlgorithm, SortResult
from repro.sorts.heaps import selection_pass
from repro.storage.collection import (
    AppendBuffer,
    CollectionStatus,
    PersistentCollection,
)


class LazySort(SortAlgorithm):
    """Lazy sort: selection scans with cost-driven intermediate materialization."""

    short_name = "LaS"
    write_limited = True

    def _execute(self, collection: PersistentCollection) -> SortResult:
        output = self._make_output(collection.name)
        total_records = len(collection)
        if total_records == 0:
            output.seal()
            return SortResult(output=output, io=None)

        lam = self.backend.device.write_read_ratio
        source = collection
        emitted = 0
        iteration = 1
        scans = 0
        intermediates = 0
        materialization_points: list[int] = []
        threshold: tuple[int, int] | None = None

        while emitted < total_records:
            remaining = total_records - emitted
            source_buffers = source.num_buffers
            materialization_iteration = max(
                1,
                cost.lazy_sort_materialization_iteration(
                    max(source_buffers, 1.0), max(self.memory_buffers, 2.0), lam
                ),
            )
            # Materializing is pointless when the current pass will finish
            # the job anyway; the cost model's floor() would suggest it for
            # tiny remainders, so guard explicitly.
            materialize = (
                iteration >= materialization_iteration
                and remaining > self.workspace_records
            )
            intermediate = None
            if materialize:
                intermediates += 1
                intermediate = PersistentCollection(
                    name=f"{collection.name}-las-intermediate-{intermediates}",
                    backend=self.backend,
                    schema=self.schema,
                    status=CollectionStatus.MATERIALIZED,
                )

            spill = AppendBuffer(intermediate) if intermediate is not None else None
            # Records displaced from (or rejected by) the heap are not
            # among the current M minimums but are still pending: they
            # belong to the materialized intermediate input.
            batch, threshold = selection_pass(
                source.scan_blocks(),
                self.workspace_records,
                self.schema.key_index,
                threshold,
                spill,
            )
            if spill is not None:
                spill.flush()
            scans += 1
            output.extend(batch)
            emitted += len(batch)
            if not batch:
                break

            if intermediate is not None:
                intermediate.seal()
                materialization_points.append(emitted)
                source = intermediate
                threshold = None
                iteration = 1
            else:
                iteration += 1

        output.seal()
        return SortResult(
            output=output,
            io=None,
            runs_generated=0,
            merge_passes=0,
            input_scans=scans,
            details={
                "intermediate_materializations": intermediates,
                "materialization_points": materialization_points,
            },
        )

    def estimated_cost_ns(self, input_buffers: float) -> float:
        return cost.lazy_sort_cost(
            input_buffers,
            self.memory_buffers,
            read_cost=self.backend.device.latency.read_ns,
            lam=self.backend.device.write_read_ratio,
        )
