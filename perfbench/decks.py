"""The benchmark's two workloads: seeded inputs, query decks, oracles.

Each workload is a *deck*: a fixed list of requests that the runner
cycles through in order.  A request is one ``Session.query`` call
(``sort_spill``) or one batch of ``Session.submit`` calls awaited as
a whole (``mixed_small``).  Inputs are Wisconsin relations whose key
order is a rotation of the Wisconsin permutation chosen by the seed (the
VIG model of seeded, stated-scale generation), so one seed always yields
the same inputs.  Every request has an oracle: a pure-Python reference computed
from the generated records, never from the system under test.

Sizes are stated next to each workload's function; ``scale`` divides
them for the benchmark's smoke-size self-tests.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.pmem.backends import make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.query import Query
from repro.shard import ShardSet
from repro.storage.bufferpool import MemoryBudget
from repro.storage.schema import WISCONSIN_SCHEMA
from repro.workloads.generator import (
    load_collection,
    make_join_inputs,
    make_sharded_join_inputs,
    make_sharded_sort_input,
    make_sort_input,
)
from repro.workloads.wisconsin import wisconsin_permutation

RECORD_BYTES = WISCONSIN_SCHEMA.record_bytes


def permutation_seed(seed: int) -> int:
    """Map any benchmark seed to a valid Wisconsin start element.

    Every size bracket's prime exceeds 1000, so ``1 .. 1000`` is valid
    for all the relations built here.
    """
    return 1 + seed % 1000


@dataclass
class DeckItem:
    """One request of a deck.

    ``payload`` is a ``Query`` (sent through ``Session.query``) or a list
    of ``Session.submit`` keyword sets.  ``check`` receives the list of
    results the request produced (one per query, in submission order)
    and raises ``AssertionError`` naming the first mismatch.
    """

    tag: str
    payload: object
    check: Callable[[list], None]

    @property
    def is_batch(self) -> bool:
        return isinstance(self.payload, list)

    @property
    def queries(self) -> int:
        return len(self.payload) if self.is_batch else 1


@dataclass
class Setup:
    """A loaded workload: what to open a session over, and its deck."""

    #: The ``Session`` target (a backend or a ``ShardSet``) and budget.
    target: object
    budget: MemoryBudget
    backends: list
    deck: list[DeckItem]
    #: Wall seconds spent generating and loading the inputs (the
    #: oracles are computed afterwards and not counted).
    gen_s: float

    def __post_init__(self) -> None:
        #: Physical device bytes and stores the generated inputs occupy.
        self.input_bytes = self.physical_bytes()
        self.input_stores = self.store_count()

    def physical_bytes(self) -> int:
        return sum(backend.total_physical_bytes for backend in self.backends)

    def store_count(self) -> int:
        return sum(len(backend.stores()) for backend in self.backends)


# --------------------------------------------------------------------- #
# Oracles.
# --------------------------------------------------------------------- #
def expect_sorted(expected: list[tuple], key_index: int):
    """Output must be ``expected`` ordered on ``key_index``.

    Ties on a non-key attribute may come out in any order, so the check
    is: the sort attribute is non-decreasing and the multiset matches.
    """
    keys = sorted(record[key_index] for record in expected)
    multiset = Counter(expected)

    def check(results: list) -> None:
        records = results[0].records
        got_keys = [record[key_index] for record in records]
        if got_keys != keys:
            raise AssertionError(
                f"sort attribute {key_index} out of order or wrong "
                f"({len(got_keys)} records, expected {len(keys)})"
            )
        if Counter(records) != multiset:
            raise AssertionError("sorted output is not a permutation of the input")

    return check


def expect_multiset(expected: list[tuple]):
    multiset = Counter(expected)

    def check(results: list) -> None:
        if Counter(results[0].records) != multiset:
            raise AssertionError(
                f"{len(results[0].records)} records differ from the "
                f"{len(expected)} expected"
            )

    return check


def reference_join(left: list[tuple], right: list[tuple]) -> list[tuple]:
    """Equi-join on attribute 0; output is ``left + right`` per match."""
    by_key: dict[int, list[tuple]] = {}
    for record in left:
        by_key.setdefault(record[0], []).append(record)
    return [
        match + record
        for record in right
        for match in by_key.get(record[0], ())
    ]


def reference_group(
    records: list[tuple], group_index: int, count_index: int, sum_index: int
) -> set[tuple]:
    """Per-group ``(group, count, sum)`` for ``{"count": c, "sum": s}``."""
    counts: Counter = Counter()
    sums: Counter = Counter()
    for record in records:
        group = record[group_index]
        counts[group] += 1
        sums[group] += record[sum_index]
    return {(group, counts[group], sums[group]) for group in counts}


def expect_groups(expected: set[tuple]):
    def check(results: list) -> None:
        got = results[0].records
        if len(got) != len(expected) or set(got) != expected:
            raise AssertionError(
                f"{len(got)} groups differ from the {len(expected)} expected"
            )

    return check


def per_query(checks: list[Callable[[list], None]]):
    """Check a batch: one oracle per query, in submission order."""

    def check(results: list) -> None:
        if len(results) != len(checks):
            raise AssertionError(
                f"batch returned {len(results)} results, expected {len(checks)}"
            )
        for index, (one, result) in enumerate(zip(checks, results)):
            try:
                one([result])
            except AssertionError as error:
                raise AssertionError(f"query {index}: {error}") from None

    return check


def records_of(collection) -> list[tuple]:
    return list(collection.records)


# --------------------------------------------------------------------- #
# sort_spill: one blocked_memory device, ~40k records, 5% DRAM budget.
# --------------------------------------------------------------------- #
SORT_RECORDS = 40_000
SORT_BUDGET_SHARE = 0.05


def build_sort_spill(seed: int, scale: int = 1) -> Setup:
    n = SORT_RECORDS // scale
    started = time.perf_counter()
    backend = make_backend("blocked_memory", PersistentMemoryDevice())
    table = make_sort_input(n, backend, seed=permutation_seed(seed))
    gen_s = time.perf_counter() - started
    rows = records_of(table)
    budget = MemoryBudget.from_bytes(int(SORT_BUDGET_SHARE * n * RECORD_BYTES))
    deck = [
        DeckItem("full-sort", Query.scan(table).order_by(), expect_sorted(rows, 0)),
        DeckItem(
            "filter75-sort",
            Query.scan(table)
            .filter(lambda r: r[0] % 4 != 3, selectivity=0.75)
            .order_by(),
            expect_sorted([r for r in rows if r[0] % 4 != 3], 0),
        ),
        DeckItem(
            "filter50-sort",
            Query.scan(table)
            .filter(lambda r: r[0] % 2 == 0, selectivity=0.5)
            .order_by(),
            expect_sorted([r for r in rows if r[0] % 2 == 0], 0),
        ),
        DeckItem(
            "project-sort-attr1",
            Query.scan(table).project(0, 1, 2, 3).order_by(1),
            expect_sorted([r[:4] for r in rows], 1),
        ),
    ]
    return Setup(backend, budget, [backend], deck, gen_s)


# --------------------------------------------------------------------- #
# mixed_small: a 2-shard ShardSet on pmfs, submit(policy="queue")
# batches of 8 small queries (4 sharded, 4 shard-local) at four times the
# sizes of benchmarks/bench_multi_query.py; the budget admits 3 at a
# time.  One shard-local query is a filter -> join -> group-by over
# 800 x 8,000 records (1:10) with a share of 200 records, which the
# planner runs as deferred Filter -> NLJ -> HashAgg.
# --------------------------------------------------------------------- #
MIXED_SORT, MIXED_LEFT, MIXED_RIGHT, MIXED_PLAIN = 4_800, 1_200, 12_000, 3_200
MIXED_SHARE_BYTES = 80_000
MIXED_CONCURRENT = 3
NLJ_LEFT, NLJ_RIGHT, NLJ_SHARE_BYTES = 800, 8_000, 16_000


def build_mixed_small(seed: int, scale: int = 1) -> Setup:
    n_sort, n_plain = MIXED_SORT // scale, MIXED_PLAIN // scale
    n_left, n_right = MIXED_LEFT // scale, MIXED_RIGHT // scale
    start = permutation_seed(seed)
    started = time.perf_counter()
    shard_set = ShardSet.create(2, "pmfs")
    sort_input = make_sharded_sort_input(n_sort, shard_set, name="T", seed=start)
    left, right = make_sharded_join_inputs(n_left, n_right, shard_set, seed=start)
    nlj_left, nlj_right = make_join_inputs(
        NLJ_LEFT // scale, NLJ_RIGHT // scale, shard_set.backends[1],
        left_name="JL", right_name="JR", seed=start,
    )
    plain = [
        load_collection(
            (
                WISCONSIN_SCHEMA.make_record(key)
                for key in wisconsin_permutation(count, seed=start)
            ),
            backend,
            name,
        )
        for backend, name, count in (
            (shard_set.backends[0], "P0", n_plain),
            (shard_set.backends[1], "P1", n_plain),
        )
    ]
    gen_s = time.perf_counter() - started
    p0, p1 = plain
    sort_rows, left_rows, right_rows = (
        records_of(sort_input),
        records_of(left),
        records_of(right),
    )
    p0_rows, p1_rows = (records_of(c) for c in plain)
    nlj_joined = reference_join(
        [r for r in records_of(nlj_left) if r[0] % 2 == 0],
        records_of(nlj_right),
    )
    nlj_groups = reference_group(nlj_joined, 3, 0, 13)
    half_sort, half_plain = n_sort // 2, n_plain // 2
    queries = [
        ("shard-sort", Query.scan(sort_input).order_by(), expect_sorted(sort_rows, 0)),
        (
            "shard-join",
            Query.scan(left).join(Query.scan(right)),
            expect_multiset(reference_join(left_rows, right_rows)),
        ),
        (
            "shard-agg",
            Query.scan(sort_input).group_by(
                1, {"count": 1, "sum": 0}, estimated_groups=half_sort
            ),
            expect_groups(reference_group(sort_rows, 1, 1, 0)),
        ),
        (
            "shard-filter-sort",
            Query.scan(sort_input)
            .filter(lambda r, b=half_sort: r[0] < b, selectivity=0.5)
            .order_by(),
            expect_sorted([r for r in sort_rows if r[0] < half_sort], 0),
        ),
        (
            "plain0-filter",
            Query.scan(p0).filter(
                lambda r, b=half_plain: r[0] < b, selectivity=0.5
            ),
            expect_multiset([r for r in p0_rows if r[0] < half_plain]),
        ),
        (
            "plain1-agg",
            Query.scan(p1).group_by(
                1, {"count": 1, "sum": 0}, estimated_groups=half_plain
            ),
            expect_groups(reference_group(p1_rows, 1, 1, 0)),
        ),
        (
            "plain1-filter-join-agg",
            Query.scan(nlj_left)
            .filter(lambda r: r[0] % 2 == 0, selectivity=0.5)
            .join(Query.scan(nlj_right))
            .group_by(
                3, {"count": 0, "sum": 13}, estimated_groups=len(nlj_groups)
            ),
            expect_groups(nlj_groups),
        ),
        (
            "plain1-filter-sort",
            Query.scan(p1)
            .filter(lambda r, b=half_plain: r[0] >= b, selectivity=0.5)
            .order_by(),
            expect_sorted([r for r in p1_rows if r[0] >= half_plain], 0),
        ),
    ]
    share = MIXED_SHARE_BYTES // scale
    shares = {"plain1-filter-join-agg": NLJ_SHARE_BYTES // scale}
    batch = [
        {"query": query, "tag": tag, "memory_bytes": shares.get(tag, share)}
        for tag, query, _ in queries
    ]
    deck = [DeckItem("batch8", batch, per_query([check for *_, check in queries]))]
    budget = MemoryBudget.from_bytes(MIXED_CONCURRENT * share)
    return Setup(shard_set, budget, list(shard_set.backends), deck, gen_s)


WORKLOADS = {
    "sort_spill": build_sort_spill,
    "mixed_small": build_mixed_small,
}
