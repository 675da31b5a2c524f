"""Spans around the system's public entry points, for the traced run.

The tracer patches a fixed list of public methods (``install``) and
restores them (``uninstall``); nothing under ``src/`` knows about it.
Spans record name, key, start, end, parent and request id on a
per-thread stack, because queries run on device-worker and sharded
coordinator threads.  They stay in memory and are written out at exit.
A span's self time is its busy time minus the busy time of the spans
it caused on the same thread.

``PersistentCollection.scan`` / ``scan_blocks`` / ``extend`` are counted
only: NLJ calls ``scan`` once per build slice and the loads call
``extend`` per batch, and a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter

from repro.query.executor import QueryExecutor
from repro.query.physical import PhysicalOperator
from repro.query.planner import CostBasedPlanner
from repro.runtime.context import OperatorContext
from repro.shard.executor import ShardedQueryExecutor
from repro.shard.planner import ShardedPlanner
from repro.storage.collection import PersistentCollection
from repro.workload_mgmt.admission import AdmissionController
from repro.workload_mgmt.handle import QueryStatus

now_ns = time.perf_counter_ns


class Span:
    __slots__ = (
        "name", "key", "start", "end", "parent", "request", "thread",
        "busy", "child", "attrs",
    )

    def __init__(self, name, key, parent, request, attrs) -> None:
        self.name = name
        self.key = key
        self.parent = parent
        self.request = request
        self.thread = threading.get_ident()
        self.attrs = attrs
        self.start = now_ns()
        self.end = self.start
        self.busy = 0
        self.child = 0

    @property
    def self_ns(self) -> int:
        return self.busy - self.child

    def to_json(self, index_of) -> dict:
        return {
            "name": self.name,
            "key": self.key,
            "start_ns": self.start,
            "end_ns": self.end,
            "busy_ns": self.busy,
            "self_ns": self.self_ns,
            "parent": index_of.get(id(self.parent)),
            "request": self.request,
            "thread": self.thread,
        }


class Tracer:
    """Records spans and call counts while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Request id stamped on every span; the runner sets it before
        #: each request (one client, closed loop: requests never overlap).
        self.request = None
        self._local = threading.local()
        self._count_tables: list[Counter] = []
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    # ------------------------------------------------------------------ #
    # Span bookkeeping.
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, name: str) -> None:
        table = getattr(self._local, "counts", None)
        if table is None:
            table = self._local.counts = Counter()
            with self._lock:
                self._count_tables.append(table)
        table[name] += 1

    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for table in self._count_tables:
                total.update(table)
        return total

    def _begin(self, name, key="", attrs=None) -> Span:
        stack = self._stack()
        span = Span(name, key, stack[-1] if stack else None, self.request, attrs)
        self.spans.append(span)
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = now_ns()
        span.busy = span.end - span.start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += span.busy

    # ------------------------------------------------------------------ #
    # Wrappers.
    # ------------------------------------------------------------------ #
    def _patch(self, owner, attr, make_wrapper) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def _spanned(self, name, key_of=None, attrs_of=None, result_attr=None):
        def make(original):
            def wrapper(*args, **kwargs):
                key = key_of(args) if key_of else ""
                attrs = attrs_of(args) if attrs_of else None
                span = self._begin(name, key, attrs)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._finish(span)
                if result_attr:
                    span.attrs[result_attr] = result
                return result

            return wrapper

        return make

    def _counted(self, name):
        def make(original):
            def wrapper(*args, **kwargs):
                self._count(name)
                return original(*args, **kwargs)

            return wrapper

        return make

    def _drained(self, original):
        tracer = self

        def blocks(operator):
            return tracer._drain(operator.node.operator, original(operator))

        return blocks

    def _drain(self, key, iterator):
        """Time each pull of an operator's block stream as one span.

        The span is on the stack only while a block is being produced,
        so its busy time excludes the consumer's work between pulls.
        """
        stack = self._stack()
        span = Span("drain", key, stack[-1] if stack else None, self.request, None)
        self.spans.append(span)
        try:
            while True:
                stack.append(span)
                started = now_ns()
                try:
                    block = next(iterator)
                except StopIteration:
                    return
                finally:
                    elapsed = now_ns() - started
                    span.busy += elapsed
                    stack.pop()
                    if stack:
                        stack[-1].child += elapsed
                yield block
        finally:
            span.end = now_ns()

    def install(self) -> None:
        """Patch the entry points; idempotent only via ``uninstall``."""
        operator_key = lambda args: args[0].node.operator  # noqa: E731
        plan_arg = lambda args: {"plan": args[1]}  # noqa: E731
        handle_arg = lambda args: {"handle": args[1]}  # noqa: E731
        self._patch(CostBasedPlanner, "plan", self._spanned("plan"))
        self._patch(ShardedPlanner, "plan", self._spanned("plan"))
        self._patch(
            AdmissionController,
            "try_admit",
            self._spanned("try_admit", attrs_of=handle_arg, result_attr="admitted"),
        )
        self._patch(AdmissionController, "release", self._spanned("release"))
        self._patch(
            QueryExecutor, "execute", self._spanned("execute", attrs_of=plan_arg)
        )
        self._patch(
            ShardedQueryExecutor,
            "execute",
            self._spanned("sharded_execute", attrs_of=plan_arg),
        )
        self._patch(
            PhysicalOperator, "open", self._spanned("open", key_of=operator_key)
        )
        self._patch(PhysicalOperator, "blocks", self._drained)
        self._patch(OperatorContext, "reconstruct", self._spanned("reconstruct"))
        for method in ("scan", "scan_blocks", "extend"):
            self._patch(PersistentCollection, method, self._counted(method))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def to_json(self) -> dict:
        index_of = {id(span): index for index, span in enumerate(self.spans)}
        return {
            "spans": [span.to_json(index_of) for span in self.spans],
            "counts": dict(self.counts()),
        }


# --------------------------------------------------------------------- #
# Per-layer metrics from the spans.
# --------------------------------------------------------------------- #
SORT_ALGORITHMS = ("ExMS", "LaS", "HybS", "SegS")
JOIN_ALGORITHMS = ("NLJ", "GJ", "HJ", "LaJ", "SegJ", "HybJ")
AGGREGATIONS = ("HashAgg", "SortAgg")
STREAMERS = ("Scan", "Filter", "Project")


def operator_family(label: str) -> str:
    """``SortAgg[LaS]`` -> ``SortAgg``; other labels are unchanged."""
    return label.split("[", 1)[0]


def _union_ns(intervals, low, high) -> int:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total, reach = 0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def settle_request(tracer: Tracer, request: dict) -> None:
    """Fold one finished request's spans into per-request numbers.

    Runs right after the request returns, while its handles and plans
    are still reachable from the span attributes, then drops those
    references so results do not pile up in memory over the loop.
    ``request`` holds ``{"id", "start", "end", "queries"}``; the derived
    numbers are added to it.
    """
    spans = [span for span in tracer.spans if span.request == request["id"]]
    executes = [span for span in spans if span.name == "execute"]
    sharded = [span for span in spans if span.name == "sharded_execute"]

    # Queue wait: a query's first admission attempt to the start of the
    # execute call that runs its plan (``QueryResult.plan``).
    plan_start = {}
    for span in executes + sharded:
        plan_start.setdefault(id(span.attrs["plan"]), span.start)
    waits, queued, seen = [], 0, set()
    for span in spans:
        if span.name != "try_admit":
            continue
        handle = span.attrs["handle"]
        if id(handle) in seen:
            continue
        seen.add(id(handle))
        queued += not span.attrs["admitted"]
        if handle.status is QueryStatus.DONE:
            waits.append(plan_start[id(handle.result().plan)] - span.start)

    # Fragment tasks belong to the sharded execute whose plan lists them;
    # the coordinator's time outside them is exchanges, merge and hand-off.
    owner_of = {}
    for span in sharded:
        for step in span.attrs["plan"].steps:
            for fragment in getattr(step, "fragments", ()):
                owner_of[id(fragment)] = span
    fragments: dict = {}
    for span in executes:
        owner = owner_of.get(id(span.attrs["plan"]))
        if owner is not None:
            fragments.setdefault(id(owner), []).append((span.start, span.end))
    exchange_ns = sum(
        (span.end - span.start)
        - _union_ns(fragments.get(id(span), ()), span.start, span.end)
        for span in sharded
    )

    # Overhead: request wall time covered by no planning or execution.
    covered = [
        (span.start, span.end)
        for span in spans
        if span.name in ("plan", "execute", "sharded_execute")
    ]
    request.update(
        waits=waits,
        queued=queued,
        fragment_tasks=sum(len(v) for v in fragments.values()),
        exchange_ns=exchange_ns,
        overhead_ns=(request["end"] - request["start"])
        - _union_ns(covered, request["start"], request["end"]),
    )
    for span in spans:
        span.attrs = None


def span_metrics(tracer: Tracer, requests: list[dict]) -> dict:
    """Per-query layer metrics over the settled traced requests."""
    queries = sum(request["queries"] for request in requests)
    traced = {request["id"] for request in requests}
    spans = [span for span in tracer.spans if span.request in traced]
    ms = 1e-6 / queries

    self_by_key: Counter = Counter()
    for span in spans:
        if span.name in ("open", "drain"):
            self_by_key[operator_family(span.key)] += span.self_ns
    plans = [span for span in spans if span.name == "plan"]
    reconstructs = [span for span in spans if span.name == "reconstruct"]
    waits = sorted(wait for request in requests for wait in request["waits"])
    counts = tracer.counts()
    metrics = {
        "query.plan_ms": sum(
            span.busy
            for span in plans
            if span.parent is None or span.parent.name != "plan"
        )
        * ms,
        "query.plans_per_query": len(plans) / queries,
        "query.stream_ms": (
            sum(self_by_key[key] for key in STREAMERS)
            + sum(span.self_ns for span in spans if span.name == "execute")
        )
        * ms,
        "workload_mgmt.admit_ms": sum(
            span.busy for span in spans if span.name in ("try_admit", "release")
        )
        * ms,
        "workload_mgmt.queue_wait_ms_p50": (
            waits[len(waits) // 2] * 1e-6 if waits else 0.0
        ),
        "workload_mgmt.overhead_ms": sum(r["overhead_ns"] for r in requests) * ms,
        "workload_mgmt.queued_share": sum(r["queued"] for r in requests) / queries,
        "runtime.reconstructions": len(reconstructs) / queries,
        "runtime.reconstruct_ms": sum(span.busy for span in reconstructs) * ms,
        "shard.fragment_tasks": sum(r["fragment_tasks"] for r in requests)
        / queries,
        "shard.exchange_ms": sum(r["exchange_ns"] for r in requests) * ms,
        "storage.scan_calls": counts["scan"] / queries,
        "storage.scan_blocks_calls": counts["scan_blocks"] / queries,
        "storage.extend_calls": counts["extend"] / queries,
    }
    for alg in SORT_ALGORITHMS:
        metrics[f"sorts.{alg}.self_ms"] = self_by_key[alg] * ms
    for alg in JOIN_ALGORITHMS:
        metrics[f"joins.{alg}.self_ms"] = self_by_key[alg] * ms
    for alg in AGGREGATIONS:
        metrics[f"aggregation.{alg}.self_ms"] = self_by_key[alg] * ms
    return metrics
