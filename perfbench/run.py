#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sort_spill --seed 1 --seconds 10 --trace 0

The benchmark measures the system from outside: it drives
``Session.query`` and ``Session.submit`` and reads public counters
(``device.snapshot()`` deltas in ``QueryResult.io``, ``backend.stores()``
and ``total_physical_bytes``, ``QueryResult.executions``, ``QueryHandle``
fields and ``Session.calibration``).  ``--trace 1`` additionally wraps
the public entry points listed in ``tracer.py`` for the per-layer
numbers.

Steadiness is designed in: one client thread in a closed loop, one
session kept open across the loop (leaks accumulate as they would for a
real user), inputs and a warm-up pass before timing, ``gc.collect()``
before timing, and a request count fixed by ``--seconds`` and the
workload (whole deck passes), so the same arguments always measure the
same work.  Set-up is repeated ``SETUPS[workload]`` times, spread over
the run, and its median reported.  A short fixed loop, the host probe,
runs after every request and set-up; the wall metrics are scaled by
``REFERENCE_PROBE_MS`` over the probe's median, so they read as on a host
where the probe takes that long (the raw figures are on the summary
line).  The tail latency instead scales each request by the mean of the
probes just before and after it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Mismatches
against the oracles and exceptions are printed to standard error and
counted as failed requests.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Set-ups per run; ``setup_s`` is their median.  A ``mixed_small``
#: set-up takes about 0.3 s, so it makes more of them to steady the median.
SETUPS = {"sort_spill": 5, "mixed_small": 11}

#: The host probe: a fixed pure-Python loop of this many iterations, and
#: the wall ms it is scaled to.  The host's speed moves by up to half
#: between runs minutes apart and the probe's median over a run follows
#: it (correlation 0.7 to 0.95 with request time on a 2-vCPU VM); the
#: probe does not touch the system under test.
PROBE_ITERATIONS = 60_000
REFERENCE_PROBE_MS = 6.0

#: Deck passes per measured second.  Fixed per workload so a run's
#: request count depends only on ``--seconds``; on a 2-vCPU VM the
#: requests of one untraced run take about ``--seconds`` seconds.
PASSES_PER_SECOND = {"sort_spill": 0.9, "mixed_small": 5.0}

#: The tail latency is the highest percentile with this many samples
#: beyond it.
TAIL_BEYOND = 10

#: Operators whose cost-model error ``|actual / estimated - 1|`` in
#: weighted cachelines is reported (``Session.calibration``): the ones the
#: workloads run.  The metric name drops the brackets.
CALIBRATED_OPERATORS = (
    "Filter", "Project", "LaS", "SegS", "NLJ", "HashAgg", "SortAgg[LaS]",
)


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names and units this run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_system():
    """Put the checkout's ``src`` on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro sources under {src}; run from the root "
            "of a full checkout"
        )
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def host_probe_ms() -> float:
    """Wall ms of a fixed pure-Python loop: the host's current speed."""
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value * value % 7
    return (time.perf_counter() - started) * 1e3


def tail(latencies: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with ``TAIL_BEYOND``
    samples beyond it (the median when there are too few samples)."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 2 * TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    rank = count - TAIL_BEYOND
    return 100.0 * rank / count, ordered[rank - 1]


def sim_ns(result) -> float:
    """The paper's clock: the critical path for sharded queries."""
    critical = getattr(result, "critical_path_ns", None)
    return critical if critical is not None else result.io.total_ns


def node_executions(result):
    """Every executed plan node's ``NodeExecution`` (fragments too)."""
    fragment_executions = getattr(result, "fragment_executions", None)
    if fragment_executions is None:
        yield from result.executions.values()
        return
    for per_shard in fragment_executions.values():
        for executions in per_shard:
            yield from executions.values()


class Loop:
    """Runs deck requests against one open session and keeps tallies."""

    def __init__(self, session, deck) -> None:
        self.session = session
        self.deck = deck
        self.signatures: dict[str, tuple] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.queries = 0
        #: Queries sent through the session, warm-up and failures included.
        self.submitted = 0
        self.latencies_ms: list[float] = []
        self.totals = dict.fromkeys(
            ("sim_ns", "total_ns", "reads", "writes", "read_calls",
             "write_calls", "runs", "merge_passes", "iterations"),
            0.0,
        )

    def execute(self, item) -> list:
        if not item.is_batch:
            return [self.session.query(item.payload)]
        # A batch is submitted query by query and awaited as a whole, not
        # through ``run_workload``: its deferred start loop can dispatch a
        # queued handle a second time when a release admits it meanwhile
        # (see README.md, "Known program defect").
        handles = []
        try:
            for options in item.payload:
                handles.append(self.session.submit(policy="queue", **options))
        finally:
            for handle in handles:
                handle.wait()
        return [handle.result() for handle in handles]

    def request(self, item, *, timed: bool, tracer=None, request_id=None):
        """One request: run it, check it, tally it; returns its window."""
        if tracer is not None:
            tracer.request = request_id
        self.submitted += item.queries
        started = time.perf_counter_ns()
        try:
            results = self.execute(item)
        except Exception:  # noqa: BLE001 - a failed request is reported
            ended = time.perf_counter_ns()
            self.fail(item, "raised\n" + traceback.format_exc(), timed)
            return started, ended
        ended = time.perf_counter_ns()
        try:
            item.check(results)
        except AssertionError as error:
            self.fail(item, f"wrong output: {error}", timed)
            return started, ended
        signature = tuple(
            (sim_ns(r), r.io.cacheline_reads, r.io.cacheline_writes)
            for r in results
        )
        first = self.signatures.setdefault(item.tag, signature)
        if signature != first:
            self.errors.append(
                f"{item.tag}: simulated I/O differs between repetitions: "
                f"{first} vs {signature}"
            )
        if timed:
            self.attempted += 1
            self.queries += len(results)
            self.latencies_ms.append((ended - started) * 1e-6)
            self.tally(results)
        return started, ended

    def fail(self, item, message: str, timed: bool) -> None:
        print(f"perfbench: request {item.tag} {message}", file=sys.stderr)
        if timed:
            self.attempted += 1
            self.failed += 1
        else:
            self.errors.append(f"{item.tag} failed outside the timed loop")

    def tally(self, results) -> None:
        totals = self.totals
        for result in results:
            totals["sim_ns"] += sim_ns(result)
            totals["total_ns"] += result.io.total_ns
            totals["reads"] += result.io.cacheline_reads
            totals["writes"] += result.io.cacheline_writes
            totals["read_calls"] += result.io.read_calls
            totals["write_calls"] += result.io.write_calls
            for execution in node_executions(result):
                details = execution.details
                totals["runs"] += details.get("runs_generated", 0)
                totals["merge_passes"] += details.get("merge_passes", 0)
                totals["iterations"] += details.get("iterations", 0)


def set_up(decks, workload: str, seed: int, scale: int):
    """Build inputs, open the session, warm up; returns (setup, loop, s).

    The set-up time counts generation, opening the session and the
    warm-up requests' execution; the oracle checks of the warm-up pass
    are the benchmark's own work and fall outside it.
    """
    from repro.session import Session

    setup = decks.WORKLOADS[workload](seed, scale)
    gc.collect()
    started = time.perf_counter_ns()
    session = Session(setup.target, setup.budget)
    busy_ns = time.perf_counter_ns() - started
    loop = Loop(session, setup.deck)
    for item in setup.deck:
        start, end = loop.request(item, timed=False)
        busy_ns += end - start
    return setup, loop, setup.gen_s + busy_ns * 1e-9


def run(workload: str, seed: int, seconds: int, trace: bool, scale: int = 1) -> dict:
    """Set up, warm up, run the timed loop; ``scale`` divides input sizes
    (the self-tests run at smoke size)."""
    import decks
    import tracer as tracing

    if workload not in decks.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {workload!r}; expected one of "
            f"{', '.join(decks.WORKLOADS)}"
        )
    probes: list[float] = []
    setup, loop, setup_s = set_up(decks, workload, seed, scale)
    setup_times, gen_times, warm_errors = [setup_s], [setup.gen_s], []
    probes.append(host_probe_ms())
    passes = max(2, round(seconds * PASSES_PER_SECOND[workload]))
    setups = SETUPS[workload]
    # The other set-ups are spread over the timed loop, between passes, so
    # their median samples the host across the run as the requests do,
    # not only in its first seconds.
    setups_before = Counter((i + 1) * passes // setups for i in range(setups - 1))

    def extra_setup() -> None:
        other, other_loop, other_s = set_up(decks, workload, seed, scale)
        setup_times.append(other_s)
        gen_times.append(other.gen_s)
        warm_errors.extend(other_loop.errors)
        other_loop.session.close()
        probes.append(host_probe_ms())
        gc.collect()

    gc.collect()
    tracer = tracing.Tracer() if trace else None
    traced_requests: list[dict] = []
    #: Each checked request's latency scaled by the probes around it.
    local_ms: list[float] = []
    #: Request wall ns and pass count, untraced (False) and traced (True).
    walls = {False: 0, True: 0}
    pass_counts = {False: 0, True: 0}
    loop_started = time.perf_counter_ns()
    for index in range(passes):
        for _ in range(setups_before[index]):
            extra_setup()
        # A traced run makes the same passes, half of them traced: the
        # counters match the untraced run's, and traced and untraced
        # passes alternate (T U U T ...) so host drift falls on both
        # halves alike and their walls give the tracing overhead.
        traced = trace and (index % 2 == (index // 2) % 2)
        pass_counts[traced] += 1
        if traced:
            tracer.install()
        try:
            for item in loop.deck:
                request_id = len(traced_requests) if traced else None
                probe_before, measured = probes[-1], len(loop.latencies_ms)
                start, end = loop.request(
                    item, timed=True, tracer=tracer if traced else None,
                    request_id=request_id,
                )
                walls[traced] += end - start
                probes.append(host_probe_ms())
                if len(loop.latencies_ms) > measured:
                    local_ms.append(
                        loop.latencies_ms[-1] * 2 * REFERENCE_PROBE_MS
                        / (probe_before + probes[-1])
                    )
                if traced:
                    request = {
                        "id": request_id, "start": start, "end": end,
                        "queries": item.queries,
                    }
                    tracing.settle_request(tracer, request)
                    traced_requests.append(request)
        finally:
            if traced:
                tracer.uninstall()
    loop_s = (time.perf_counter_ns() - loop_started) * 1e-9

    loop.session.close()
    session_queries = loop.submitted
    leaked_bytes = setup.physical_bytes() - setup.input_bytes
    leaked_stores = setup.store_count() - setup.input_stores
    errors = warm_errors + loop.errors
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)

    queries = max(loop.queries, 1)
    totals = loop.totals
    counters = {
        "sim_ms_per_query": totals["sim_ns"] / queries * 1e-6,
        "write_cl_per_query": totals["writes"] / queries,
        "read_cl_per_query": totals["reads"] / queries,
        "leaked_kb_per_query": leaked_bytes / session_queries / 1024,
        "ok_share": (loop.attempted - loop.failed) / max(loop.attempted, 1),
    }
    latencies = loop.latencies_ms
    tail_at, tail_ms = tail(latencies)
    probe_ms = statistics.median(probes)
    raw = {
        "setup_s": statistics.median(setup_times),
        # One client in a closed loop: its own oracle checks between
        # requests are not the system's time.
        "qps": loop.queries / (walls[False] * 1e-9),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
    }
    # Times scale with the host's speed, throughput inversely.  The tail
    # is made of single requests, so each is scaled by the host's speed
    # around it rather than over the run.
    host_scale = REFERENCE_PROBE_MS / probe_ms
    print(
        f"perfbench: {workload} seed={seed} trace={int(trace)} "
        f"requests={loop.attempted} queries={loop.queries} passes={passes} "
        f"setups={len(setup_times)} loop_s={loop_s:.2f} "
        f"probe_ms={probe_ms:.4f} probes={len(probes)} "
        f"latency_tail=p{tail_at:.1f} of {len(latencies)} requests "
        + " ".join(f"raw_{name}={value:.6g}" for name, value in raw.items())
    )
    print("perfbench: counters " + json.dumps(counters, sort_keys=True))

    if trace:
        values = tracing.span_metrics(tracer, traced_requests)
        factors = loop.session.calibration.correction_factors()
        for label in CALIBRATED_OPERATORS:
            name = label.replace("[", "_").rstrip("]")
            # 0 when this workload does not run the operator: no estimate
            # was made, so none was missed.
            ratio = factors.get(label)
            values[f"query.est_actual_wcl.{name}"] = (
                0.0 if ratio is None else abs(ratio - 1.0)
            )
        values.update(
            {
                "workloads.gen_s": statistics.median(gen_times),
                "sorts.runs": totals["runs"] / queries,
                "sorts.merge_passes": totals["merge_passes"] / queries,
                "joins.iterations": totals["iterations"] / queries,
                "shard.critical_path_share": totals["sim_ns"]
                / max(totals["total_ns"], 1e-9),
                "pmem.read_calls": totals["read_calls"] / queries,
                "pmem.write_calls": totals["write_calls"] / queries,
                "pmem.stores_leaked": leaked_stores / session_queries,
                "pmem.leaked_kb_per_query": counters["leaked_kb_per_query"],
                "host.probe_ms": probe_ms,
                "trace.overhead_share": (walls[True] / pass_counts[True])
                / (walls[False] / pass_counts[False])
                - 1.0,
            }
        )
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        out.write_text(json.dumps(tracer.to_json()))
        print(
            f"perfbench: {len(tracer.spans)} spans written to "
            f"{out.relative_to(ROOT)}"
        )
    else:
        values = {
            "setup_s": raw["setup_s"] * host_scale,
            "qps": raw["qps"] / host_scale,
            "latency_p50_ms": raw["latency_p50_ms"] * host_scale,
            "latency_tail_ms": tail(local_ms)[1],
            "sim_ms_per_query": counters["sim_ms_per_query"],
            "write_cl_per_query": counters["write_cl_per_query"],
            "read_cl_per_query": counters["read_cl_per_query"],
            "device_bytes_per_input_byte": setup.physical_bytes()
            / setup.input_bytes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
            "ok_share": counters["ok_share"],
        }
    return {
        "correct": not errors and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "values": values,
        "counters": counters,
        "errors": errors,
    }


def with_units(values: dict, specs: list[dict]) -> dict:
    """Attach each metric's unit from ``BENCHMARK.json``; names must match."""
    expected = {spec["name"]: spec["unit"] for spec in specs}
    if set(values) != set(expected):
        raise RuntimeError(
            "computed metrics do not match BENCHMARK.json: missing "
            f"{sorted(set(expected) - set(values))}, extra "
            f"{sorted(set(values) - set(expected))}"
        )
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in expected.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_system()
    contract = load_contract()
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    specs = contract["per_layer" if args.trace else "end_to_end"]
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": with_units(outcome["values"], specs),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
