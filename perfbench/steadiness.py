#!/usr/bin/env python3
"""Repeat the benchmark in fresh processes and report its spread.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --out perfbench/STEADINESS.json

For ``i`` in ``1 .. RUNS``, round ``i`` runs every workload of
``BENCHMARK.json`` once with ``--seed i``, workloads interleaved, each in
its own process, untraced; then one traced run per workload with seed 1.
For every end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound; for the wall metrics
also those of the raw figures before host-speed scaling.  The benchmark is
steady when every spread is within its bound and the deterministic
counters are identical between the traced and the untraced run of the
same seed.  Failed requests are listed by run.  It exits with 1 when the
benchmark is not steady or an output was wrong.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Runs per workload, one seed each.
RUNS = 10

#: Deterministic end-to-end metrics: simulated, not timed.
COUNTERS = (
    "sim_ms_per_query",
    "write_cl_per_query",
    "read_cl_per_query",
    "leaked_kb_per_query",
    "ok_share",
)


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark process; returns its result plus the counters line."""
    started = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr}"
        )
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    #: Standard-error lines naming a failed request or its exception.
    result["failures"] = [
        line for line in completed.stderr.splitlines()
        if line.startswith("perfbench: ") or line.startswith("repro.")
    ]
    for line in lines:
        if line.startswith("perfbench: counters "):
            result["counters"] = json.loads(line.split(" ", 2)[2])
        elif line.startswith(f"perfbench: {workload} "):
            fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
            result["probe_ms"] = float(fields["probe_ms"])
            result["raw"] = {
                name[len("raw_"):]: float(value)
                for name, value in fields.items()
                if name.startswith("raw_")
            }
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in contract["workloads"]]
    seconds = contract["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    runs: dict[str, list[dict]] = {name: [] for name in workloads}
    for seed in range(1, RUNS + 1):
        for workload in workloads:
            result = run_once(workload, seed, seconds, trace=False)
            runs[workload].append(result)
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                + " ".join(
                    f"{name}={metric['value']:.4g}"
                    for name, metric in result["metrics"].items()
                ),
                flush=True,
            )

    report: dict = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    steady = correct = True
    for workload in workloads:
        results = runs[workload]
        traced = run_once(workload, 1, seconds, trace=True)
        untraced_counters = results[0]["counters"]
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            entry = spread(values)
            entry["bound"] = bound
            entry["within_third_of_bound"] = entry["spread"] < bound / 3
            if name in results[0]["raw"]:
                raw = spread([r["raw"][name] for r in results])
                entry["raw_median"], entry["raw_spread"] = (
                    raw["median"], raw["spread"]
                )
            if entry["spread"] > bound:
                steady = False
            metrics[name] = entry
        correct = correct and all(
            r["correct"] for r in results + [traced]
        )
        steady = steady and traced["counters"] == untraced_counters
        report["workloads"][workload] = {
            "ok_share_per_run": [
                r["metrics"]["ok_share"]["value"] for r in results
            ],
            "failures": {
                label: r["failures"]
                for label, r in zip(
                    [f"seed {seed}" for seed in range(1, RUNS + 1)]
                    + ["traced, seed 1"],
                    results + [traced],
                )
                if r["failures"]
            },
            "metrics": metrics,
            "counters_seed1": untraced_counters,
            "counters_equal_across_seeds": {
                name: len({r["counters"][name] for r in results}) == 1
                for name in COUNTERS
            },
            "traced_counters_equal_untraced": traced["counters"]
            == untraced_counters,
            "host_probe_ms_per_run": [r["probe_ms"] for r in results],
            "process_wall_s_max": max(r["wall_s"] for r in results),
            "qps_per_run": [r["metrics"]["qps"]["value"] for r in results],
            "trace_overhead_share": traced["metrics"]["trace.overhead_share"][
                "value"
            ],
            "host_probe_ms_traced_run": traced["metrics"]["host.probe_ms"]["value"],
        }
        print(json.dumps({workload: report["workloads"][workload]}, indent=1))
    report["steady"] = steady
    report["all_correct"] = correct
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if steady and correct else 1


if __name__ == "__main__":
    sys.exit(main())
