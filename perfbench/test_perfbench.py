"""Self-tests of the benchmark at smoke size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_system()

import decks  # noqa: E402

SMOKE = 10
WORKLOADS = [spec["name"] for spec in run.load_contract()["workloads"]]


def smoke(workload: str, seed: int = 3, trace: bool = False) -> dict:
    return run.run(workload, seed, seconds=1, trace=trace, scale=SMOKE)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_reported_with_its_unit(workload, trace):
    contract = run.load_contract()
    outcome = smoke(workload, trace=trace)
    specs = contract["per_layer" if trace else "end_to_end"]
    metrics = run.with_units(outcome["values"], specs)
    assert outcome["correct"], outcome["errors"]
    assert outcome["attempted"] >= 1 and outcome["failed"] == 0
    for spec in specs:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert isinstance(metrics[spec["name"]]["value"], (int, float))
    if not trace:
        for spec in specs:
            assert metrics[spec["name"]]["value"] > 0, spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_counters_traced_or_not(workload):
    first = smoke(workload, seed=5)
    again = smoke(workload, seed=5)
    traced = smoke(workload, seed=5, trace=True)
    assert first["counters"] == again["counters"] == traced["counters"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_still_passes_the_oracles(workload):
    outcome = smoke(workload, seed=911)
    assert outcome["correct"], outcome["errors"]
    assert outcome["counters"]["ok_share"] == 1.0


def _fake_result(reads: float):
    io = SimpleNamespace(
        total_ns=10.0, cacheline_reads=reads, cacheline_writes=1.0,
        read_calls=1, write_calls=1,
    )
    return SimpleNamespace(io=io, executions={}, records=[(1,)])


def test_a_changing_simulated_io_for_one_deck_item_is_an_error():
    reads = iter([5.0, 5.0, 6.0])
    session = SimpleNamespace(query=lambda payload: _fake_result(next(reads)))
    item = decks.DeckItem("q", object(), lambda results: None)
    loop = run.Loop(session, [item])
    for _ in range(3):
        loop.request(item, timed=True)
    assert loop.failed == 0
    assert len(loop.errors) == 1 and "differs between repetitions" in loop.errors[0]


def test_wrong_output_and_exceptions_count_as_failed_and_are_printed(capsys):
    def check(results):
        raise AssertionError("expected 2 records")

    def boom(payload):
        raise RuntimeError("device on fire")

    wrong = decks.DeckItem("wrong", object(), check)
    loop = run.Loop(SimpleNamespace(query=lambda p: _fake_result(1.0)), [wrong])
    loop.request(wrong, timed=True)
    raising = decks.DeckItem("raising", object(), lambda results: None)
    loop.session = SimpleNamespace(query=boom)
    loop.request(raising, timed=True)
    assert (loop.attempted, loop.failed) == (2, 2)
    err = capsys.readouterr().err
    assert "expected 2 records" in err and "device on fire" in err


def test_set_up_time_leaves_out_the_oracle_checks():
    pause = 0.25

    def build(seed, scale):
        setup = decks.build_sort_spill(seed, scale)
        for item in setup.deck:
            item.check = lambda results, check=item.check: (
                time.sleep(pause),
                check(results),
            )
        return setup

    fake_decks = SimpleNamespace(WORKLOADS={"slow_checks": build})
    setup, loop, setup_s = run.set_up(fake_decks, "slow_checks", 1, 100)
    loop.session.close()
    assert not loop.errors
    assert setup_s < pause * len(setup.deck)


def test_the_tail_is_the_highest_percentile_with_ten_samples_beyond():
    latencies = [float(value) for value in range(1, 101)]
    percentile, value = run.tail(latencies)
    assert percentile == 90.0 and value == 90.0
    assert sum(1 for x in latencies if x > value) == 10
    assert run.tail([1.0, 2.0, 3.0]) == (50.0, 2.0)


def test_contract_file_matches_the_runner():
    contract = run.load_contract()
    assert contract["command"] == ["python3", "perfbench/run.py"]
    assert (
        set(WORKLOADS) == set(decks.WORKLOADS) == set(run.PASSES_PER_SECOND)
        == set(run.SETUPS)
    )
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
