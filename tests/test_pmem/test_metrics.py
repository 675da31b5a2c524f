"""Tests for I/O counters and snapshots."""

import pytest

from repro.pmem.metrics import IOCounters, IOSnapshot


class TestIOCounters:
    def test_initially_zero(self):
        counters = IOCounters()
        assert counters.cacheline_reads == 0
        assert counters.cacheline_writes == 0
        assert counters.total_ns == 0

    def test_record_read_accumulates(self):
        counters = IOCounters()
        counters.record_read(cachelines=2.0, nbytes=128, cost_ns=20.0)
        counters.record_read(cachelines=1.0, nbytes=64, cost_ns=10.0)
        assert counters.cacheline_reads == pytest.approx(3.0)
        assert counters.bytes_read == 192
        assert counters.read_calls == 2
        assert counters.transfer_ns == pytest.approx(30.0)

    def test_record_write_accumulates(self):
        counters = IOCounters()
        counters.record_write(cachelines=4.0, nbytes=256, cost_ns=600.0)
        assert counters.cacheline_writes == pytest.approx(4.0)
        assert counters.bytes_written == 256
        assert counters.write_calls == 1

    def test_overhead_breakdown_by_label(self):
        counters = IOCounters()
        counters.record_overhead(100.0, label="syscall")
        counters.record_overhead(50.0, label="syscall")
        counters.record_overhead(30.0, label="reallocation")
        assert counters.overhead_ns == pytest.approx(180.0)
        assert counters.overhead_breakdown["syscall"] == pytest.approx(150.0)
        assert counters.overhead_breakdown["reallocation"] == pytest.approx(30.0)

    def test_total_ns_is_transfer_plus_overhead(self):
        counters = IOCounters()
        counters.record_read(1.0, 64, 10.0)
        counters.record_overhead(5.0)
        assert counters.total_ns == pytest.approx(15.0)

    def test_total_cachelines(self):
        counters = IOCounters()
        counters.record_read(2.0, 128, 20.0)
        counters.record_write(3.0, 192, 450.0)
        assert counters.total_cachelines == pytest.approx(5.0)

    def test_reset_clears_everything(self):
        counters = IOCounters()
        counters.record_read(2.0, 128, 20.0)
        counters.record_overhead(5.0, label="x")
        counters.reset()
        assert counters.cacheline_reads == 0
        assert counters.overhead_ns == 0
        assert counters.overhead_breakdown == {}

    def test_snapshot_is_frozen_copy(self):
        counters = IOCounters()
        counters.record_write(1.0, 64, 150.0)
        snapshot = counters.snapshot()
        counters.record_write(1.0, 64, 150.0)
        assert snapshot.cacheline_writes == pytest.approx(1.0)
        assert counters.cacheline_writes == pytest.approx(2.0)

    def test_fractional_bytes_accumulate_exactly(self):
        # Regression: each sub-cacheline charge used to be floored to an
        # int, so ten 6.4-byte reads summed to 60 instead of 64 bytes.
        counters = IOCounters()
        for _ in range(10):
            counters.record_read(cachelines=0.1, nbytes=6.4, cost_ns=1.0)
        assert counters.bytes_read == pytest.approx(64.0)
        assert counters.snapshot().bytes_read == 64

    def test_fractional_bytes_accumulate_exactly_in_bulk(self):
        counters = IOCounters()
        counters.record_write(cachelines=0.1, nbytes=6.4, cost_ns=1.0, count=10)
        assert counters.bytes_written == pytest.approx(64.0)
        assert counters.snapshot().bytes_written == 64

    def test_snapshot_carries_overhead_breakdown(self):
        # Regression: snapshot() used to drop the per-label breakdown, so
        # measure() deltas could not attribute overhead to labels.
        counters = IOCounters()
        counters.record_overhead(100.0, label="syscall")
        counters.record_overhead(30.0, label="reallocation")
        snapshot = counters.snapshot()
        assert snapshot.overhead_breakdown == {
            "syscall": 100.0,
            "reallocation": 30.0,
        }
        counters.record_overhead(1.0, label="syscall")
        assert snapshot.overhead_breakdown["syscall"] == pytest.approx(100.0)


class TestIOSnapshot:
    def test_subtraction_gives_delta(self):
        before = IOSnapshot(cacheline_reads=10.0, cacheline_writes=5.0, transfer_ns=100.0)
        after = IOSnapshot(cacheline_reads=25.0, cacheline_writes=8.0, transfer_ns=400.0)
        delta = after - before
        assert delta.cacheline_reads == pytest.approx(15.0)
        assert delta.cacheline_writes == pytest.approx(3.0)
        assert delta.transfer_ns == pytest.approx(300.0)

    def test_addition_combines(self):
        a = IOSnapshot(cacheline_reads=1.0, overhead_ns=10.0)
        b = IOSnapshot(cacheline_reads=2.0, overhead_ns=5.0)
        combined = a + b
        assert combined.cacheline_reads == pytest.approx(3.0)
        assert combined.overhead_ns == pytest.approx(15.0)

    def test_total_seconds(self):
        snapshot = IOSnapshot(transfer_ns=2e9, overhead_ns=1e9)
        assert snapshot.total_seconds == pytest.approx(3.0)

    def test_write_fraction(self):
        snapshot = IOSnapshot(cacheline_reads=3.0, cacheline_writes=1.0)
        assert snapshot.write_fraction == pytest.approx(0.25)

    def test_write_fraction_idle(self):
        assert IOSnapshot().write_fraction == 0.0

    def test_as_dict_round_trip(self):
        snapshot = IOSnapshot(cacheline_reads=2.0, cacheline_writes=4.0, transfer_ns=7.0)
        payload = snapshot.as_dict()
        assert payload["cacheline_reads"] == 2.0
        assert payload["cacheline_writes"] == 4.0
        assert payload["total_ns"] == pytest.approx(7.0)

    def test_snapshot_is_immutable(self):
        with pytest.raises(AttributeError):
            IOSnapshot().cacheline_reads = 1.0

    def test_subtraction_attributes_overhead_labels(self):
        before = IOSnapshot(
            overhead_ns=100.0, overhead_breakdown={"syscall": 100.0}
        )
        after = IOSnapshot(
            overhead_ns=180.0,
            overhead_breakdown={"syscall": 150.0, "reallocation": 30.0},
        )
        delta = after - before
        assert delta.overhead_breakdown == {
            "syscall": 50.0,
            "reallocation": 30.0,
        }

    def test_subtraction_drops_cancelled_labels(self):
        snapshot = IOSnapshot(
            overhead_ns=10.0, overhead_breakdown={"syscall": 10.0}
        )
        assert (snapshot - snapshot).overhead_breakdown == {}

    def test_addition_merges_overhead_labels(self):
        a = IOSnapshot(overhead_breakdown={"syscall": 10.0})
        b = IOSnapshot(overhead_breakdown={"syscall": 5.0, "reallocation": 2.0})
        assert (a + b).overhead_breakdown == {
            "syscall": 15.0,
            "reallocation": 2.0,
        }

    def test_as_dict_includes_breakdown(self):
        snapshot = IOSnapshot(overhead_breakdown={"syscall": 10.0})
        assert snapshot.as_dict()["overhead_breakdown"] == {"syscall": 10.0}


class TestShardedAggregationHelpers:
    def test_weighted_cachelines(self):
        snapshot = IOSnapshot(cacheline_reads=100.0, cacheline_writes=10.0)
        assert snapshot.weighted_cachelines(15.0) == 250.0
        assert snapshot.weighted_cachelines(1.0) == 110.0

    def test_sum_snapshots(self):
        from repro.pmem.metrics import sum_snapshots

        parts = [
            IOSnapshot(
                cacheline_reads=10.0,
                cacheline_writes=2.0,
                bytes_read=640,
                bytes_written=128,
                transfer_ns=400.0,
                overhead_breakdown={"syscall": 5.0},
            ),
            IOSnapshot(
                cacheline_reads=1.0,
                bytes_read=64,
                transfer_ns=10.0,
                overhead_breakdown={"syscall": 2.0, "copy": 1.0},
            ),
        ]
        total = sum_snapshots(parts)
        assert total.cacheline_reads == 11.0
        assert total.cacheline_writes == 2.0
        assert total.bytes_read == 704
        assert total.bytes_written == 128
        assert total.transfer_ns == 410.0
        assert total.overhead_breakdown == {"syscall": 7.0, "copy": 1.0}

    def test_sum_snapshots_empty(self):
        from repro.pmem.metrics import sum_snapshots

        assert sum_snapshots([]) == IOSnapshot()

    def test_critical_path_ns_is_the_slowest_device(self):
        from repro.pmem.metrics import critical_path_ns

        snapshots = [
            IOSnapshot(transfer_ns=100.0, overhead_ns=50.0),
            IOSnapshot(transfer_ns=120.0),
            IOSnapshot(),
        ]
        assert critical_path_ns(snapshots) == 150.0
        assert critical_path_ns([]) == 0.0
