"""The shared counter/histogram/ledger implementation and its two users."""

from __future__ import annotations

import threading

import pytest

from repro.distributed.network import DistributedDocument
from repro.metrics import (
    BUCKET_BOUNDS,
    Counter,
    Histogram,
    LedgerSnapshot,
    MetricsRegistry,
    TrafficLedger,
    exact_quantile,
)
from repro.service.metrics import ServiceMetrics
from repro.workloads.synthetic import distributed_workload


class TestCounter:
    def test_counts(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_thread_safety(self):
        counter = Counter()

        def spin():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 40_000


class TestHistogram:
    def test_percentiles(self):
        histogram = Histogram()
        values = [float(value) for value in range(1, 101)]
        for value in values:
            histogram.record(value)
        assert histogram.count == 100
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 100 and snapshot["max"] == 100.0
        assert snapshot["mean"] == pytest.approx(50.5)
        for key, fraction in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
            exact = exact_quantile(values, fraction)
            assert exact <= snapshot[key] <= exact * 2 ** 0.25
        assert snapshot["p50"] <= snapshot["p99"] <= snapshot["p999"] == snapshot["max"]

    def test_empty_histogram(self):
        histogram = Histogram()
        cumulative, total = histogram.buckets()
        assert cumulative == [0] * (len(BUCKET_BOUNDS) + 1) and total == 0.0
        assert histogram.snapshot() == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
            "p999": 0.0, "max": 0.0,
        }

    def test_totals_stay_exact_in_fixed_memory(self):
        histogram = Histogram()
        for value in range(100_000):
            histogram.record(float(value % 1000))
        cumulative, total = histogram.buckets()
        assert len(cumulative) == len(BUCKET_BOUNDS) + 1
        assert cumulative[-1] == histogram.count == 100_000
        assert total == pytest.approx(100 * sum(range(1000)))
        snapshot = histogram.snapshot()
        assert snapshot["mean"] == pytest.approx(499.5)
        assert snapshot["max"] == 999.0
        assert 499.0 <= snapshot["p50"] <= 499.0 * 2 ** 0.25

    def test_concurrent_record_from_threads(self):
        histogram = Histogram()

        def spin(base: float) -> None:
            for i in range(5_000):
                histogram.record(base + i % 7)

        threads = [threading.Thread(target=spin, args=(float(n),)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = histogram.snapshot()
        assert histogram.count == 20_000
        assert snapshot["count"] == 20_000
        assert histogram.buckets()[0][-1] == 20_000
        assert 0.0 <= snapshot["p50"] <= snapshot["max"] <= 9.0

    def test_bucket_layout_is_fixed_and_le_inclusive(self):
        assert len(BUCKET_BOUNDS) == 120
        assert BUCKET_BOUNDS[0] == 2 ** -9.75 and BUCKET_BOUNDS[-1] == 2.0 ** 20
        for low, high in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]):
            assert high / low == pytest.approx(2 ** 0.25)
        histogram = Histogram()
        histogram.record(1.0)  # exactly a bound: lands in le="1.0"
        histogram.record(2.0 ** 21)  # beyond the last bound: lands in +Inf
        cumulative, _total = histogram.buckets()
        one = BUCKET_BOUNDS.index(1.0)
        assert cumulative[one - 1] == 0 and cumulative[one] == 1
        assert cumulative[-2] == 1 and cumulative[-1] == 2
        assert histogram.snapshot()["p999"] == 2.0 ** 21  # +Inf bucket reads as max


class TestExactQuantile:
    def test_nearest_rank_of_finished_samples(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert exact_quantile(samples, 0.0) == 1.0
        assert exact_quantile(samples, 0.5) == 3.0
        assert exact_quantile(samples, 1.0) == 5.0
        assert exact_quantile([], 0.99) == 0.0


class TestTrafficLedger:
    def test_record_and_snapshot(self):
        ledger = TrafficLedger()
        ledger.record(100)
        ledger.record(50, messages=2)
        assert ledger.snapshot() == LedgerSnapshot(3, 150)
        assert ledger.messages == 3 and ledger.bytes == 150

    def test_since_window(self):
        ledger = TrafficLedger()
        ledger.record(10)
        base = ledger.snapshot()
        ledger.record(32)
        ledger.record(8)
        assert ledger.since(base) == LedgerSnapshot(2, 40)

    def test_reset(self):
        ledger = TrafficLedger()
        ledger.record(10)
        ledger.reset()
        assert ledger.snapshot() == LedgerSnapshot(0, 0)


class TestRegistry:
    def test_metrics_created_on_first_use_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter_family("repro_requests_total", "requests", ("op",)).labels(
            op="ping"
        ).inc()
        registry.counter_family("repro_requests_total", "requests", ("op",)).labels(
            op="ping"
        ).inc()
        registry.histogram_family("repro_latency_ms", "latency").labels().record(2.0)
        registry.ledger("wire.in").record(64)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"ledgers", "families"}
        assert snapshot["families"]["repro_requests_total"] == {"op=ping": 2}
        assert snapshot["families"]["repro_latency_ms"][""]["count"] == 1
        assert snapshot["ledgers"]["wire.in"] == {"messages": 1, "bytes": 64}

    def test_service_metrics_names(self):
        metrics = ServiceMetrics()
        metrics.record_request("publish", 0.002)
        metrics.record_error("bad-json")
        metrics.record_batch(8, 3, 0.001)
        metrics.inbound.record(128)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["requests.publish"] == 1
        assert snapshot["counters"]["errors.bad-json"] == 1
        assert snapshot["counters"]["batched_publications"] == 8
        assert snapshot["histograms"]["batch.size"]["max"] == 8.0
        assert snapshot["ledgers"]["wire.in"]["bytes"] == 128
        assert set(snapshot) == {"counters", "histograms", "ledgers", "families"}


class TestMetricFamilies:
    def test_name_convention_enforced(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter_family("Bad-Name", "nope")
        with pytest.raises(ValueError):
            registry.counter_family("not_repro_prefixed", "nope")
        with pytest.raises(ValueError):
            registry.counter_family("repro_ok_total", "nope", ("Bad-Label",))

    def test_reregistration_must_match(self):
        registry = MetricsRegistry()
        family = registry.counter_family("repro_things_total", "things", ("op",))
        assert registry.counter_family("repro_things_total", "things", ("op",)) is family
        with pytest.raises(ValueError):
            registry.counter_family("repro_things_total", "things", ("other",))
        with pytest.raises(ValueError):
            registry.gauge_family("repro_things_total", "things", ("op",))

    def test_labeled_snapshot_is_deterministic(self):
        def build(order):
            registry = MetricsRegistry()
            family = registry.counter_family("repro_ops_total", "ops", ("op", "design"))
            for op, design, amount in order:
                family.labels(op=op, design=design).inc(amount)
            return registry

        forward = [("publish", "d1", 3), ("ping", "d1", 1), ("publish", "d2", 2)]
        first = build(forward)
        second = build(list(reversed(forward)))
        assert first.snapshot()["families"] == second.snapshot()["families"]
        assert first.collect() == second.collect()
        samples = dict(
            next(f for f in first.collect() if f["name"] == "repro_ops_total")["samples"]
        )
        assert samples[(("op", "publish"), ("design", "d1"))] == 3

    def test_gauge_family_set_and_clear(self):
        registry = MetricsRegistry()
        family = registry.gauge_family("repro_live", "live things", ("pod",))
        family.labels(pod="a").set(2)
        family.labels(pod="a").inc()
        family.labels(pod="b").set(7)
        snapshot = family.snapshot()
        assert snapshot == {"pod=a": 3.0, "pod=b": 7.0}
        family.clear()
        assert family.snapshot() == {}

    def test_histogram_family_children(self):
        registry = MetricsRegistry()
        family = registry.histogram_family("repro_latency_ms", "latency", ("op",))
        for value in (1.0, 2.0, 3.0):
            family.labels(op="publish").record(value)
        snapshot = family.snapshot()["op=publish"]
        assert snapshot["count"] == 3 and snapshot["max"] == 3.0


class TestNetworkUnification:
    """The simulated peer network accounts through the same ledger class."""

    def test_network_ledger_is_a_traffic_ledger(self):
        workload = distributed_workload(peers=3, documents=3)
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        assert isinstance(document.network.ledger, TrafficLedger)
        base = document.network.ledger.snapshot()
        document.validate_locally(workload.typing)
        window = document.network.ledger.since(base)
        assert window.messages == document.network.message_count
        assert window.bytes == document.network.bytes_shipped
        assert window.messages == len(document.network.log)

    def test_network_reset_clears_ledger_and_log(self):
        workload = distributed_workload(peers=2, documents=2)
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        document.validate_locally(workload.typing)
        document.network.reset()
        assert document.network.snapshot() == LedgerSnapshot(0, 0)
        assert document.network.log == []
