"""SLO evaluation: latency objectives, multi-window burn rates, gauges."""

from __future__ import annotations

import pytest

from repro.observability.exposition import render_exposition
from repro.observability.slo import (
    BUDGET_CODES,
    DEFAULT_OBJECTIVES,
    LatencyObjective,
    SloEvaluator,
)
from repro.service.metrics import ServiceMetrics


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def metrics() -> ServiceMetrics:
    return ServiceMetrics()


def evaluator(metrics, **kwargs) -> tuple[SloEvaluator, FakeClock]:
    clock = FakeClock()
    kwargs.setdefault("windows", (60.0, 300.0))
    return SloEvaluator(metrics, clock=clock, **kwargs), clock


class TestBurnRates:
    def test_no_traffic_means_zero_burn(self, metrics):
        slo, _clock = evaluator(metrics)
        summary = slo.refresh()
        assert summary["burn_rates"] == {"60s": 0.0, "300s": 0.0}
        assert summary["ok"] is True

    def test_burn_rate_is_ratio_over_budget(self, metrics):
        slo, clock = evaluator(metrics, error_budget=0.01)
        slo.refresh()  # baseline point
        for _ in range(98):
            metrics.record_request("publish", 0.001)
        metrics.record_error("internal-error")
        metrics.record_error("overloaded")
        for _ in range(2):
            metrics.record_request("publish", 0.001)
        clock.advance(30.0)
        summary = slo.refresh()
        # 2 budget errors over 100 requests = 2% ratio = 2x the 1% budget.
        assert summary["burn_rates"]["60s"] == pytest.approx(2.0)
        assert summary["ok"] is False

    def test_windows_forget_old_errors_at_different_speeds(self, metrics):
        slo, clock = evaluator(metrics, error_budget=0.01)
        slo.refresh()
        metrics.record_error("internal-error")
        for _ in range(100):
            metrics.record_request("publish", 0.001)
        clock.advance(30.0)
        slo.refresh()  # the error is inside both windows here
        clock.advance(90.0)  # now 120s past the error: outside 60s, inside 300s
        for _ in range(100):
            metrics.record_request("ping", 0.001)
        summary = slo.refresh()
        assert summary["burn_rates"]["60s"] == pytest.approx(0.0)
        assert summary["burn_rates"]["300s"] > 0.0

    def test_client_errors_spend_no_budget(self, metrics):
        slo, clock = evaluator(metrics)
        slo.refresh()
        for _ in range(10):
            metrics.record_request("publish", 0.001)
        metrics.record_error("unknown-design")
        metrics.record_error("invalid-xml")
        clock.advance(10.0)
        summary = slo.refresh()
        assert summary["burn_rates"]["60s"] == 0.0
        assert summary["budget_errors_total"] == 0
        assert "internal-error" in BUDGET_CODES and "unknown-design" not in BUDGET_CODES


class TestLatencyObjectives:
    def test_objective_violation_flips_ok(self, metrics):
        slo, _clock = evaluator(
            metrics, objectives=(LatencyObjective("publish", 10.0),)
        )
        for _ in range(20):
            metrics.record_request("publish", 0.5)  # 500 ms >> 10 ms target
        summary = slo.refresh()
        entry = summary["latency"]["publish"]
        assert entry["ok"] is False and entry["p99_ms"] > entry["target_ms"]
        assert summary["ok"] is False

    def test_quiet_op_meets_its_objective_vacuously(self, metrics):
        slo, _clock = evaluator(metrics)
        summary = slo.refresh()
        assert all(entry["ok"] for entry in summary["latency"].values())
        assert set(summary["latency"]) == {o.op for o in DEFAULT_OBJECTIVES}

    def test_unserved_objective_ops_create_no_latency_series(self, metrics):
        slo, _clock = evaluator(metrics)
        metrics.record_request("publish", 0.002)
        summary = slo.refresh()
        assert summary["latency"]["ping"] == {
            "p99_ms": 0.0, "target_ms": 50.0, "count": 0, "ok": True,
        }
        assert [key for key, _child in metrics.latency.children()] == [("publish",)]
        assert list(metrics.snapshot()["histograms"]) == ["latency.publish"]
        text = render_exposition(metrics.registry.collect())
        assert 'repro_request_latency_ms_count{op="publish"} 1' in text
        assert 'repro_request_latency_ms_bucket{op="ping"' not in text

    def test_invalid_budget_rejected(self, metrics):
        with pytest.raises(ValueError):
            SloEvaluator(metrics, error_budget=0.0)
        with pytest.raises(ValueError):
            SloEvaluator(metrics, error_budget=1.5)


class TestGaugeExport:
    def test_refresh_writes_repro_slo_gauges(self, metrics):
        slo, _clock = evaluator(metrics)
        metrics.record_request("publish", 0.001)
        slo.refresh()
        text = render_exposition(metrics.registry.collect())
        assert 'repro_slo_latency_p99_ms{op="publish"}' in text
        assert 'repro_slo_latency_target_ms{op="publish"} 250' in text
        assert 'repro_slo_latency_ok{op="publish"} 1' in text
        assert 'repro_slo_error_burn_rate{window="60s"}' in text
        assert 'repro_slo_error_burn_rate{window="300s"}' in text
        assert "repro_slo_error_budget_ratio 0.01" in text
