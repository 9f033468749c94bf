"""Prometheus text-format rendering, the HTTP exporter, merged scrapes."""

from __future__ import annotations

import urllib.error
import urllib.request

import pytest

from repro.metrics import BUCKET_BOUNDS, METRIC_NAME_RE, MetricsRegistry
from repro.observability.exposition import (
    EXPOSITION_CONTENT_TYPE,
    SAMPLE_LINE_RE,
    MetricsExporter,
    merge_expositions,
    render_exposition,
)


def _well_formed(text: str) -> None:
    for line in text.splitlines():
        if line and not line.startswith("#"):
            assert SAMPLE_LINE_RE.match(line), f"bad sample line: {line!r}"


@pytest.fixture()
def registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    requests = registry.counter_family("repro_requests_total", "requests by op", ("op",))
    requests.labels(op="publish").inc(3)
    requests.labels(op="ping").inc()
    registry.gauge_family("repro_pods_live", "live pods").labels().set(2)
    latency = registry.histogram_family("repro_latency_ms", "latency", ("op",))
    for value in (1.0, 2.0, 3.0):
        latency.labels(op="publish").record(value)
    registry.ledger("wire.in").record(64)
    return registry


class TestRenderExposition:
    def test_renders_valid_text_format(self, registry):
        text = render_exposition(registry.collect())
        _well_formed(text)
        assert "# HELP repro_requests_total requests by op" in text
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{op="publish"} 3' in text
        assert 'repro_requests_total{op="ping"} 1' in text
        assert "# TYPE repro_pods_live gauge" in text
        assert "repro_pods_live 2" in text

    def test_histograms_render_as_cumulative_buckets(self, registry):
        text = render_exposition(registry.collect())
        assert "# TYPE repro_latency_ms histogram" in text
        assert "summary" not in text
        buckets = [
            line for line in text.splitlines() if line.startswith("repro_latency_ms_bucket{")
        ]
        assert len(buckets) == len(BUCKET_BOUNDS) + 1
        assert buckets[-1] == 'repro_latency_ms_bucket{op="publish",le="+Inf"} 3'
        assert 'repro_latency_ms_bucket{op="publish",le="1.0"} 1' in text
        assert 'repro_latency_ms_bucket{op="publish",le="2.0"} 2' in text
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)  # cumulative
        assert 'repro_latency_ms_sum{op="publish"} 6.0' in text
        assert 'repro_latency_ms_count{op="publish"} 3' in text
        lines = text.splitlines()
        at = lines.index(buckets[-1])
        assert lines[at + 1 : at + 3] == [
            'repro_latency_ms_sum{op="publish"} 6.0',
            'repro_latency_ms_count{op="publish"} 3',
        ]

    def test_ledgers_become_counters(self, registry):
        text = render_exposition(registry.collect())
        assert "repro_wire_in_messages_total 1" in text
        assert "repro_wire_in_bytes_total 64" in text

    def test_empty_families_are_skipped(self):
        registry = MetricsRegistry()
        registry.counter_family("repro_unused_total", "never recorded", ("op",))
        text = render_exposition(registry.collect())
        assert "repro_unused_total" not in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        family = registry.counter_family("repro_errors_total", "errors", ("code",))
        family.labels(code='quo"te\\back\nline').inc()
        text = render_exposition(registry.collect())
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        _well_formed(text)

    def test_metric_name_convention(self, registry):
        for family in registry.collect():
            assert METRIC_NAME_RE.match(family["name"]), family["name"]


class TestMergeExpositions:
    def test_injects_labels_and_dedups_headers(self):
        part = "# HELP repro_x_total x\n# TYPE repro_x_total counter\nrepro_x_total 1\n"
        labeled = 'repro_x_total{op="a"} 2\n'
        merged = merge_expositions(
            [((("pod", "pod-0"),), part), ((("pod", "pod-1"),), part + labeled)]
        )
        _well_formed(merged)
        assert merged.count("# TYPE repro_x_total counter") == 1
        assert 'repro_x_total{pod="pod-0"} 1' in merged
        assert 'repro_x_total{pod="pod-1"} 1' in merged
        assert 'repro_x_total{op="a",pod="pod-1"} 2' in merged

    def test_existing_label_wins_over_injected(self):
        text = 'repro_lease_age{pod="pod-7"} 3\n'
        merged = merge_expositions([((("pod", "directory"), ("role", "directory")), text)])
        assert 'repro_lease_age{pod="pod-7",role="directory"} 3' in merged
        assert merged.count("pod=") == 1

    def test_each_family_stays_one_group(self, registry):
        text = render_exposition(registry.collect())
        merged = merge_expositions(
            [((("pod", "pod-0"),), text), ((("pod", "pod-1"),), text)]
        )
        _well_formed(merged)
        lines = merged.splitlines()
        families = [line.split()[2] for line in lines if line.startswith("# TYPE ")]
        assert len(families) == len(set(families))
        for family in families:
            start = next(i for i, line in enumerate(lines) if line.startswith(f"# TYPE {family} "))
            end = next(
                (i for i in range(start + 1, len(lines)) if lines[i].startswith("#")),
                len(lines),
            )
            block = lines[start + 1 : end]
            owned = [
                line for line in lines
                if not line.startswith("#")
                and SAMPLE_LINE_RE.match(line).group("name")
                in (family, f"{family}_bucket", f"{family}_sum", f"{family}_count")
            ]
            # Every sample of the family, from both pods, right after its TYPE line.
            assert block == owned and owned, family
            assert any('pod="pod-0"' in line for line in block)
            assert any('pod="pod-1"' in line for line in block)


class TestMetricsExporter:
    def test_serves_rendered_registry_over_http(self, registry):
        with MetricsExporter(lambda: render_exposition(registry.collect())) as exporter:
            assert exporter.port != 0
            with urllib.request.urlopen(
                f"http://{exporter.host}:{exporter.port}/metrics", timeout=5
            ) as response:
                assert response.headers["Content-Type"] == EXPOSITION_CONTENT_TYPE
                text = response.read().decode("utf-8")
            _well_formed(text)
            assert 'repro_requests_total{op="publish"} 3' in text

    def test_serves_fresh_values_per_scrape(self, registry):
        with MetricsExporter(lambda: render_exposition(registry.collect())) as exporter:
            url = f"http://{exporter.host}:{exporter.port}/metrics"
            registry.counter_family("repro_requests_total", "requests by op", ("op",)).labels(
                op="publish"
            ).inc()
            with urllib.request.urlopen(url, timeout=5) as response:
                assert 'repro_requests_total{op="publish"} 4' in response.read().decode()

    def test_unknown_path_is_404(self, registry):
        with MetricsExporter(lambda: "\n") as exporter:
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(
                    f"http://{exporter.host}:{exporter.port}/nope", timeout=5
                )
            assert caught.value.code == 404

    def test_close_joins_the_exporter_thread(self):
        import threading

        exporter = MetricsExporter(lambda: "\n").start()
        assert any(
            thread.name == "repro-metrics-exporter" for thread in threading.enumerate()
        )
        exporter.close()
        assert not any(
            thread.name == "repro-metrics-exporter" for thread in threading.enumerate()
        )
        exporter.close()  # idempotent
