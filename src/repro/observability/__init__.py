"""Observability: exposition, events (traces and logs), SLOs and live profiling.

Small, dependency-free subsystems every serving layer shares:

* :mod:`repro.observability.exposition` -- renders a
  :class:`~repro.metrics.MetricsRegistry`'s labeled families as
  Prometheus text format 0.0.4 and serves it over a lightweight HTTP
  endpoint (:class:`MetricsExporter`) that also routes JSON side pages
  such as ``/healthz`` and ``/readyz``, plus the label-merge helper
  ``Federation.scrape_all()`` uses for single-pane scraping;
* :mod:`repro.observability.events` -- one bounded in-memory event ring
  per member (:class:`EventLog`) keyed by wire-propagated trace ids and
  read through two views: the trace view (named spans, so one
  publication's lifecycle -- queue wait, runtime publish, ack push,
  verdict flip -- can be reconstructed even across process pods) and the
  log view (leveled prose messages);
* :mod:`repro.observability.slo` -- declared per-op latency objectives
  and an availability error budget evaluated as multi-window burn rates
  (:class:`SloEvaluator`), exported as ``repro_slo_*`` gauges;
* :mod:`repro.observability.profiling` -- a sampling profiler
  (:class:`SamplingProfiler`) over ``sys._current_frames()`` producing
  flamegraph-compatible collapsed stacks from a live process.
"""

from repro.observability.events import EventLog, new_trace_id
from repro.observability.exposition import (
    EXPOSITION_CONTENT_TYPE,
    MetricsExporter,
    merge_expositions,
    render_exposition,
)
from repro.observability.profiling import SamplingProfiler
from repro.observability.slo import DEFAULT_OBJECTIVES, LatencyObjective, SloEvaluator

__all__ = [
    "DEFAULT_OBJECTIVES",
    "EXPOSITION_CONTENT_TYPE",
    "EventLog",
    "LatencyObjective",
    "MetricsExporter",
    "SamplingProfiler",
    "SloEvaluator",
    "merge_expositions",
    "new_trace_id",
    "render_exposition",
]
