"""Prometheus text-format (0.0.4) exposition of the metrics registry.

:func:`render_exposition` turns :meth:`MetricsRegistry.collect`'s
normalized view into the plain-text format every Prometheus-compatible
scraper reads: ``# HELP``/``# TYPE`` headers followed by one sample line
per labeled series.  Histograms are rendered as the ``histogram`` type:
cumulative ``_bucket{le="..."}`` lines over the one fixed layout
:data:`~repro.metrics.BUCKET_BOUNDS`, ending with ``le="+Inf"``, then
``_sum`` and ``_count``.  Every member exposes the same ``le`` set, so
bucket counts sum across pods and subtract across two scrapes.

:class:`MetricsExporter` serves the rendering over a stdlib
``ThreadingHTTPServer`` on its own daemon thread (no new dependencies),
bound to an ephemeral port by default so servers, pods and the directory
can each carry their own ``/metrics`` without port bookkeeping.

:func:`merge_expositions` is the federation's single-pane-of-glass
helper: it re-labels each member's exposition (``pod="pod-0"``) and
merges the streams, grouping every family's samples under its single
``# HELP``/``# TYPE`` header, so ``Federation.scrape_all()`` returns one
valid document covering the whole topology.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.metrics import BUCKET_BOUNDS

__all__ = [
    "EXPOSITION_CONTENT_TYPE",
    "MetricsExporter",
    "merge_expositions",
    "render_exposition",
]

#: The content type Prometheus scrapers expect for text format 0.0.4.
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Sample-line shape: ``name{labels} value`` or ``name value`` (the lint
#: and the CI federation job both validate expositions against this).
SAMPLE_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[0-9eE+.\-]+|NaN|[+-]Inf)$"
)

#: ``le`` label values of a histogram's buckets, the last one ``+Inf``.
_LE_VALUES = tuple(repr(bound) for bound in BUCKET_BOUNDS) + ("+Inf",)

#: Suffixes of a histogram family's sample names.
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _labels_text(pairs: Sequence[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label(str(value))}"' for name, value in pairs)
    return "{" + inner + "}"


def render_exposition(collected: Iterable[dict]) -> str:
    """Render ``MetricsRegistry.collect()`` output as text format 0.0.4."""
    lines: list[str] = []
    for family in collected:
        name, kind, help_ = family["name"], family["kind"], family["help"]
        samples = family["samples"]
        if not samples:
            continue
        if help_:
            lines.append(f"# HELP {name} {help_}")
        lines.append(f"# TYPE {name} {kind}")
        for label_pairs, value in samples:
            if kind == "histogram":
                cumulative, total = value
                for le, seen in zip(_LE_VALUES, cumulative):
                    pairs = tuple(label_pairs) + (("le", le),)
                    lines.append(f"{name}_bucket{_labels_text(pairs)} {seen}")
                labels = _labels_text(label_pairs)
                lines.append(f"{name}_sum{labels} {_format_value(total)}")
                lines.append(f"{name}_count{labels} {cumulative[-1]}")
            else:
                lines.append(
                    f"{name}{_labels_text(label_pairs)} {_format_value(value)}"
                )
    return "\n".join(lines) + "\n" if lines else "\n"


def merge_expositions(parts: Sequence[tuple[Sequence[tuple[str, str]], str]]) -> str:
    """Merge expositions, injecting extra labels into each part's samples.

    ``parts`` is ``[(extra_label_pairs, exposition_text), ...]`` -- e.g.
    ``[((("pod", "pod-0"),), text0), ...]``.  Every family's samples from
    every part (a histogram's ``_bucket``/``_sum``/``_count`` included)
    are grouped under its first ``# HELP``/``# TYPE`` lines, families in
    first-seen order, as text format 0.0.4 requires; sample lines gain
    the extra labels.  A sample that already carries one of the extra
    label names keeps its own (the directory's per-pod lease gauges must
    not grow a second ``pod=`` label).
    """
    groups: dict[str, tuple[dict[str, str], list[str]]] = {}
    histograms: set[str] = set()
    for extra, text in parts:
        for line in text.splitlines():
            if line.startswith(("# HELP ", "# TYPE ")):
                _hash, keyword, name, *rest = line.split(" ", 3)
                if keyword == "TYPE" and rest == ["histogram"]:
                    histograms.add(name)
                groups.setdefault(name, ({}, []))[0].setdefault(keyword, line)
                continue
            if not line.strip() or line.startswith("#"):
                continue
            match = SAMPLE_LINE_RE.match(line)
            if match is None:  # pragma: no cover - foreign scrape content
                groups.setdefault(line, ({}, []))[1].append(line)
                continue
            name, labels, value = match.group("name", "labels", "value")
            if extra:
                inner = labels[1:-1] if labels else ""
                present = {part.split("=", 1)[0] for part in inner.split(",") if "=" in part}
                suffix = ",".join(
                    f'{label}="{_escape_label(str(v))}"'
                    for label, v in extra
                    if label not in present
                )
                merged = ",".join(part for part in (inner, suffix) if part)
                labels_text = f"{{{merged}}}" if merged else ""
                line = f"{name}{labels_text} {value}"
            base = name.rsplit("_", 1)[0]
            if base in histograms and name[len(base):] in _HISTOGRAM_SUFFIXES:
                name = base
            groups.setdefault(name, ({}, []))[1].append(line)
    lines: list[str] = []
    for headers, samples in groups.values():
        lines.extend(headers[keyword] for keyword in ("HELP", "TYPE") if keyword in headers)
        lines.extend(samples)
    return "\n".join(lines) + "\n" if lines else "\n"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-metrics/1"

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            try:
                body = self.server.collect().encode("utf-8")  # type: ignore[attr-defined]
            except Exception as error:  # pragma: no cover - collector bug surface
                self.send_error(500, f"collector failed: {error}")
                return
            self._reply(200, body, EXPOSITION_CONTENT_TYPE)
            return
        route = self.server.routes.get(path)  # type: ignore[attr-defined]
        if route is None:
            self.send_error(404, "unknown path: this exporter serves /metrics")
            return
        try:
            status, payload = route()
        except Exception as error:  # pragma: no cover - route bug surface
            self.send_error(500, f"route failed: {error}")
            return
        body = (json.dumps(payload, default=str, sort_keys=True) + "\n").encode("utf-8")
        self._reply(status, body, "application/json; charset=utf-8")

    def _reply(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        """Scrapes are high-frequency; stay silent instead of spamming stderr."""


class MetricsExporter:
    """Serve ``collect()``'s exposition text on ``http://host:port/metrics``.

    The exporter owns one daemon thread running a stdlib
    ``ThreadingHTTPServer``; ``port=0`` binds an ephemeral port, readable
    as :attr:`port` after :meth:`start`.  ``collect`` runs on the scrape
    thread -- it must be thread-safe (the metrics layer is lock-based
    throughout, and collectors that refresh gauges take their own locks).

    ``routes`` mounts JSON side pages on the same listener: a mapping of
    absolute path (e.g. ``"/healthz"``) to a zero-argument callable
    returning ``(status, payload)``; the payload is serialized as JSON.
    Anything outside ``/metrics``, ``/`` and the routes is a 404.
    """

    def __init__(
        self,
        collect: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
        routes: Optional[Mapping[str, Callable[[], tuple[int, dict]]]] = None,
    ) -> None:
        self._collect = collect
        self._routes = dict(routes or {})
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "MetricsExporter":
        if self._httpd is not None:
            return self
        httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        httpd.daemon_threads = True
        httpd.collect = self._collect  # type: ignore[attr-defined]
        httpd.routes = self._routes  # type: ignore[attr-defined]
        self._httpd = httpd
        self.host, self.port = httpd.server_address[0], httpd.server_address[1]
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-metrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5)

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
