"""The event ring: one tuple per hook, read through a trace view and a log view."""

from __future__ import annotations

import socket
import sys
import threading

import pytest

from repro.observability.events import EVENT_CAPACITY, LEVELS, EventLog, new_trace_id
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import ServiceHandle, ValidationServer, _op_label
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import distributed_workload


class TestTraceIds:
    def test_ids_are_short_and_unique(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(tid) == 16 for tid in ids)


class TestViews:
    def test_one_event_feeds_both_views(self):
        events = EventLog(component="server")
        events.emit("info", "op", "op completed", "t1", 1.25, "op", "publish", "design", "d")
        assert len(events) == 1
        (span,) = events.trace()
        assert span["trace"] == "t1" and span["name"] == "op"
        assert span["component"] == "server"
        assert span["ms"] == 1.25
        assert span["op"] == "publish" and span["design"] == "d"
        assert span["ts"] > 0
        (line,) = events.logs()
        assert line["msg"] == "op completed" and line["level"] == "info"
        assert line["component"] == "server" and line["trace"] == "t1"
        assert line["op"] == "publish" and line["ms"] == 1.25
        assert line["ts"] == span["ts"]

    def test_trace_only_and_log_only_events_stay_in_their_view(self):
        events = EventLog()
        events.emit("debug", "queue.wait", None, "t1", 0.5, "function", "f1")
        events.emit("warning", None, "request shed: rate limit", "t1", None, "op", "publish")
        assert [event["name"] for event in events.trace()] == ["queue.wait"]
        assert [event["msg"] for event in events.logs()] == ["request shed: rate limit"]

    def test_empty_trace_id_gives_no_trace_view_entry(self):
        events = EventLog()
        events.emit("info", "op", "op completed", None, 1.0)
        events.emit("info", "op", "op completed", "", 1.0)
        assert events.trace() == []
        lines = events.logs()
        assert len(lines) == 2
        assert all("trace" not in line for line in lines)  # untraced: no trace key

    def test_trace_filter_and_limit(self):
        events = EventLog()
        for index in range(10):
            events.emit("info", "op", None, f"t{index % 2}", None, "index", index)
        mine = events.trace("t1")
        assert len(mine) == 5
        assert all(event["trace"] == "t1" for event in mine)
        assert [event["index"] for event in events.trace("t1", limit=2)] == [7, 9]

    def test_log_filters_by_trace_id_and_level(self):
        events = EventLog()
        events.emit("debug", None, "noise", "t1", None)
        events.emit("info", None, "story", "t1", None)
        events.emit("error", None, "boom", "t2", None)
        assert [e["msg"] for e in events.logs(trace_id="t1")] == ["noise", "story"]
        assert [e["msg"] for e in events.logs(level="warning")] == ["boom"]
        assert [e["msg"] for e in events.logs(trace_id="t1", level="info")] == ["story"]

    def test_limit_takes_the_tail(self):
        events = EventLog()
        for index in range(10):
            events.emit("info", "op", f"event {index}", "t", None)
        assert [e["msg"] for e in events.logs(limit=2)] == ["event 8", "event 9"]
        assert len(events.trace(limit=3)) == 3
        assert events.logs(limit=0) == [] and events.trace(limit=0) == []

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError):
            EventLog().logs(level="loud")

    def test_levels_cover_the_syslog_subset(self):
        assert list(LEVELS) == ["debug", "info", "warning", "error"]
        assert LEVELS["debug"] < LEVELS["info"] < LEVELS["warning"] < LEVELS["error"]

    def test_component_is_stamped_at_export(self):
        events = EventLog()
        events.emit("info", "verdict.push", "verdict pushed to directory", "t", 0.5)
        events.component = "pod:p1"  # members rename their ring before traffic starts
        assert events.trace()[0]["component"] == "pod:p1"
        assert events.logs()[0]["component"] == "pod:p1"

    def test_export_returns_copies(self):
        events = EventLog()
        events.emit("info", "op", "op completed", "t", None)
        events.trace()[0]["name"] = "mutated"
        events.logs()[0]["msg"] = "mutated"
        assert events.trace()[0]["name"] == "op"
        assert events.logs()[0]["msg"] == "op completed"


class TestRing:
    def test_ring_is_bounded(self):
        events = EventLog()
        half = EVENT_CAPACITY // 2
        total = half + 100
        for index in range(total):
            events.emit("info", "op", f"event {index}", "t", None, "index", index)
        assert len(events) == half == 4096
        assert [event["index"] for event in events.trace()] == list(range(100, total))
        assert events.logs()[0]["msg"] == "event 100"
        for index in range(total):
            events.emit("info", "op", f"untraced {index}", None, None, "index", index)
        assert len(events) == EVENT_CAPACITY == 8192
        assert len(events.trace()) == half
        assert events.logs()[half]["msg"] == "untraced 100"

    def test_untraced_traffic_never_evicts_traced_spans(self):
        """One traced publication, then 5000 untraced ones (two emits each, as served)."""
        events = EventLog(component="server")

        def publish(trace_id, index):
            events.emit("debug", "runtime.publish", "publication settled", trace_id, 0.1,
                        "function", "f1", "index", index)
            events.emit("info", "op", "op completed", trace_id, 0.2, "op", "publish")

        publish("traced", -1)
        for index in range(5000):
            publish(None, index)
        spans = events.trace("traced")
        assert [span["name"] for span in spans] == ["runtime.publish", "op"]
        lines = events.logs()
        assert [line["ts"] for line in lines] == sorted(line["ts"] for line in lines)
        assert [line.get("trace") for line in lines[:2]] == ["traced", "traced"]
        assert lines[-1]["msg"] == "op completed" and "trace" not in lines[-1]
        assert len(lines) == 2 + EVENT_CAPACITY // 2

    def test_disabled_log_is_a_noop(self):
        events = EventLog()
        events.enabled = False
        events.emit("error", "op", "never stored", "t", 1.0)
        assert len(events) == 0
        assert events.trace() == [] and events.logs() == []


class TestConcurrency:
    def test_many_writers_wrapping_ring_stay_consistent(self):
        """Writers far past capacity from many threads: no torn events.

        The ring is lock-free (GIL-atomic deque appends); every exported
        event must still be whole and internally consistent in both views.
        """
        events = EventLog()
        writers, per_writer = 8, 2 * EVENT_CAPACITY // 8
        barrier = threading.Barrier(writers)

        def write(writer: int) -> None:
            barrier.wait()
            for index in range(per_writer):
                events.emit(
                    "info", "op", "event", f"w{writer}", float(index),
                    "writer", writer, "index", index,
                )

        threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleaving inside the writers' loops
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for view in (events.trace(), events.logs()):
            assert len(view) == EVENT_CAPACITY // 2  # every event is traced
            for event in view:
                assert event["trace"] == f"w{event['writer']}"
                assert event["ms"] == float(event["index"])
                assert 0 <= event["index"] < per_writer

    def test_concurrent_writers_and_readers(self):
        events = EventLog()
        stop = threading.Event()

        def write() -> None:
            index = 0
            while not stop.is_set():
                events.emit("info", "spin", "spin", "t", None, "index", index)
                index += 1

        threads = [threading.Thread(target=write) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(5):
                for event in events.logs():
                    assert event["msg"] == "spin" and "index" in event
                for event in events.trace():
                    assert event["name"] == "spin" and "index" in event
        finally:
            stop.set()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()


class TestOpLabel:
    @pytest.mark.parametrize(
        "op, label",
        [
            ("publish", "publish"),
            ("trace", "trace"),
            ("nope", "'nope'"),
            (["publish"], "['publish']"),
            ({"op": "publish"}, "{'op': 'publish'}"),
            (42, "42"),
            (None, "None"),
            ("x" * (1 << 20), "'" + "x" * 63),
        ],
        ids=["known", "known-read-op", "unknown", "list", "dict", "int", "missing", "megabyte"],
    )
    def test_label_is_a_short_string(self, op, label):
        assert _op_label(op) == label
        assert len(label) <= 64


@pytest.fixture(scope="module")
def workload():
    return distributed_workload(peers=3, documents=6, seed=7, invalid_rate=0.0)


@pytest.fixture
def handle(workload):
    server = ValidationServer(runtime_workers=2)
    server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
    with ServiceHandle(server).start() as running:
        yield running


class TestServerHooks:
    def test_traced_publish_adds_one_tuple_per_hook(self, handle, workload):
        ring = handle.server.events
        payload = tree_to_xml(workload.initial_documents["f1"]) + " "  # never a fingerprint hit
        with ServiceClient(handle.host, handle.port) as client:
            before = len(ring)
            client.publish("d", "f1", payload, trace_id="one-hook")
            added = len(ring) - before
        spans = ring.trace("one-hook")
        lines = ring.logs("one-hook")
        # Hooks: the op (span + prose), the admission wait (span only) and
        # the runtime settle (span + prose) -- three tuples, five entries.
        assert sorted(span["name"] for span in spans) == ["op", "queue.wait", "runtime.publish"]
        assert sorted(line["msg"] for line in lines) == ["op completed", "publication settled"]
        assert added == 3
        op = next(span for span in spans if span["name"] == "op")
        completed = next(line for line in lines if line["msg"] == "op completed")
        assert op["ts"] == completed["ts"]

    def test_failed_op_label_is_bounded_and_the_same_in_both_views(self, handle):
        sock = socket.create_connection((handle.host, handle.port), timeout=10)
        stream = sock.makefile("rb")
        try:
            for request_id, op, trace_id in (
                (1, ["publish"], "t-list"),
                (2, "x" * (1 << 20), "t-big"),
            ):
                sock.sendall(protocol.encode_frame({"id": request_id, "op": op, "trace": trace_id}))
                body, _blob, _n = protocol.read_frame_blocking(stream)
                assert body["ok"] is False and body["error"]["code"] == "unknown-op"
        finally:
            stream.close()
            sock.close()
        with ServiceClient(handle.host, handle.port) as client:
            for trace_id in ("t-list", "t-big"):
                (span,) = client.trace(trace_id)["events"]
                (line,) = client.logs(trace_id)["events"]
                assert span["name"] == "op.error" and line["msg"] == "op failed"
                assert isinstance(span["op"], str) and len(span["op"]) <= 64
                assert span["op"] == line["op"]
