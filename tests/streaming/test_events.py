"""Tests for the incremental XML event source."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.api import dtd
from repro.errors import InvalidXMLError, ReproError
from repro.streaming import StreamingValidator
from repro.streaming.events import CLOSE, OPEN, XMLEventSource, _EventList, iter_chunks

#: Accepts the ``<r><a/><b><c/></b></r>`` fixture and the wide ``r(a*)`` ones.
FIXTURE_DTD = dtd("r", {"r": "a*, b?", "b": "c"})


def drain(payload, chunk_bytes=None):
    """All events of one payload, optionally fed in bounded chunks."""
    source = XMLEventSource()
    events = _EventList()
    chunks = [payload] if chunk_bytes is None else list(iter_chunks(payload, chunk_bytes))
    for chunk in chunks:
        events.extend(source.feed(chunk))
    source.close(events)
    return events, source


class TestEventSequence:
    def test_simple_document(self):
        events, source = drain(b"<r><a/><b><c/></b></r>")
        assert events == [
            (OPEN, "r"),
            (OPEN, "a"),
            (CLOSE, "a"),
            (OPEN, "b"),
            (OPEN, "c"),
            (CLOSE, "c"),
            (CLOSE, "b"),
            (CLOSE, "r"),
        ]

    def test_run_counts_depth_events_and_completion(self):
        # The source keeps no bookkeeping of its own: the StreamingRun it
        # feeds counts events and depth and knows when the root closed.
        run = StreamingValidator(FIXTURE_DTD).run()
        source = XMLEventSource()
        source.pump(b"<r><a/><b><c/>", run)
        assert not run.complete
        source.pump(b"</b></r>", run)
        source.close(run)
        assert run.complete and not run.rejected
        assert run.max_depth == 3  # r > b > c
        assert run.events == 8
        assert run.verdict() is True

    def test_text_attributes_and_comments_are_ignored(self):
        payload = b'<r id="1"><!-- note --><a x="2">text</a>tail</r>'
        events, _source = drain(payload)
        assert events == [(OPEN, "r"), (OPEN, "a"), (CLOSE, "a"), (CLOSE, "r")]

    def test_single_byte_chunks_match_whole_payload(self):
        payload = b"<r><a/><b><c/></b></r>"
        whole, _ = drain(payload)
        split, _ = drain(payload, chunk_bytes=1)
        assert whole == split

    def test_str_chunks_are_accepted(self):
        events, _ = drain("<r><a/></r>", chunk_bytes=3)
        assert events[0] == (OPEN, "r")

    def test_iter_chunks_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            list(iter_chunks(b"abc", 0))


class TestTypedErrors:
    def test_mismatched_tag_raises_typed_error(self):
        source = XMLEventSource()
        with pytest.raises(InvalidXMLError):
            list(source.feed(b"<a><b></a>"))

    def test_truncated_document_raises_on_close(self):
        source = XMLEventSource()
        list(source.feed(b"<a><b>"))
        with pytest.raises(InvalidXMLError):
            source.close(_EventList())

    def test_empty_input_raises_on_close(self):
        source = XMLEventSource()
        with pytest.raises(InvalidXMLError):
            source.close(_EventList())

    def test_error_is_a_repro_error(self):
        assert issubclass(InvalidXMLError, ReproError)

    def test_feeding_after_close_raises(self):
        source = XMLEventSource()
        list(source.feed(b"<a/>"))
        source.close(_EventList())
        with pytest.raises(InvalidXMLError):
            list(source.feed(b"<b/>"))

    def test_close_is_idempotent(self):
        source = XMLEventSource()
        list(source.feed(b"<a/>"))
        events = _EventList()
        source.close(events)
        source.close(events)
        assert events == []


class TestMemoryDiscipline:
    def test_one_large_chunk_is_pumped_in_bounded_memory(self):
        """The O(depth) claim holds even when a whole document is one chunk.

        A 1.2 MB wide document fed in a single ``pump`` must never hold
        per-node state: the traced allocation peak stays within a small
        multiple of the payload (a parser that built the chunk's element
        tree first peaks at dozens of times the payload).
        """
        payload = b"<r>" + b"<a/>" * 300_000 + b"</r>"
        assert len(payload) >= 1_000_000
        run = StreamingValidator(FIXTURE_DTD).run()
        source = XMLEventSource()
        tracemalloc.start()
        try:
            source.pump(payload, run)
            source.close(run)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.verdict() is True
        assert run.events == 600_002 and run.max_depth == 2
        assert peak < 4 * len(payload)

    def test_pump_dispatches_into_sink(self):
        class Sink:
            def __init__(self):
                self.log = []

            def open(self, label, attributes):
                self.log.append(("open", label, attributes))

            def close(self, label):
                self.log.append(("close", label))

        source, sink = XMLEventSource(), Sink()
        source.pump(b'<r><a x="1"/></r>', sink)
        source.close(sink)
        assert sink.log == [
            ("open", "r", {}),
            ("open", "a", {"x": "1"}),
            ("close", "a"),
            ("close", "r"),
        ]
