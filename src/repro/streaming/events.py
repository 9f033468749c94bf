"""Incremental XML structure events on bare :mod:`pyexpat`.

The paper abstracts documents to pure element structure (no attributes, no
character data), so the only events a validator needs are "an element
with this label starts" and "the innermost element ends".
:class:`XMLEventSource` produces exactly those from byte (or text) chunks
of any size -- a whole payload, network-frame-sized slices, or single
bytes -- in **O(depth) working memory**.

The source is a bare expat parser whose ``StartElementHandler`` /
``EndElementHandler`` are bound straight to a sink's ``open(label,
attributes)`` / ``close(label)`` methods (:meth:`XMLEventSource.pump`).
Expat calls the sink from C: no ``Element`` is built, no event is queued
and nothing is re-dispatched per event in Python.  Depth, event and
completeness bookkeeping is the sink's business
(:class:`~repro.streaming.machine.StreamingRun` keeps those counters).

Namespaced labels arrive in expat's ``uri}local`` spelling (the parser
splits names on ``}``).  Schemas and trees use ElementTree's
``{uri}local``; :func:`tree_label` and :func:`stream_label` convert
between the two, so the tree and stream paths give the same verdict for
every label.

Malformed or truncated input raises the library's typed
:class:`~repro.errors.InvalidXMLError`, at the first offending chunk for
syntax errors and at :meth:`close` for documents that end too early or
hold no element at all.  A reference to an undefined entity is an error
even where expat would skip it (a document with an external DTD subset),
exactly like ElementTree.  One source parses one document; a fresh
document gets a fresh source, so parser state can never leak across
documents.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union
from xml.parsers import expat

from repro.errors import InvalidXMLError

__all__ = ["OPEN", "CLOSE", "XMLEventSource", "iter_chunks", "stream_label", "tree_label"]

#: Event kinds (plain strings so events are cheap, comparable tuples).
OPEN = "open"
CLOSE = "close"

Chunk = Union[bytes, str]
Event = tuple[str, str]


def iter_chunks(payload: Chunk, chunk_bytes: int = 65536) -> Iterator[Chunk]:
    """Slice a payload into bounded chunks (what the wire/CLI surfaces feed)."""
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    for start in range(0, len(payload), chunk_bytes):
        yield payload[start : start + chunk_bytes]


def tree_label(label: str) -> str:
    """ElementTree's spelling of a label the source reports (``{uri}local``)."""
    return "{" + label if "}" in label else label


def stream_label(label: str) -> Optional[str]:
    """The spelling the source reports for elements with schema label ``label``.

    ``{uri}local`` becomes ``uri}local``; ``None`` for any other label with
    a ``}``, which no XML element name can carry (keeping it would let it
    match a namespaced element's ``uri}local``).
    """
    if label.startswith("{"):
        return label[1:]
    return None if "}" in label else label


def _skipped_entity(name: str, is_parameter_entity: bool) -> None:
    # Expat skips a general entity it cannot resolve when the document has
    # an external DTD subset; ElementTree rejects it, and so do we.
    if not is_parameter_entity:
        raise InvalidXMLError(f"malformed XML: undefined entity &{name};")


class _EventList(list):
    """A sink that records ``(kind, label)`` events (what :meth:`feed` returns)."""

    __slots__ = ()

    def open(self, label: str, attributes=None) -> None:
        self.append((OPEN, label))

    def close(self, label=None) -> None:
        self.append((CLOSE, label))


class XMLEventSource:
    """One document's worth of element start/end events.

    Usage::

        source = XMLEventSource()
        for chunk in chunks:
            source.pump(chunk, sink)   # sink.open(label, attributes) / sink.close(label)
        source.close(sink)

    :meth:`feed` is the same parse collecting ``(OPEN, label)`` /
    ``(CLOSE, label)`` tuples into a list instead of calling a sink.
    Attributes, namespace declarations, text and comments are ignored per
    the paper's abstraction of XML.
    """

    __slots__ = ("_parser", "_closed")

    def __init__(self) -> None:
        self._parser = expat.ParserCreate(None, "}")
        self._parser.SkippedEntityHandler = _skipped_entity
        self._closed = False

    def pump(self, chunk: Chunk, sink) -> None:
        """Feed one chunk, with expat calling ``sink.open`` / ``sink.close`` directly."""
        if self._closed:
            raise InvalidXMLError("the event source is closed; one source parses one document")
        self._parse(chunk, sink, False)

    def feed(self, chunk: Chunk) -> list[Event]:
        """Feed one chunk; return the events it completes."""
        events = _EventList()
        self.pump(chunk, events)
        return events

    def close(self, sink) -> None:
        """Signal end of input; the final parse calls into ``sink`` like :meth:`pump`.

        Raises :class:`InvalidXMLError` when the input was truncated (open
        elements remain) or empty (no root element at all).  Closing twice
        is a no-op.
        """
        if self._closed:
            return
        self._closed = True
        self._parse(b"", sink, True)

    def _parse(self, chunk: Chunk, sink, final: bool) -> None:
        parser = self._parser
        parser.StartElementHandler = sink.open
        parser.EndElementHandler = sink.close
        try:
            parser.Parse(chunk, final)
        except expat.ExpatError as error:
            raise InvalidXMLError(f"malformed XML: {error}") from None
