"""Event-driven streaming validation: wire bytes to verdict, no tree.

Every other validation path of the library materialises a
:class:`~repro.trees.document.Tree` before the compact-DFA run loop of
:class:`~repro.engine.batch.CompiledSchema` ever fires.  This package is
the execution mode that never does:

* :mod:`repro.streaming.events` runs a bare expat parser over XML
  *bytes* -- fed chunk by chunk, no contiguous buffer required -- whose
  element start/end handlers are bound straight to a sink's ``open`` /
  ``close`` methods: no element objects, no event queue, O(depth)
  working memory even when a whole document arrives as one chunk;
* :mod:`repro.streaming.machine` is that sink: one frame of
  horizontal-DFA state sets per *open* element (a stack, not a tree),
  stepped through the batch kernel's union rows, producing exactly the
  verdict :class:`~repro.engine.batch.BatchValidator` would, for DTDs,
  SDTDs and EDTDs alike, rejecting early the moment no state assignment
  can exist any more.

The tree path (:func:`repro.trees.xml_io.tree_from_xml`) parses on the
same event source, so both ingest paths classify malformed input alike.

The distributed runtime (:meth:`ValidationRuntime.publish_stream`), the
network service (the ``publish_stream_*`` operations) and the public
facade (:func:`repro.api.validate_stream`) all ride on these two modules.
"""

from __future__ import annotations

from repro.streaming.events import XMLEventSource, iter_chunks
from repro.streaming.machine import (
    StreamingRun,
    StreamingValidator,
    streaming_validator_for,
)

__all__ = [
    "StreamingRun",
    "StreamingValidator",
    "XMLEventSource",
    "iter_chunks",
    "streaming_validator_for",
]
