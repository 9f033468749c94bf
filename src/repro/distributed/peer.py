"""Peers and messages of the simulated distributed-document architecture.

A :class:`ResourcePeer` plays the role of one external resource ``fi`` of a
kernel document: it owns the XML document it would return when the function
node is activated, and it can validate that document against a *local type*
(the ``τi`` a top-down design propagates to it).  Message sizes are measured
in bytes of the serialised XML, which is what the validation-strategy
benchmark reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.typing import SchemaType
from repro.engine.batch import BatchValidator
from repro.errors import DesignError
from repro.trees.document import Tree
from repro.trees.xml_io import tree_to_xml


@dataclass(frozen=True)
class StreamedDocument:
    """What a peer holds after a *streamed* publication: verdict, not tree.

    The streaming ingest path (:meth:`ValidationRuntime.publish_stream`)
    validates a publication in one pass over its bytes and deliberately
    retains no :class:`Tree` -- that is the whole point (O(depth) memory).
    The peer keeps this content-addressed record instead: the payload's
    wire fingerprint, the verdict, and the validator the verdict was
    computed with.  Re-validating it returns the recorded verdict (same
    bytes, same validator, same answer); doing so after the local type
    changed is impossible without the bytes, so that raises a typed error
    telling the caller to re-publish.
    """

    fingerprint: str
    ack: bool
    validator: object
    payload_bytes: int
    depth: int = 0
    events: int = 0


@dataclass(frozen=True)
class Message:
    """One message exchanged between peers (for the accounting only)."""

    sender: str
    recipient: str
    kind: str
    payload_bytes: int
    description: str = ""


def document_bytes(document: Tree) -> int:
    """The size of a document on the wire (bytes of its XML serialisation)."""
    return len(tree_to_xml(document).encode("utf-8"))


@dataclass
class Peer:
    """A named participant of the distributed architecture."""

    name: str

    def describe(self) -> str:
        return f"peer {self.name}"


@dataclass
class ResourcePeer(Peer):
    """A peer providing the document of one external resource.

    Attributes
    ----------
    function:
        The function symbol of the kernel this peer answers for.
    document:
        The document returned when the function is activated; its root is the
        dedicated root element ``s_i`` and only the forest below it is
        attached to the kernel.
    local_type:
        The propagated local type ``τi``, when one has been assigned.
    validator:
        The compiled form of the local type.  Compilation happens once per
        propagation (not once per validation); peers sharing content models
        also share the compiled automata through the engine cache.
    """

    function: str = ""
    document: Optional[Tree] = None
    local_type: Optional[SchemaType] = None
    validator: Optional[BatchValidator] = field(default=None, repr=False)
    calls: int = field(default=0, repr=False)

    def assign_type(
        self,
        schema: SchemaType,
        validator: Optional[BatchValidator] = None,
        engine=None,
    ) -> None:
        """Install the local type propagated by the designer (compiled once).

        Pass either a pre-built ``validator`` (what
        :meth:`~repro.distributed.network.DistributedDocument.propagate_typing`
        does, so all peers compile on the document's shared engine) or the
        ``engine`` to compile on; with neither, the thread-default engine is
        used.
        """
        self.local_type = schema
        self.validator = (
            validator if validator is not None else BatchValidator(schema, engine=engine)
        )

    def answer(self) -> Tree:
        """Return the document for a call of the resource (counts the call)."""
        if self.document is None:
            raise RuntimeError(f"peer {self.name!r} has no document for {self.function!r}")
        if isinstance(self.document, StreamedDocument):
            # Materialisation (the centralized strategy) needs the tree,
            # which a streamed publication deliberately never built.
            raise DesignError(
                f"peer {self.name!r} holds a streamed publication; its tree was not "
                "retained, so it cannot be materialised -- re-publish the document"
            )
        self.calls += 1
        return self.document

    def update_document(self, document: Tree) -> None:
        """Replace the peer's document (e.g. a national bureau publishing new data)."""
        self.document = document

    def validate_locally(self) -> bool:
        """Validate the peer's own document against its local type.

        This is the whole point of a local typing: the check involves no
        other peer and no data shipping.
        """
        if self.local_type is None:
            raise RuntimeError(f"peer {self.name!r} has no local type to validate against")
        if self.document is None:
            return False
        if isinstance(self.document, StreamedDocument):
            # A streamed publication kept no tree: the verdict recorded at
            # stream time is authoritative for those bytes -- but only
            # against the validator it was computed with.
            if self.document.validator is not self.validator:
                raise DesignError(
                    f"peer {self.name!r} holds a streamed publication validated against a "
                    "replaced local type; the payload was not retained, re-publish it"
                )
            return self.document.ack
        return self.validate_document(self.document)

    def validate_document(self, document: Tree) -> bool:
        """Validate ``document`` against the local type without installing it."""
        if self.local_type is None:
            raise RuntimeError(f"peer {self.name!r} has no local type to validate against")
        if self.validator is not None:
            return self.validator.validate(document)
        return self.local_type.validate(document)

    def document_size(self) -> int:
        """Bytes of the peer's document (what centralized validation must ship)."""
        if self.document is None:
            return 0
        if isinstance(self.document, StreamedDocument):
            return self.document.payload_bytes
        return document_bytes(self.document)

    def describe(self) -> str:
        if isinstance(self.document, StreamedDocument):
            return (
                f"peer {self.name} provides {self.function} "
                f"(streamed, {self.document.payload_bytes} bytes)"
            )
        size = self.document.size if self.document is not None else 0
        return f"peer {self.name} provides {self.function} ({size} nodes)"
