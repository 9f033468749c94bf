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
from repro.streaming.machine import streaming_validator_for
from repro.trees.document import Tree
from repro.trees.xml_io import tree_from_xml, tree_to_xml


@dataclass(frozen=True)
class PublishedDocument:
    """What a peer holds after a wire publication: its bytes and their verdict.

    The runtime's ingest (:meth:`ValidationRuntime.publish
    <repro.distributed.runtime.runtime.ValidationRuntime.publish>` and the
    streamed path) folds a publication in one pass over its bytes and
    builds no :class:`Tree`.  The peer keeps this content-addressed record
    instead: the payload's wire fingerprint, the verdict, the validator
    the verdict was computed with, and the payload itself -- so a local
    type change re-folds the bytes and materialisation parses them.
    """

    fingerprint: str
    ack: bool
    validator: object
    payload: bytes = field(repr=False)

    @property
    def payload_bytes(self) -> int:
        return len(self.payload)


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
        attached to the kernel.  After a wire publication it is a
        :class:`PublishedDocument` (the bytes and their verdict).
    local_type:
        The propagated local type ``τi``, when one has been assigned.
    validator:
        The compiled form of the local type.  Compilation happens once per
        propagation (not once per validation); peers sharing content models
        also share the compiled automata through the engine cache.
    """

    function: str = ""
    document: Optional[Tree | PublishedDocument] = None
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
        """Return the document for a call of the resource (counts the call).

        A published document is parsed from its retained bytes on demand.
        """
        if self.document is None:
            raise RuntimeError(f"peer {self.name!r} has no document for {self.function!r}")
        self.calls += 1
        if isinstance(self.document, PublishedDocument):
            return tree_from_xml(self.document.payload)
        return self.document

    def update_document(self, document: Tree | PublishedDocument) -> None:
        """Replace the peer's document (e.g. a national bureau publishing new data)."""
        self.document = document

    def validate_locally(self) -> bool:
        """Validate the peer's own document against its local type.

        This is the whole point of a local typing: the check involves no
        other peer and no data shipping.  A published document's recorded
        verdict stands while the peer keeps the validator it was computed
        with; after a type change its retained bytes are folded again.
        """
        if self.validator is None:
            raise RuntimeError(f"peer {self.name!r} has no local type to validate against")
        if self.document is None:
            return False
        if isinstance(self.document, PublishedDocument):
            if self.document.validator is self.validator:
                return self.document.ack
            return streaming_validator_for(self.validator.compiled).validate_payload(
                self.document.payload
            )
        return self.validator.validate(self.document)

    def document_size(self) -> int:
        """Bytes of the peer's document (what centralized validation must ship)."""
        if self.document is None:
            return 0
        if isinstance(self.document, PublishedDocument):
            return self.document.payload_bytes
        return document_bytes(self.document)

    def describe(self) -> str:
        if isinstance(self.document, PublishedDocument):
            return (
                f"peer {self.name} provides {self.function} "
                f"(published, {self.document.payload_bytes} bytes)"
            )
        size = self.document.size if self.document is not None else 0
        return f"peer {self.name} provides {self.function} ({size} nodes)"
