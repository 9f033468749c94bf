"""Differential suite: streaming verdicts == BatchValidator verdicts.

The streaming subsystem is only correct if it is *indistinguishable* from
the tree-based path on every document it can see: the full
``distributed_workload`` publication stream, every schema kind (DTD /
SDTD / EDTD), corrupt documents, malformed and truncated payloads, and
documents that reject early.  Each case validates both ways and demands
the same verdict -- or the same typed-error classification.
"""

from __future__ import annotations

import random

import pytest

from repro.api import dtd, edtd, sdtd
from repro.engine import BatchValidator
from repro.errors import InvalidXMLError
from repro.streaming import StreamingValidator, streaming_validator_for
from repro.trees.document import Tree
from repro.trees.term import parse_term
from repro.trees.xml_io import tree_from_xml, tree_to_xml
from repro.workloads.synthetic import corrupt_document, distributed_workload


def tree_verdict(schema, payload):
    """The tree path's outcome: a verdict, or the typed parse error."""
    try:
        document = tree_from_xml(payload)
    except InvalidXMLError:
        return "invalid-xml"
    return BatchValidator(schema).validate(document)


def stream_verdict(schema, payload, chunk_bytes=None):
    machine = streaming_validator_for(schema)
    try:
        if chunk_bytes is None:
            return machine.validate_payload(payload)
        return machine.validate_payload(payload, chunk_bytes)
    except InvalidXMLError:
        return "invalid-xml"


class TestWorkloadStream:
    def test_full_publication_stream_agrees(self):
        workload = distributed_workload(
            peers=6, documents=48, seed=7, invalid_rate=0.25, records=8, fields=5
        )
        publications = list(workload.initial_documents.items()) + [
            (event.function, event.document) for event in workload.events
        ]
        assert len(publications) == 48
        for function, document in publications:
            schema = workload.typing[function]
            payload = tree_to_xml(document).encode("utf-8")
            assert stream_verdict(schema, payload) == tree_verdict(schema, payload)

    def test_corrupt_documents_reject_on_both_paths(self):
        workload = distributed_workload(peers=3, documents=3, seed=1)
        for function, document in workload.initial_documents.items():
            schema = workload.typing[function]
            bad = corrupt_document(document)
            payload = tree_to_xml(bad)
            assert tree_verdict(schema, payload) is False
            assert stream_verdict(schema, payload) is False


SCHEMAS = {
    "DTD": dtd(
        "s",
        {
            "s": "record*",
            "record": "key, (field | group)*, stamp?",
            "group": "(field, field) | note",
            "field": "value?",
        },
    ),
    "SDTD": sdtd(
        "s",
        {"s": "x, y", "x": "a1*", "y": "a2*", "a1": "c", "a2": ""},
        mu={"a1": "a", "a2": "a"},
    ),
    "EDTD": edtd(
        "s0", {"s0": "b1, b2", "b1": "c*", "b2": "d"}, mu={"b1": "b", "b2": "b"}
    ),
}

SEED_TERMS = {
    "DTD": ["s(record(key field(value)))", "s(record(key) record(key stamp))"],
    "SDTD": ["s(x(a(c)) y(a))", "s(x y(a a))"],
    "EDTD": ["s0(b(c c) b(d))", "s0(b b(d))"],
}


def mutated_trees(kind: str, rng: random.Random, count: int):
    """Random structural mutations of the seed documents (valid and not)."""
    labels = ["key", "field", "value", "a", "b", "c", "d", "x", "y", "zzz"]
    trees = [parse_term(term) for term in SEED_TERMS[kind]]
    produced = []
    for _ in range(count):
        tree = rng.choice(trees)
        paths = list(tree.paths())
        path = rng.choice(paths)
        mutation = rng.randrange(3)
        if mutation == 0:  # relabel a node
            node = tree.subtree(path)
            tree = tree.replace(path, Tree(rng.choice(labels), node.children))
        elif mutation == 1 and path:  # graft a random leaf
            tree = tree.replace(path, Tree(tree.subtree(path).label, (Tree.leaf(rng.choice(labels)),)))
        elif path:  # drop a subtree
            parent = tree.subtree(path[:-1])
            kept = tuple(c for i, c in enumerate(parent.children) if i != path[-1])
            tree = tree.replace(path[:-1], Tree(parent.label, kept))
        produced.append(tree)
        trees.append(tree)
    return produced


class TestAllSchemaKinds:
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_mutated_documents_agree(self, kind):
        # Seeded from the kind *string* (never hash(): PYTHONHASHSEED would
        # make the mutation pool -- and the flake rate -- per-process).
        rng = random.Random(kind)
        schema = SCHEMAS[kind]
        seen_verdicts = set()
        for tree in mutated_trees(kind, rng, 60):
            payload = tree_to_xml(tree)
            verdict = stream_verdict(schema, payload)
            assert verdict == tree_verdict(schema, payload)
            seen_verdicts.add(verdict)
        # The mutation pool must exercise both outcomes to mean anything.
        assert seen_verdicts == {True, False}


class TestMalformedAndTruncated:
    PAYLOADS = [
        b"",
        b"   ",
        b"not xml at all",
        b"<s>",
        b"<s><record></s>",
        b"<s><record><key/></record>",
        b"<s></s><s></s>",
        b"<s attr=></s>",
        # With an external DTD subset expat would skip the undefined
        # entity; both paths must still reject it.
        b'<!DOCTYPE s SYSTEM "x.dtd"><s>&foo;</s>',
    ]

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_classification_matches_tree_path(self, payload):
        schema = SCHEMAS["DTD"]
        assert stream_verdict(schema, payload) == tree_verdict(schema, payload) == "invalid-xml"

    @pytest.mark.parametrize(
        "payload, expected",
        [
            # A namespaced element matches none of these plain labels...
            (b'<s xmlns="urn:x"><record><key/></record></s>', False),
            (b'<s><record xmlns="urn:x"><key/></record></s>', False),
            # ...while a namespace declaration alone changes nothing.
            (b'<s xmlns:p="urn:x"><record><key/></record></s>', True),
        ],
    )
    def test_namespaced_documents_agree(self, payload, expected):
        schema = SCHEMAS["DTD"]
        assert tree_verdict(schema, payload) is expected
        assert stream_verdict(schema, payload) is expected
        assert stream_verdict(schema, payload, chunk_bytes=3) is expected

    @pytest.mark.parametrize(
        "start, payload, expected",
        [
            ("{urn:x}s", b'<s xmlns="urn:x"><a xmlns=""/></s>', True),
            ("{urn:x}s", b'<p:s xmlns:p="urn:x"><a/></p:s>', True),
            ("{urn:x}s", b"<s><a/></s>", False),
            # A brace label in any other spelling names no XML element.
            ("urn:x}s", b'<s xmlns="urn:x"><a xmlns=""/></s>', False),
        ],
    )
    def test_namespaced_schema_labels_agree(self, start, payload, expected):
        schema = dtd(start, {start: "a*"})
        assert tree_verdict(schema, payload) is expected
        for backend in ("python", "codegen"):
            machine = streaming_validator_for(schema, backend=backend)
            assert machine.validate_payload(payload) is expected
            assert machine.validate_payload(payload, 3) is expected

    @pytest.mark.parametrize("cut", [1, 5, 11, 17, 23])
    def test_truncated_chunks_are_malformed_at_any_cut(self, cut):
        schema = SCHEMAS["DTD"]
        payload = tree_to_xml(parse_term("s(record(key field))")).encode("utf-8")
        truncated = payload[:cut]
        assert stream_verdict(schema, truncated, chunk_bytes=3) == "invalid-xml"
        assert tree_verdict(schema, truncated) == "invalid-xml"

    def test_invalid_then_malformed_reports_malformed(self):
        # The tree path parses first, so a document that is both invalid
        # and malformed is classified malformed; streaming must match even
        # though it already knows the document is invalid.
        schema = SCHEMAS["DTD"]
        payload = b"<s><zzz><key></s>"
        assert tree_verdict(schema, payload) == "invalid-xml"
        assert stream_verdict(schema, payload) == "invalid-xml"


class TestEarlyRejectPositions:
    def test_rejection_happens_at_the_offending_event(self):
        schema = SCHEMAS["DTD"]
        machine = StreamingValidator(schema)
        # 'key, stamp' is a valid prefix (the record could end here); the
        # 'field' that follows the optional trailing 'stamp' is the first
        # event after which no completion exists -- the run must die
        # exactly there, not at the record's (never seen) close.
        run = machine.run()
        run.open("s")
        run.open("record")
        run.open("key")
        run.close()
        run.open("stamp")
        run.close()
        assert not run.rejected
        run.open("field")
        run.close()
        assert run.rejected
        assert run.rejected_at == run.events

    def test_early_reject_still_counts_remaining_events_cheaply(self):
        schema = SCHEMAS["DTD"]
        machine = StreamingValidator(schema)
        payload = b"<s><zzz/>" + b"<record><key/></record>" * 200 + b"</s>"
        assert machine.validate_payload(payload) is False
        run = machine.run()
        from repro.streaming.events import XMLEventSource

        source = XMLEventSource()
        source.pump(payload, run)
        source.close(run)
        assert run.rejected_at == 2  # open s, then the ruleless zzz opens
        assert run.events > 400  # the rest was consumed, cheaply
