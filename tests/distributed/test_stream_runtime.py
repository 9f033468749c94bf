"""Tests for the runtime's streamed-publication ingest."""

from __future__ import annotations

import pytest

from repro.core.typing import TreeTyping, default_root_name
from repro.distributed.network import DistributedDocument
from repro.distributed.peer import PublishedDocument
from repro.distributed.runtime import ValidationRuntime, WorkloadDriver
from repro.errors import DesignError
from repro.schemas.dtd import DTD
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import corrupt_document, distributed_workload


@pytest.fixture
def workload():
    return distributed_workload(peers=4, documents=20, seed=9, invalid_rate=0.2, records=5)


@pytest.fixture
def runtime(workload):
    document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
    with ValidationRuntime(document, backend="serial") as runtime:
        runtime.propagate_typing(workload.typing)
        yield runtime


def payload_of(workload, function):
    return tree_to_xml(workload.initial_documents[function]).encode("utf-8")


class TestPublishStream:
    def test_first_publication_validates_then_clean_skips(self, workload, runtime):
        function = next(iter(workload.initial_documents))
        payload = payload_of(workload, function)
        first = runtime.publish_stream(function, payload, chunk_bytes=64)
        assert (first.clean, first.valid, first.malformed) == (False, True, False)
        second = runtime.publish_stream(function, payload, chunk_bytes=7)
        assert (second.clean, second.valid) == (True, True)
        assert runtime.stats.streamed_publications == 2
        assert runtime.stats.clean_publications == 1

    def test_chunk_size_never_affects_the_fingerprint(self, workload, runtime):
        function = next(iter(workload.initial_documents))
        payload = payload_of(workload, function)
        a = runtime.publish_stream(function, payload, chunk_bytes=3)
        b = runtime.publish_stream(function, payload, chunk_bytes=len(payload))
        assert a.fingerprint == b.fingerprint
        assert b.clean

    def test_interop_with_tree_publish(self, workload, runtime):
        """Streamed and whole-payload publications content-address alike."""
        function = next(iter(workload.initial_documents))
        payload = payload_of(workload, function)
        runtime.publish_stream(function, payload)
        # The whole-frame path sees the same wire digest: clean, unparsed.
        assert runtime.publish(function, payload).clean is True
        # And the other direction: a whole-frame publication makes the
        # next identical *stream* clean.
        other = sorted(workload.initial_documents)[1]
        other_payload = payload_of(workload, other)
        assert runtime.publish(other, other_payload).clean is False
        assert runtime.validate_locally().valid is True
        report = runtime.publish_stream(other, other_payload)
        assert report.clean

    def test_peer_holds_a_streamed_document_record(self, workload, runtime):
        function = next(iter(workload.initial_documents))
        payload = payload_of(workload, function)
        report = runtime.publish_stream(function, payload)
        peer = runtime.document.resources[function]
        assert isinstance(peer.document, PublishedDocument)
        assert peer.document.ack is True
        assert peer.document.payload == payload
        assert peer.document.payload_bytes == len(payload)
        assert peer.document_size() == len(payload)
        assert peer.document.fingerprint == report.fingerprint
        # Re-validating replays the recorded verdict (force rounds work).
        assert runtime.validate_locally(force=True).valid is True

    def test_verdict_settles_at_ingest_no_round_needed(self, workload, runtime):
        for function in workload.initial_documents:
            runtime.publish_stream(function, payload_of(workload, function))
        assert runtime.current_verdict() is True
        report = runtime.validate_locally()
        assert report.peers_validated == 0
        assert report.peers_skipped == len(workload.initial_documents)

    def test_invalid_streamed_publication(self, workload, runtime):
        function = next(iter(workload.initial_documents))
        bad = corrupt_document(workload.initial_documents[function])
        report = runtime.publish_stream(function, tree_to_xml(bad).encode("utf-8"))
        assert (report.clean, report.valid, report.malformed) == (False, False, False)
        assert runtime.peer_acks()[function] is False

    def test_malformed_stream_keeps_previous_document(self, workload, runtime):
        function = next(iter(workload.initial_documents))
        before = runtime.document.resources[function].document
        report = runtime.publish_stream(function, b"<s_f1><recor", chunk_bytes=4)
        assert report.malformed and report.valid is False
        assert runtime.document.resources[function].document is before
        # Same bad bytes again: clean-skipped after one digest.
        again = runtime.publish_stream(function, b"<s_f1><recor", chunk_bytes=5)
        assert again.clean and again.valid is False

    def test_unknown_function_raises(self, runtime):
        with pytest.raises(DesignError):
            runtime.begin_stream("nope")

    def test_ingest_cannot_be_reused(self, workload, runtime):
        function = next(iter(workload.initial_documents))
        ingest = runtime.begin_stream(function)
        ingest.feed(payload_of(workload, function))
        ingest.finish()
        with pytest.raises(DesignError):
            ingest.feed(b"<more/>")
        with pytest.raises(DesignError):
            ingest.finish()

    def test_control_messages_only_for_dirty_publications(self, workload, runtime):
        function = next(iter(workload.initial_documents))
        payload = payload_of(workload, function)
        base_messages, _ = runtime.network.snapshot()
        runtime.publish_stream(function, payload)
        after_first, _ = runtime.network.snapshot()
        assert after_first - base_messages == 2  # validate-request + result
        runtime.publish_stream(function, payload)
        after_clean, _ = runtime.network.snapshot()
        assert after_clean == after_first


def flipped_typing(workload) -> TreeTyping:
    """A typing change that flips every verdict of :func:`published_trees`.

    The root now requires one trailing ``__corrupt__`` leaf: corrupted
    documents turn valid, intact ones invalid.
    """
    rules = {
        "record": "key, (field | group)*, stamp?",
        "group": "(field, field) | note",
        "field": "value?",
    }
    return TreeTyping(
        {
            function: DTD(
                default_root_name(function),
                {default_root_name(function): "record*, __corrupt__", **rules},
            )
            for function in workload.typing
        }
    )


def published_trees(workload):
    """Half the peers publish a corrupted document, the rest their own."""
    return {
        function: corrupt_document(document) if index % 2 else document
        for index, (function, document) in enumerate(sorted(workload.initial_documents.items()))
    }


def publish_all(runtime, trees, route):
    for function, tree in trees.items():
        payload = tree_to_xml(tree).encode("utf-8")
        if route == "whole":
            runtime.publish(function, payload)
        else:
            runtime.publish_stream(function, payload, chunk_bytes=3)


@pytest.mark.parametrize("route", ["whole", "chunked"])
class TestRetainedPayloads:
    """Published bytes stay with the peer: typing changes and materialisation use them."""

    def test_typing_change_refolds_the_retained_bytes(self, workload, runtime, route):
        trees = published_trees(workload)
        publish_all(runtime, trees, route)
        oracle = DistributedDocument(workload.kernel, trees)
        assert runtime.current_verdict() is oracle.validate_locally(workload.typing).valid
        flipped = flipped_typing(workload)
        before = runtime.stats.validations_run
        report = runtime.validate_locally(flipped)
        expected = oracle.validate_locally(flipped)
        assert report.valid is expected.valid
        assert report.peers_validated == len(trees)
        assert runtime.stats.validations_run - before == len(trees)
        assert runtime.peer_acks() == {
            function: peer.validate_locally() for function, peer in oracle.resources.items()
        }
        assert set(runtime.peer_acks().values()) == {True, False}

    def test_validate_centralized_parses_the_published_peers(self, workload, runtime, route):
        trees = published_trees(workload)
        publish_all(runtime, trees, route)
        peer = runtime.document.resources[next(iter(trees))]
        assert isinstance(peer.document, PublishedDocument)
        assert "published" in peer.describe()
        oracle = DistributedDocument(workload.kernel, trees)
        assert runtime.document.validate_centralized(
            workload.global_type
        ) == oracle.validate_centralized(workload.global_type)


class TestDriverStreamStrategy:
    def test_stream_strategy_agrees_with_serial(self, workload):
        driver = WorkloadDriver(workload, max_workers=2, stream_chunk_bytes=256)
        report = driver.run(("serial", "stream"))
        assert report.verdicts_agree
        stream = report.outcome("stream")
        serial = report.outcome("serial")
        assert stream.rounds == serial.rounds
        # Streaming validates one publication per ingest: exactly the
        # number of publications that were not byte-identical skips.
        assert stream.documents_validated >= len(workload.events)
