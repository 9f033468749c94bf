"""The sharded distributed-validation runtime vs the serial simulation.

The paper's Section 1 motivation at system scale: once local types are
propagated, each peer validates its own publications and only
acknowledgements travel.  This benchmark drives the runtime introduced on
top of that story -- thread-pool execution over shards, wire-level
content-addressed ingest, incremental revalidation -- against the serial
baseline that parses and revalidates everything every round.

``run_all.py`` records the same scenarios into ``BENCH_core.json`` (the
machine-readable trajectory); this module is the pytest-benchmark view.
"""

from __future__ import annotations

import pytest

from repro.distributed.network import DistributedDocument
from repro.distributed.runtime import ValidationRuntime, WorkloadDriver
from repro.trees.xml_io import tree_from_xml, tree_to_xml
from repro.workloads.synthetic import corrupt_document, distributed_workload

PEER_COUNTS = (2, 8)
WORKLOAD_DOCUMENTS = 40


def build(peers: int, seed: int = 0):
    return distributed_workload(peers=peers, documents=WORKLOAD_DOCUMENTS, seed=seed, invalid_rate=0.05)


@pytest.mark.parametrize("peers", PEER_COUNTS)
def test_serial_full_round(benchmark, peers):
    """Baseline: every peer revalidates (fresh objects defeat the identity memo)."""
    workload = build(peers)
    document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
    document.propagate_typing(workload.typing)
    payloads = {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()}

    def round_trip():
        for function, payload in payloads.items():
            document.update_resource(function, tree_from_xml(payload))
        return document.validate_locally()

    report = benchmark(round_trip)
    assert report.valid


@pytest.mark.parametrize("peers", PEER_COUNTS)
def test_runtime_republish_round(benchmark, peers):
    """The runtime's round over byte-identical re-publications: hashes only."""
    workload = build(peers)
    document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
    with ValidationRuntime(document, max_workers=4) as runtime:
        runtime.propagate_typing(workload.typing)
        payloads = {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()}

        def round_trip():
            for function, payload in payloads.items():
                runtime.publish(function, payload)
            return runtime.validate_locally()

        round_trip()  # first sight of the wire payloads: validates everything
        report = benchmark(round_trip)
        assert report.valid and report.peers_validated == 0


def test_runtime_single_edit_round(benchmark):
    """Edit one peer, revalidate: exactly one validator run, at publish."""
    workload = build(8)
    document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
    with ValidationRuntime(document, max_workers=4) as runtime:
        runtime.validate_locally(workload.typing)
        good = tree_to_xml(workload.initial_documents["f3"])
        bad = tree_to_xml(corrupt_document(workload.initial_documents["f3"]))
        state = {"flip": False}

        def edit_round():
            state["flip"] = not state["flip"]
            before = runtime.stats.validations_run
            runtime.publish("f3", bad if state["flip"] else good)
            report = runtime.validate_locally()
            return runtime.stats.validations_run - before, report

        validated, report = benchmark(edit_round)
        # The publication settles at ingest; the round reuses cached acks.
        assert validated == 1 and report.peers_validated == 0


def test_workload_replay_comparison(benchmark, table):
    """The full driver replay: serial vs runtime vs centralized ledgers."""
    workload = build(8)
    report = WorkloadDriver(workload, max_workers=4).run(("serial", "runtime", "centralized"))
    assert report.verdicts_agree
    serial, runtime = report.outcome("serial"), report.outcome("runtime")
    assert runtime.documents_validated < serial.documents_validated
    assert runtime.bytes_shipped < serial.bytes_shipped
    rows = [
        [
            outcome.strategy,
            f"{outcome.wall_seconds * 1000:.2f}",
            outcome.documents_validated,
            f"{outcome.throughput:.0f}",
            outcome.messages,
            outcome.bytes_shipped,
        ]
        for outcome in report.outcomes
    ]
    table(
        "Distributed workload replay (8 peers)",
        ["strategy", "wall ms", "validated", "docs/s", "messages", "bytes"],
        rows,
    )
    benchmark(lambda: WorkloadDriver(workload, max_workers=4).run(("runtime",)))


def test_scaled_workload_smoke(benchmark):
    """Hundreds of peers: the runtime holds up at scale (smoke-sized here)."""
    workload = distributed_workload(peers=100, documents=160, seed=4, invalid_rate=0.02)
    driver = WorkloadDriver(workload, max_workers=8)
    report = driver.run(("runtime",))
    outcome = report.outcome("runtime")
    assert outcome.rounds == 61
    assert outcome.documents_validated <= 160
    benchmark(lambda: WorkloadDriver(workload, max_workers=8).run(("runtime",)))
