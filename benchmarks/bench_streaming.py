"""Streaming (no-tree) validation vs the tree-based path.

The streaming subsystem's two claims, measured:

* **wall-clock** -- validating a publication straight from its bytes
  (events -> per-frame DFA steps) beats parse-to-``Tree`` +
  ``BatchValidator``, because no per-node Python structure is ever built;
* **memory** -- working set is O(document depth): a document 20x wider
  allocates the *same* peak, and documents deeper than Python's recursion
  limit (which the tree path cannot even represent) validate fine.

``run_all.py`` records the wall-clock comparison into ``BENCH_core.json``
(scenarios ``local_validation_8`` / ``streaming_validate_{8,100}``); this
module is the pytest-benchmark view plus the CI smoke / memory-gate entry
point::

    PYTHONPATH=src python benchmarks/bench_streaming.py --smoke
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.engine import BatchValidator
from repro.schemas.dtd import DTD
from repro.streaming import StreamingValidator, XMLEventSource, streaming_validator_for
from repro.trees.xml_io import tree_from_xml
from repro.workloads.synthetic import distributed_workload

PEERS = 8
DOCUMENTS = 40

#: The wide/deep synthetic schemas of the memory gate.
WIDE_DTD = DTD("r", {"r": "a*"})
DEEP_DTD = DTD("a", {"a": "a?"})


def publication_stream(peers: int = PEERS, documents: int = DOCUMENTS):
    """The driver's publication stream as ``(function, payload-bytes)`` pairs."""
    from repro.service.loadgen import publication_stream as loadgen_stream

    workload = distributed_workload(peers=peers, documents=documents, seed=0, invalid_rate=0.05)
    return workload, [(f, p.encode("utf-8")) for f, p in loadgen_stream(workload)]


def wide_payload(leaves: int) -> bytes:
    return b"<r>" + b"<a/>" * leaves + b"</r>"


def deep_payload(depth: int) -> bytes:
    return b"<a>" * depth + b"</a>" * depth


# --------------------------------------------------------------------------- #
# pytest-benchmark view
# --------------------------------------------------------------------------- #


def test_tree_path_replay(benchmark):
    """Baseline: parse every payload into a Tree, validate bottom-up."""
    workload, pairs = publication_stream()
    validators = {f: BatchValidator(workload.typing[f]) for f in workload.initial_documents}
    result = benchmark(lambda: [validators[f].validate(tree_from_xml(p)) for f, p in pairs])
    assert len(result) == len(pairs)


def test_streaming_replay(benchmark):
    """The streaming path over the same bytes: must return the same verdicts."""
    workload, pairs = publication_stream()
    validators = {f: BatchValidator(workload.typing[f]) for f in workload.initial_documents}
    machines = {f: streaming_validator_for(workload.typing[f]) for f in workload.initial_documents}
    expected = [validators[f].validate(tree_from_xml(p)) for f, p in pairs]
    result = benchmark(lambda: [machines[f].validate_payload(p) for f, p in pairs])
    assert result == expected


def test_streaming_chunked_replay(benchmark):
    """Chunked feeding (the wire shape) costs about the same as whole payloads."""
    workload, pairs = publication_stream()
    machines = {f: streaming_validator_for(workload.typing[f]) for f in workload.initial_documents}
    result = benchmark(
        lambda: [machines[f].validate_payload(p, chunk_bytes=4096) for f, p in pairs]
    )
    assert len(result) == len(pairs)


@pytest.mark.parametrize("depth", [100, 5000])
def test_streaming_deep_documents(benchmark, depth):
    """Depth beyond the tree path's recursion limit is routine for streaming."""
    machine = StreamingValidator(DEEP_DTD)
    payload = deep_payload(depth)
    assert benchmark(lambda: machine.validate_payload(payload)) is True


# --------------------------------------------------------------------------- #
# the CI smoke entry point: differential sanity + the O(depth) memory gate
# --------------------------------------------------------------------------- #


def _streaming_peak(machine: StreamingValidator, payload: bytes, chunk_bytes: int) -> int:
    """Peak traced allocation of one chunk-fed streaming validation."""
    tracemalloc.start()
    try:
        run = machine.run()
        source = XMLEventSource()
        for start in range(0, len(payload), chunk_bytes):
            source.pump(payload[start : start + chunk_bytes], run)
        source.close(run)
        assert run.verdict() is True
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def smoke() -> dict:
    """Differential sanity + the memory gate (fails loudly on regression)."""
    workload, pairs = publication_stream(peers=4, documents=16)
    validators = {f: BatchValidator(workload.typing[f]) for f in workload.initial_documents}
    machines = {f: StreamingValidator(workload.typing[f]) for f in workload.initial_documents}
    for function, payload in pairs:
        tree_verdict = validators[function].validate(tree_from_xml(payload))
        assert machines[function].validate_payload(payload) is tree_verdict, function

    # Gate 1: no per-node allocation.  A document 20x wider must not cost
    # a meaningfully larger peak -- the frame stack is the same (depth 2),
    # so peak memory is dominated by the chunk buffer and parser, not by
    # the node count.  The tree path's peak scales linearly for contrast.
    machine = StreamingValidator(WIDE_DTD)
    narrow_peak = _streaming_peak(machine, wide_payload(2_000), chunk_bytes=8192)
    wide_peak = _streaming_peak(machine, wide_payload(40_000), chunk_bytes=8192)
    assert wide_peak < 2 * narrow_peak + 65536, (
        f"streaming peak grew with document width: {narrow_peak} -> {wide_peak} bytes"
    )
    tracemalloc.start()
    tree = tree_from_xml(wide_payload(40_000))
    tree_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del tree
    assert wide_peak * 5 < tree_peak, (
        f"streaming peak {wide_peak} is not clearly below the tree path's {tree_peak}"
    )

    # Gate 2: O(depth) really means depth is the only growth axis -- and
    # depth far beyond the recursion limit validates fine.  The tree path's
    # builder is iterative too, so it parses the same document.
    deep = StreamingValidator(DEEP_DTD)
    depth = 50_000
    assert deep.validate_payload(deep_payload(depth), chunk_bytes=8192) is True
    assert tree_from_xml(deep_payload(depth)).label == "a"

    return {
        "differential_documents": len(pairs),
        "wide_narrow_peak_bytes": narrow_peak,
        "wide_wide_peak_bytes": wide_peak,
        "tree_peak_bytes": tree_peak,
        "deep_depth_validated": depth,
    }


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="run the CI smoke + memory gate")
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("run the timings via pytest; the script entry point only supports --smoke")
    summary = smoke()
    print(json.dumps(summary, indent=2, sort_keys=True))
    print("\nstreaming smoke OK: verdicts agree, peak memory is O(depth), deep documents validate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
