"""The runtime's exported validation state: export, digest, merge, fencing.

The federation's differential gate rests on three properties proven
here in isolation: the exported state is content-addressed (equal states
hash equal regardless of which runtime computed them), disjoint per-pod
exports merge into exactly the whole-design export, and re-propagating
a typing bumps the runtime's typing version while clearing the state.
"""

from __future__ import annotations

from repro.core.kernel import KernelTree
from repro.distributed.network import DistributedDocument
from repro.distributed.runtime import (
    ValidationRuntime,
    merge_states,
    state_digest_of,
)
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import distributed_workload


def build_runtime(workload, functions=None):
    documents = dict(workload.initial_documents)
    if functions is not None:
        documents = {f: documents[f] for f in functions}
        term = f"{workload.kernel.tree.label}({' '.join(sorted(documents))})"
        document = DistributedDocument(KernelTree(term), documents)
    else:
        document = DistributedDocument(workload.kernel, documents)
    runtime = ValidationRuntime(document, max_workers=2)
    runtime.propagate_typing(workload.typing)
    return runtime


def publish_all(runtime, workload, functions=None):
    for function, doc in workload.initial_documents.items():
        if functions is not None and function not in functions:
            continue
        runtime.publish(function, tree_to_xml(doc))
    runtime.validate_locally()


def test_export_state_shape_and_digest_stability():
    workload = distributed_workload(peers=3, documents=6, seed=1, invalid_rate=0.3)
    with build_runtime(workload) as runtime:
        publish_all(runtime, workload)
        state = runtime.export_state()
        assert set(state) == {"acks", "validated_fp", "current_fp"}
        assert set(state["acks"]) == set(workload.initial_documents)
        # The digest is a pure function of the exported state.
        assert runtime.state_digest() == state_digest_of(state)
        assert runtime.state_digest() == runtime.state_digest()


def test_equal_replays_hash_equal_across_runtimes():
    workload = distributed_workload(peers=3, documents=6, seed=7, invalid_rate=0.5)
    with build_runtime(workload) as left, build_runtime(workload) as right:
        publish_all(left, workload)
        publish_all(right, workload)
        assert left.state_digest() == right.state_digest()


def test_disjoint_exports_merge_into_the_whole():
    workload = distributed_workload(peers=4, documents=8, seed=3, invalid_rate=0.3)
    functions = sorted(workload.initial_documents)
    left_half, right_half = functions[::2], functions[1::2]
    with build_runtime(workload) as whole:
        publish_all(whole, workload)
        expected = whole.state_digest()
    with build_runtime(workload, left_half) as left, build_runtime(workload, right_half) as right:
        publish_all(left, workload, left_half)
        publish_all(right, workload, right_half)
        merged = merge_states([left.export_state(), right.export_state()])
    assert state_digest_of(merged) == expected


def test_merge_unions_every_key():
    merged = merge_states(
        [
            {"acks": {"f1": True}, "validated_fp": {"f1": "a"}, "current_fp": {"f1": "a"}},
            {"acks": {"f2": False}, "validated_fp": {"f2": "b"}, "current_fp": {"f2": "c"}},
        ]
    )
    assert merged == {
        "acks": {"f1": True, "f2": False},
        "validated_fp": {"f1": "a", "f2": "b"},
        "current_fp": {"f1": "a", "f2": "c"},
    }


def test_propagate_typing_bumps_version_and_clears_state():
    workload = distributed_workload(peers=3, documents=6, seed=2)
    with build_runtime(workload) as runtime:
        version = runtime.typing_version
        publish_all(runtime, workload)
        assert runtime.export_state()["acks"]
        runtime.propagate_typing(workload.typing)
        assert runtime.typing_version == version + 1
        state = runtime.export_state()
        assert state["acks"] == {}
        assert state["validated_fp"] == {}
