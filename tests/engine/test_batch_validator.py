"""BatchValidator and the engine-routed validation / analysis layers.

The compiled paths must agree document-for-document with the uncached
``schema.validate`` they replace -- these are the "engine-routed results are
byte-identical" acceptance checks for the distributed and API layers.
"""

from __future__ import annotations

import sys

import pytest

from repro.api import analyze_design, bottom_up_design, dtd, edtd, kernel, top_down_design, tree
from repro.core.existence import find_perfect_typing
from repro.distributed.network import DistributedDocument
from repro.engine.batch import BatchValidator
from repro.engine.compilation import CompilationEngine, use_engine
from repro.trees.xml_io import tree_from_xml
from repro.workloads import eurostat


def _documents():
    return [
        tree("s(a a b)"),
        tree("s(b)"),
        tree("s(a)"),  # invalid: b is mandatory
        tree("s(a b c)"),  # invalid: c not allowed
        tree("t(a b)"),  # invalid: wrong root
    ]


def test_batch_validator_matches_uncached_validate_dtd():
    schema = dtd("s", {"s": "a*, b"})
    validator = BatchValidator(schema, engine=CompilationEngine())
    for document in _documents():
        assert validator.validate(document) == schema.validate(document)


def test_batch_validator_matches_uncached_validate_edtd():
    schema = edtd(
        "s",
        {"s": "x1, x2", "x1": "y*", "x2": ""},
        mu={"s": "s", "x1": "x", "x2": "x", "y": "y"},
    )
    documents = [tree("s(x(y y) x)"), tree("s(x x)"), tree("s(x)"), tree("s(x(y) x(y))")]
    validator = BatchValidator(schema, engine=CompilationEngine())
    assert validator.validate_many(documents) == [schema.validate(d) for d in documents]


@pytest.mark.parametrize("backend", ["python", "codegen"])
def test_documents_deeper_than_the_recursion_limit_fold(backend):
    depth = 5 * sys.getrecursionlimit()
    schema = dtd("s", {"s": "a", "a": "a?, b?"})
    validator = BatchValidator(schema, engine=CompilationEngine(), backend=backend)
    valid = tree_from_xml("<s>" + "<a>" * depth + "</a>" * depth + "</s>")
    invalid = tree_from_xml("<s>" + "<a>" * depth + "<c/>" + "</a>" * depth + "</s>")
    late = tree_from_xml("<s>" + "<a>" * depth + "</a>" * depth + "<b/></s>")
    assert validator.validate_many([valid, invalid, late]) == [True, False, False]


def test_validate_many_and_report():
    schema = dtd("s", {"s": "a*, b"})
    validator = BatchValidator(schema, engine=CompilationEngine())
    report = validator.report(_documents())
    assert report.results == (True, True, False, False, False)
    assert report.valid_count == 2
    assert report.total == 5
    assert not report.all_valid
    assert "2/5" in str(report)
    assert validator.first_invalid(_documents()) == tree("s(a)")


def test_revalidating_same_document_hits_the_memo():
    engine = CompilationEngine()
    schema = dtd("s", {"s": "a*, b"})
    validator = BatchValidator(schema, engine=engine)
    document = tree("s(a a b)")
    assert validator.validate(document)
    assert validator.validate(document)
    assert engine.stats.by_kind["batch-validate"].hits == 1


def test_peers_share_compiled_automata_through_the_engine():
    engine = CompilationEngine()
    schema = dtd("s", {"s": "a*, b", "a": "", "b": ""})
    with use_engine(engine):
        BatchValidator(schema)
        lookups_first = engine.stats.by_kind["eps-free"].lookups if "eps-free" in engine.stats.by_kind else 0
        BatchValidator(dtd("s", {"s": "a*, b", "a": "", "b": ""}))
    if "eps-free" in engine.stats.by_kind:
        # The second, structurally identical schema compiled entirely from cache.
        assert engine.stats.by_kind["eps-free"].hits >= lookups_first / 2


def test_distributed_local_validation_uses_compiled_types_and_agrees():
    engine = CompilationEngine()
    countries = 3
    kernel_document = eurostat.kernel_document(countries)
    documents = {"f0": eurostat.averages_document()}
    for function in eurostat.country_functions(countries):
        documents[function] = eurostat.national_document(function)
    with use_engine(engine):
        distributed = DistributedDocument(kernel_document, documents)
        typing = find_perfect_typing(eurostat.top_down_design(countries))
        distributed.propagate_typing(typing)
        report = distributed.validate_locally()
        assert report.valid
        # Every peer has a compiled validator installed, and re-validating is
        # served from the document memo.
        for peer in distributed.resources.values():
            assert peer.validator is not None
            assert peer.validate_locally() == peer.local_type.validate(peer.document)
        again = distributed.validate_locally()
        assert again.valid == report.valid
    assert engine.stats.by_kind["batch-validate"].hits > 0


def test_distributed_batch_validation_of_one_resource():
    countries = 2
    kernel_document = eurostat.kernel_document(countries)
    documents = {"f0": eurostat.averages_document()}
    for function in eurostat.country_functions(countries):
        documents[function] = eurostat.national_document(function)
    distributed = DistributedDocument(kernel_document, documents)
    typing = find_perfect_typing(eurostat.top_down_design(countries))
    distributed.propagate_typing(typing)
    good = documents["f1"]
    bad = tree("root_f1(country)")
    report = distributed.validate_batch("f1", [good, bad, good])
    assert report.results == (True, False, True)


def test_analyze_design_engine_injection_reports_stats():
    engine = CompilationEngine()
    design = top_down_design(dtd("s", {"s": "a*, b, c*"}), kernel("s(f1 b f2)"))
    report = analyze_design(design, engine=engine)
    assert report.has_perfect_typing
    assert report.engine_stats is not None
    assert report.engine_stats["hits"] > 0
    assert 0.0 < report.engine_stats["hit_rate"] <= 1.0
    # The injected engine (not the process default) absorbed the work.
    assert engine.stats.lookups > 0


def test_analyze_design_bottom_up_with_engine_matches_plain_run():
    design = bottom_up_design(
        {"f1": dtd("root_f1", {"root_f1": "a*"}), "f2": dtd("root_f2", {"root_f2": "b*"})},
        kernel("s(f1 f2)"),
    )
    plain = analyze_design(design)
    cached = analyze_design(design, engine=CompilationEngine())
    assert {
        language: result.consistent for language, result in plain.consistency.items()
    } == {language: result.consistent for language, result in cached.consistency.items()}
    assert [result.type_size for result in plain.consistency.values()] == [
        result.type_size for result in cached.consistency.values()
    ]
