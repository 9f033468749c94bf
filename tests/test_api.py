"""Tests for the public facade (:mod:`repro.api`), which the examples rely on."""

from __future__ import annotations

import pytest

import repro
from repro import api
from repro.errors import DesignError
from repro.core.design import BottomUpDesign, TopDownDesign


class TestConstructors:
    def test_tree_and_kernel(self):
        assert api.tree("s(a b)").size == 3
        assert api.tree(api.tree("s")).label == "s"
        kernel = api.kernel("s(a f1)")
        assert kernel.functions == ("f1",)
        assert api.kernel(api.tree("s(a b)"), functions=["b"]).functions == ("b",)

    def test_dtd_from_rules_and_text(self):
        from_rules = api.dtd("s", {"s": "a*, b"})
        from_text = api.dtd(text="s -> a*, b")
        assert from_rules.equivalent_to(from_text)
        with pytest.raises(DesignError):
            api.dtd("s")
        with pytest.raises(DesignError):
            api.dtd(rules={"s": "a"})

    def test_sdtd_and_edtd(self):
        sdtd = api.sdtd("s", {"s": "a1*"}, mu={"a1": "a"})
        edtd = api.edtd("s", {"s": "a1 | a2", "a1": "b", "a2": "c"}, mu={"a1": "a", "a2": "a"})
        assert sdtd.schema_language == "SDTD"
        assert edtd.schema_language == "EDTD"

    def test_design_constructors(self):
        target = api.dtd("s", {"s": "a*, b, c*"})
        top_down = api.top_down_design(target, "s(f1 b f2)")
        assert isinstance(top_down, TopDownDesign)
        bottom_up = api.bottom_up_design(
            {"f1": api.dtd("s1", {"s1": "a*"})}, "s(f1)"
        )
        assert isinstance(bottom_up, BottomUpDesign)
        typing = api.typing_of({"f1": api.dtd("s1", {"s1": "a*"})})
        assert api.bottom_up_design(typing, api.kernel("s(f1)")).typing is typing

    def test_package_level_reexports(self):
        assert repro.dtd is api.dtd
        assert repro.__version__
        assert "analyze_design" in dir(repro)
        with pytest.raises(AttributeError):
            repro.does_not_exist

    @pytest.mark.parametrize("name", sorted(repro.__all__))
    def test_every_advertised_name_resolves(self, name):
        # README examples call these as ``repro.<name>``: each must resolve,
        # and the lazy re-exports must be the ``repro.api`` objects.
        value = getattr(repro, name)
        if name != "__version__":
            assert value is getattr(api, name)


class TestAnalyzeDesign:
    def test_top_down_report_with_perfect_typing(self):
        design = api.top_down_design(api.dtd("s", {"s": "a*, b, c*"}), "s(f1 b f2)")
        report = api.analyze_design(design)
        assert report.has_local_typing
        assert report.has_perfect_typing
        assert report.maximal_local_typings
        text = report.summary()
        assert "perfect typing exists: True" in text
        assert "root_f1" in text

    def test_top_down_report_without_perfect_typing(self):
        design = api.top_down_design(api.dtd("s", {"s": "(a, b)+"}), "s(f1 f2)")
        report = api.analyze_design(design)
        assert report.has_local_typing
        assert not report.has_perfect_typing
        assert len(report.maximal_local_typings) == 3
        assert "maximal local typing #1" in report.summary()

    def test_bottom_up_report(self):
        design = api.bottom_up_design(
            {
                "f1": api.dtd("s1", {"s1": "b"}),
                "f2": api.dtd("s2", {"s2": "c"}),
            },
            "s0(a(f1) a(f2))",
        )
        report = api.analyze_design(design)
        assert report.consistency["EDTD"].consistent
        assert not report.consistency["DTD"].consistent
        summary = report.summary()
        assert "cons[DTD]: no" in summary
        assert "cons[EDTD]: yes" in summary

    def test_analyze_rejects_unknown_objects(self):
        with pytest.raises(DesignError):
            api.analyze_design(object())
