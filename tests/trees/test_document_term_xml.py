"""Tests for the tree value type, the term notation and XML round-trips."""

from __future__ import annotations

import sys

import pytest

from repro.errors import TermSyntaxError
from repro.trees.document import Tree, forest_size
from repro.trees.term import format_term, parse_forest, parse_term
from repro.trees.xml_io import tree_from_xml, tree_to_xml


def sample_tree() -> Tree:
    # The paper's extension example: s(a c(d d) b(d(e f)))
    return parse_term("s(a c(d d) b(d(e f)))")


class TestTree:
    def test_node_promotes_string_children(self):
        tree = Tree.node("s", "a", Tree.node("b", "c"))
        assert tree.children[0] == Tree.leaf("a")
        assert tree.size == 4

    def test_label_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Tree("", ())

    def test_size_and_height(self):
        tree = sample_tree()
        assert tree.size == 9
        assert tree.height == 4
        assert Tree.leaf("a").height == 1

    def test_child_str_and_anc_str(self):
        tree = sample_tree()
        assert tree.child_str() == ("a", "c", "b")
        assert tree.child_str((1,)) == ("d", "d")
        assert tree.anc_str((2, 0, 1)) == ("s", "b", "d", "f")
        assert tree.lab((2, 0)) == "d"

    def test_subtree_and_parent(self):
        tree = sample_tree()
        assert tree.subtree((2, 0)) == parse_term("d(e f)")
        assert tree.parent_path((2, 0)) == (2,)
        assert tree.parent_path(()) is None
        with pytest.raises(KeyError):
            tree.subtree((9,))

    def test_paths_in_document_order(self):
        tree = parse_term("s(a b(c))")
        assert list(tree.paths()) == [(), (0,), (1,), (1, 0)]

    def test_labels_and_leaves_and_occurrences(self):
        tree = sample_tree()
        assert tree.labels() == {"s", "a", "b", "c", "d", "e", "f"}
        assert [node.label for _p, node in tree.leaves()] == ["a", "d", "d", "e", "f"]
        assert tree.occurrences("d") == [(1, 0), (1, 1), (2, 0)]

    def test_replace(self):
        tree = parse_term("s(a b)")
        replaced = tree.replace((1,), parse_term("c(d)"))
        assert replaced == parse_term("s(a c(d))")
        with pytest.raises(KeyError):
            tree.replace((5,), Tree.leaf("x"))

    def test_replace_at_root(self):
        assert sample_tree().replace((), Tree.leaf("x")) == Tree.leaf("x")

    def test_splice_replaces_node_by_forest(self):
        tree = parse_term("s(a f1 b)")
        spliced = tree.splice((1,), (parse_term("c(d d)"), Tree.leaf("e")))
        assert spliced == parse_term("s(a c(d d) e b)")

    def test_splice_with_empty_forest_removes_the_node(self):
        tree = parse_term("s(a f1 b)")
        assert tree.splice((1,), ()) == parse_term("s(a b)")

    def test_splice_at_root_is_rejected(self):
        with pytest.raises(ValueError):
            sample_tree().splice((), ())

    def test_relabel(self):
        tree = parse_term("s(natIndA natIndB)")
        relabeled = tree.relabel({"natIndA": "nationalIndex", "natIndB": "nationalIndex"})
        assert relabeled == parse_term("s(nationalIndex nationalIndex)")

    def test_pretty_contains_all_labels(self):
        text = sample_tree().pretty()
        for label in ("s", "a", "c", "d", "e", "f"):
            assert label in text

    def test_forest_size(self):
        assert forest_size([Tree.leaf("a"), parse_term("b(c)")]) == 3


class TestTermNotation:
    def test_parse_and_format_round_trip(self):
        for text in ("s0(a f1 b(f2))", "eurostat(f1 nationalIndex(f2) f3)", "a"):
            assert format_term(parse_term(text)) == text

    def test_commas_are_accepted(self):
        assert parse_term("eurostat(f1, nationalIndex(f2), f3)") == parse_term(
            "eurostat(f1 nationalIndex(f2) f3)"
        )

    def test_parse_forest(self):
        forest = parse_forest("a(b) c d(e)")
        assert [tree.label for tree in forest] == ["a", "c", "d"]

    def test_syntax_errors(self):
        for bad in ("", "s(", "s(a))", "(a)", "s(a,)x"):
            with pytest.raises(TermSyntaxError):
                parse_term(bad)


class TestXmlIO:
    def test_round_trip(self):
        tree = sample_tree()
        assert tree_from_xml(tree_to_xml(tree)) == tree

    def test_pretty_output_is_indented(self):
        text = tree_to_xml(parse_term("s(a b(c))"), pretty=True)
        assert "<s>" in text and "</s>" in text
        assert "\n" in text

    def test_parsing_ignores_text_and_attributes(self):
        tree = tree_from_xml('<index year="2009">  <value>1.2</value> <year/> </index>')
        assert tree == parse_term("index(value year)")

    def test_malformed_xml_raises_the_typed_error(self):
        from repro.errors import InvalidXMLError, ReproError

        for bad in ("", "<a>", "<a><b></a>", "plain text", "<a attr=></a>"):
            with pytest.raises(InvalidXMLError):
                tree_from_xml(bad)
        # One base class catches every library error, parse errors included.
        with pytest.raises(ReproError):
            tree_from_xml("<unclosed")

    def test_bytes_input_is_accepted(self):
        assert tree_from_xml(b"<s><a/></s>") == parse_term("s(a)")

    def test_namespaced_labels_keep_elementtree_spelling(self):
        tree = tree_from_xml('<s xmlns="urn:x"><a/></s>')
        assert tree == Tree("{urn:x}s", (Tree("{urn:x}a"),))
        assert tree_from_xml(tree_to_xml(tree)) == tree

    def test_deep_documents_parse_without_recursion(self):
        depth = 5 * sys.getrecursionlimit()
        tree = tree_from_xml("<a>" * depth + "</a>" * depth)
        for _ in range(depth - 1):
            (tree,) = tree.children
        assert tree == Tree("a")
