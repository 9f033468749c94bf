"""Conversion between :class:`~repro.trees.document.Tree` values and XML text.

The paper abstracts away attributes and character data (Section 2: "a
widespread abstraction of XML documents ... focusing on document
structure"), so serialisation emits pure element structure and parsing
ignores text content and attributes.  Parsing runs on the same bare expat
event source as streaming validation
(:class:`~repro.streaming.events.XMLEventSource`), so the tree and stream
ingest paths classify malformed input identically; no third-party XML
dependency is required.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.dom import minidom

from repro.trees.document import Tree


def tree_to_element(tree: Tree) -> ET.Element:
    """Convert a tree to an :class:`xml.etree.ElementTree.Element`."""
    element = ET.Element(tree.label)
    for child in tree.children:
        element.append(tree_to_element(child))
    return element


def tree_to_xml(tree: Tree, pretty: bool = False) -> str:
    """Serialise a tree as XML text.

    With ``pretty=True`` the output is indented, which is what the examples
    print for human inspection.
    """
    raw = ET.tostring(tree_to_element(tree), encoding="unicode")
    if not pretty:
        return raw
    parsed = minidom.parseString(raw)
    pretty_text = parsed.toprettyxml(indent="  ")
    # Drop the XML declaration and blank lines added by minidom.
    lines = [line for line in pretty_text.splitlines() if line.strip() and not line.startswith("<?xml")]
    return "\n".join(lines)


class _TreeBuilder:
    """An event sink that assembles a :class:`Tree` bottom-up, iteratively.

    One children list per open element: a closing element becomes a
    :class:`Tree` appended to its parent's list, so any depth parses
    without recursion.
    """

    __slots__ = ("stack", "tree_label")

    def __init__(self, tree_label) -> None:
        #: ``stack[0]`` collects the root; ``stack[-1]`` the innermost children.
        self.stack: list[list[Tree]] = [[]]
        self.tree_label = tree_label

    def open(self, label: str, attributes=None) -> None:
        self.stack.append([])

    def close(self, label: str) -> None:
        children = self.stack.pop()
        self.stack[-1].append(Tree(self.tree_label(label), children))


def tree_from_xml(text: str | bytes) -> Tree:
    """Parse XML text into a tree (attributes and character data are dropped).

    Malformed input raises the library's typed
    :class:`~repro.errors.InvalidXMLError` (the event source's
    classification), so callers (the runtime, the service) never have to
    special-case stdlib exceptions.
    """
    # Imported here: repro.streaming needs the engine, which needs repro.trees.
    from repro.streaming.events import XMLEventSource, tree_label

    builder = _TreeBuilder(tree_label)
    source = XMLEventSource()
    source.pump(text, builder)
    source.close(builder)
    return builder.stack[0][0]
