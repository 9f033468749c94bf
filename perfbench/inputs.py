"""Seeded inputs of the four workloads, their digests and the serial oracle.

Everything here runs before any clock starts.  The program under test only
ever receives what these functions return: serialised XML payloads for
the publish workloads and design objects for ``design_analysis``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from repro.core.design import TopDownDesign
from repro.core.typing import default_root_name
from repro.distributed.network import DistributedDocument
from repro.service.loadgen import publication_stream
from repro.trees.document import Tree
from repro.trees.xml_io import tree_to_xml
from repro.workloads import synthetic
from repro.workloads.synthetic import corrupt_document, distributed_workload, random_record_document

PEERS = 8
INVALID_RATE = 0.05


@dataclass(frozen=True)
class Publication:
    """One wire publication and the peer verdict the oracle expects for it."""

    function: str
    payload: bytes
    valid: bool
    #: Rebuilds the published document for the oracle (kept lazy so the
    #: large-document workload does not hold every tree in memory).
    tree: Callable[[], Tree]


@dataclass
class PublishInputs:
    """A design to register plus the ordered publications to send."""

    kernel: object
    typing: object
    initial: dict
    publications: list[Publication]

    def register_args(self) -> tuple:
        documents = {function: tree_to_xml(tree) for function, tree in self.initial.items()}
        return str(self.kernel.tree), dict(self.typing.items()), documents

    def digest(self) -> str:
        """SHA-256 of everything sent: the registered design, then the publications."""
        kernel, schemas, documents = self.register_args()
        hasher = hashlib.sha256(kernel.encode())
        for function, schema in sorted(schemas.items()):
            hasher.update(f"{function}:{schema.describe()}".encode())
        for function, xml in sorted(documents.items()):
            hasher.update(f"{function}:{xml}".encode())
        for item in self.publications:
            hasher.update(f"{item.function}:{int(item.valid)}:".encode() + item.payload)
        return hasher.hexdigest()


def _constant(tree: Tree) -> Callable[[], Tree]:
    return lambda: tree


def publish_fresh(seed: int, count: int) -> PublishInputs:
    """``count`` new ~1 KB record documents, one per publication."""
    workload = distributed_workload(
        peers=PEERS, documents=PEERS + count, seed=seed, invalid_rate=INVALID_RATE
    )
    publications = [
        Publication(
            event.function,
            tree_to_xml(event.document).encode(),
            event.expected_valid,
            _constant(event.document),
        )
        for event in workload.events
    ]
    return PublishInputs(
        workload.kernel, workload.typing, dict(workload.initial_documents), publications
    )


def publish_repeat(seed: int, rounds: int) -> PublishInputs:
    """The re-publication shape: every round all peers re-send, one changed."""
    workload = distributed_workload(
        peers=PEERS, documents=PEERS + rounds, seed=seed, invalid_rate=INVALID_RATE
    )
    trees = dict(workload.initial_documents)
    valid = {function: True for function in trees}
    encoded: dict[int, bytes] = {}
    publications: list[Publication] = []
    stream = publication_stream(workload)
    position = 0
    for event in (None, *workload.events):
        if event is not None:
            trees[event.function] = event.document
            valid[event.function] = event.expected_valid
        for function in trees:
            streamed_function, xml = stream[position]
            position += 1
            if streamed_function != function:
                raise RuntimeError("publication_stream changed its round layout")
            payload = encoded.setdefault(id(xml), xml.encode())
            publications.append(
                Publication(function, payload, valid[function], _constant(trees[function]))
            )
    if position != len(stream):
        raise RuntimeError("publication_stream changed its round layout")
    return PublishInputs(
        workload.kernel, workload.typing, dict(workload.initial_documents), publications
    )


#: Record counts of the closed phase's large documents: evenly spaced, so
#: every seed draws the same size mix (~56-224 KB) and only the content
#: differs.  Two per peer, so no peer ever re-sends the document it holds.
LARGE_RECORDS = tuple(range(560, 2240 + 1, 112))
#: Record count of every open-phase document (~145 KB).  Latency grows
#: with size, so one size keeps the median from jumping between sizes.
OPEN_RECORDS = LARGE_RECORDS[len(LARGE_RECORDS) // 2]


def _large_document(seed: int, index: int, function: str, wanted: int) -> tuple[Tree, bool]:
    """Document ``index`` of the large-document pools, rebuilt from the seed.

    It concatenates the records of ordinary record documents until it
    holds ``wanted`` records, so it is valid for the same peer type and
    its size does not depend on the seed.
    """
    rng = random.Random(f"stream_large:{seed}:{index}")
    root = default_root_name(function)
    records: list[Tree] = []
    while len(records) < wanted:
        records.extend(random_record_document(root, rng).children)
    tree = Tree(root, tuple(records[:wanted]))
    if rng.random() < INVALID_RATE:
        return corrupt_document(tree), False
    return tree, True


def stream_large(seed: int) -> PublishInputs:
    """Two pools of 16 large documents, two per peer.

    The closed phase cycles through the first pool (one document per
    entry of ``LARGE_RECORDS``) and the open phase through the second
    (every document ``OPEN_RECORDS`` long), so no peer ever re-sends the
    document it holds.
    """
    base = distributed_workload(peers=PEERS, documents=PEERS, seed=seed)
    functions = base.kernel.functions
    rng = random.Random(seed)
    publications = []
    for pool in range(2):
        order = list(range(len(LARGE_RECORDS)))
        rng.shuffle(order)
        for position, size in enumerate(order):
            index = pool * len(LARGE_RECORDS) + size
            wanted = OPEN_RECORDS if pool else LARGE_RECORDS[size]
            function = functions[position % len(functions)]
            tree, valid = _large_document(seed, index, function, wanted)
            publications.append(
                Publication(
                    function,
                    tree_to_xml(tree).encode(),
                    valid,
                    lambda s=seed, i=index, f=function, w=wanted: _large_document(s, i, f, w)[0],
                )
            )
    return PublishInputs(base.kernel, base.typing, dict(base.initial_documents), publications)


def for_run(workload: str, seed: int, config: dict):
    """The inputs of a publish run: all of them, the closed phase's, the open phase's.

    The pools have fixed sizes (in publications); a phase that outruns
    its pool cycles through it again, which still sends each peer a
    document other than its current one.
    """
    if workload == "stream_large":
        made = stream_large(seed)
        half = len(made.publications) // 2
        return made, made.publications[:half], made.publications[half:]
    spec = config["workloads"][workload]
    closed, opened = spec["closed_pool"], spec["open_pool"]
    if workload == "publish_fresh":
        made = publish_fresh(seed, closed + opened)
    else:
        made = publish_repeat(seed, (closed + opened) // PEERS - 1)
    return made, made.publications[:closed], made.publications[closed:]


# --------------------------------------------------------------------------- #
# design analysis
# --------------------------------------------------------------------------- #

_BOTTOM_UP_ALL = {"DTD": True, "SDTD": True, "EDTD": True}

#: (family, sizes, documented verdict).  Sizes are capped: word designs
#: grow ~5x per step and edtd_topdown_design(6) alone takes seconds.
CATALOGUE = (
    ("bottom_up_chain", (2, 4, 8), {"consistency": _BOTTOM_UP_ALL}),
    ("dfa_blowup_design", (2, 4, 6), {"consistency": _BOTTOM_UP_ALL}),
    (
        "non_consistent_design",
        (2, 3, 4),
        {"consistency": {"DTD": False, "SDTD": False, "EDTD": True}},
    ),
    ("word_topdown_design", (2, 3), {"local": True, "perfect": False}),
    ("separable_topdown_design", (1, 3, 5), {"local": True, "perfect": True}),
    ("edtd_topdown_design", (1, 2, 3), {"local": True}),
)

CATALOGUE_SIZE = sum(len(sizes) for _family, sizes, _expected in CATALOGUE)


@dataclass
class DesignInputs:
    """Blocks of fresh design objects; each block is the catalogue, reordered."""

    entries: list[tuple[str, int, dict]]
    designs: list

    def digest(self) -> str:
        hasher = hashlib.sha256()
        for (family, size, _expected), design in zip(self.entries, self.designs):
            schema = design.target if isinstance(design, TopDownDesign) else design.typing
            hasher.update(f"{family}:{size}:{design.kernel}:{schema.describe()}\n".encode())
        return hasher.hexdigest()


def design_analysis(seed: int, blocks: int) -> DesignInputs:
    """``blocks`` seeded orderings of the catalogue, as fresh design objects."""
    catalogue = [
        (family, size, expected) for family, sizes, expected in CATALOGUE for size in sizes
    ]
    rng = random.Random(seed)
    entries = []
    for _ in range(blocks):
        block = list(catalogue)
        rng.shuffle(block)
        entries.extend(block)
    designs = [getattr(synthetic, family)(size) for family, size, _expected in entries]
    return DesignInputs(entries, designs)


def verdict_of(report) -> dict:
    """The answers of an ``analyze_design`` report, shaped like ``CATALOGUE``'s."""
    if isinstance(report.design, TopDownDesign):
        return {"local": report.has_local_typing, "perfect": report.has_perfect_typing}
    return {
        "consistency": {
            language: result.consistent for language, result in report.consistency.items()
        }
    }


def matches(verdict: dict, expected: dict) -> bool:
    """Does ``verdict`` give every answer the family documents?"""
    for language, consistent in expected.get("consistency", {}).items():
        if verdict.get("consistency", {}).get(language) is not consistent:
            return False
    return all(verdict.get(key) is expected[key] for key in ("local", "perfect") if key in expected)


# --------------------------------------------------------------------------- #
# the serial oracle
# --------------------------------------------------------------------------- #


def oracle(inputs: PublishInputs, sent: list[Publication]) -> tuple[dict, bool]:
    """Per-peer acks and the global verdict after ``sent``, computed serially."""
    document = DistributedDocument(inputs.kernel, inputs.initial)
    document.propagate_typing(inputs.typing)
    latest: dict[str, Publication] = {}
    for item in sent:
        latest[item.function] = item
    for function, item in latest.items():
        document.update_resource(function, item.tree())
    acks = {
        function: peer.validate_locally() for function, peer in document.resources.items()
    }
    return acks, document.validate_locally().valid


def reference_digests(seed: int) -> dict:
    """Digests of every workload's inputs at ``seed`` (a prefix where they are long).

    They come from the same functions with the same parameters as a full
    run, so a change to ``repro.workloads`` (or to how this module calls
    it) changes these digests.
    """
    return {
        "publish_fresh": publish_fresh(seed, 64).digest(),
        "publish_repeat": publish_repeat(seed, 8).digest(),
        "stream_large": stream_large(seed).digest(),
        "design_analysis": design_analysis(seed, 2).digest(),
    }

