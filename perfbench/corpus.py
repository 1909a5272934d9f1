"""Seeded inputs: documents, guards and reference outputs.

Everything the program sees is generated here from the run seed; the
program itself never sees the seed.  The seed decides *where* the data
is, not *how much* there is: a document's content comes from the
generators in ``repro.workloads`` under a fixed content seed, and the
run seed shuffles every long list of siblings in it (the publications
of dblp; the items, people, categories and auctions of xmark), chooses
the order of operations, the update positions and the donors.  With
content re-generated per seed, the sizes of the guards' outputs moved
by ±10% from seed to seed (xmark-0.002 has 51 persons), more than any
bound on a timing could absorb; shuffled, the work per operation is
the same for every seed and the Dewey numbers, page layout and output
order are not.

Reference outputs come from the
batch ``Interpreter`` over the *in-memory* forest — a different code
path from the store-backed, compiled renderer the workloads exercise —
so a response that hashes equal to its reference was produced correctly
by two independent routes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.engine.interpreter import Interpreter
from repro.workloads.dblp import generate_dblp
from repro.workloads.xmark import generate_xmark
from repro.xmltree.node import XmlForest

#: 0.1-1 KB outputs on dblp-50: protocol, dispatch and plan lookup are
#: most of a request.
SMALL_GUARDS = (
    "CAST MORPH (RESTRICT year [ ee ])",
    "CAST MORPH (RESTRICT year [ crossref ])",
    "CAST MORPH school [ year ]",
    "CAST MORPH (RESTRICT title [ crossref ])",
)

#: 100-150 KB outputs on dblp-400: render, XmlNode construction, xml()
#: and the socket write are most of a request.
LARGE_GUARDS = (
    "CAST MORPH author [ title [ year ] ]",
    "CAST MORPH dblp [ author [ title [ year [ pages ] url ] ] ]",
    "CAST MORPH author [ title year pages ]",
)

#: Figure 15's four xmark target shapes.
XMARK_GUARDS = (
    "CAST MORPH person [ name [ emailaddress [ phone ] ] ]",
    "CAST MORPH person [ name emailaddress phone ]",
    "CAST MORPH person [ name [ emailaddress [ phone [ street "
    "[ city [ country [ zipcode [ education [ gender [ age ] ] ] ] ] ] ] ] ] ]",
    "CAST MORPH person [ name emailaddress phone street city "
    "country zipcode education gender age ]",
)


@dataclass(frozen=True)
class Scale:
    """Corpus sizes and round lengths of one benchmark size.

    ``FULL`` is what ``BENCHMARK.json`` measures; ``SMOKE`` exists so the
    self-tests can drive every workload end to end in seconds.
    """

    serve_small_pubs: int
    serve_large_pubs: int
    serve_small_repeats: int  # requests per guard per round
    serve_large_repeats: int  # per guard per round, every 4th streamed
    cold_pubs: int
    cold_xmark: float
    cold_passes: int  # passes over the 11 guards per round
    ingest_pubs: int
    ingest_xmark: float
    ingest_docs: int  # per round; the last one is the xmark document
    scaling_pubs: tuple[int, int]
    update_pubs: int
    update_cycles: int  # per round, followed by one batched cycle
    shift_inserts: int
    min_rounds: int
    setup_repeats: int


FULL = Scale(
    serve_small_pubs=50,
    serve_large_pubs=400,
    serve_small_repeats=250,
    serve_large_repeats=28,
    cold_pubs=400,
    cold_xmark=0.002,
    cold_passes=2,
    ingest_pubs=50,
    ingest_xmark=0.0005,
    ingest_docs=6,
    scaling_pubs=(200, 800),
    update_pubs=200,
    update_cycles=4,
    shift_inserts=3,
    min_rounds=3,
    setup_repeats=3,
)

SMOKE = Scale(
    serve_small_pubs=30,
    serve_large_pubs=50,
    serve_small_repeats=10,
    serve_large_repeats=4,
    cold_pubs=50,
    cold_xmark=0.0005,
    cold_passes=1,
    ingest_pubs=10,
    ingest_xmark=0.0002,
    ingest_docs=3,
    scaling_pubs=(10, 40),
    update_pubs=50,
    update_cycles=2,
    shift_inserts=1,
    min_rounds=1,
    setup_repeats=1,
)


#: Seed of the documents' content; ``variant`` distinguishes documents.
CONTENT_SEED = 42
#: Sibling lists longer than this are shuffled by the run seed.
_LONG_LIST = 8


def shuffled(forest: XmlForest, seed: int, variant: int) -> XmlForest:
    """Shuffle every long list of element siblings, then renumber."""
    rng = random.Random(seed * 7919 + variant)
    for node in list(forest.iter_nodes()):
        children = node.children
        if len(children) > _LONG_LIST and all(child.is_element for child in children):
            rng.shuffle(children)
    return forest.renumber()


def dblp_forest(publications: int, seed: int, variant: int = 0) -> XmlForest:
    return shuffled(generate_dblp(publications, seed=CONTENT_SEED + variant), seed, variant)


def xmark_forest(factor: float, seed: int, variant: int = 0) -> XmlForest:
    return shuffled(generate_xmark(factor, seed=CONTENT_SEED + variant), seed, variant)


def reference_outputs(forest: XmlForest, guards) -> dict[str, str]:
    """``guard -> XML`` rendered by the reference interpreter."""
    interpreter = Interpreter(forest)
    return {guard: interpreter.transform(guard).xml() for guard in guards}
