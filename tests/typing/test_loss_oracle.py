"""``analyze_loss`` gives the report of the all-pairs loop it replaced.

``tests/typing/oracle.py::pairwise_loss`` compares every ordered pair of
the target's backed types; ``analyze_loss`` skips the pairs that cannot
change the report (different trees, two unchanged types, repeated
twins).  On random sources and random guards — nested, forests,
repeated labels, ``!``, ``NEW``, ``CLONE`` and ``TYPE-FILL`` — the two
reports are equal: the same findings in the same order and orientation,
with the same cards and ``accepted`` marks, and the same omitted and
synthesized types.  ``xmorph evolve``, which runs the analysis on both
shapes of every guard, prints the same on ``examples/evolutions``
through either.

``tests/typing/oracle_cases.py`` runs the property with more examples
(not collected by the tier-1 run).
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.build import build_operator
from repro.algebra.context import DocumentShapeContext
from repro.algebra.semantics import Evaluator
from repro.cli import main
from repro.closeness import DocumentIndex
from repro.errors import XMorphError
from repro.lang.parser import parse_guard
from repro.typing.loss import analyze_loss
from repro.xmltree import parse_forest

from tests.strategies import documents, guards, xml_forests
from tests.typing.oracle import pairwise_loss

EVOLUTIONS = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "evolutions").glob("*/")
)

#: Single-rooted documents and source forests (pairs across source trees).
SOURCES = st.one_of(
    documents(max_depth=3, max_children=3, attributes=True),
    xml_forests(max_roots=2, max_depth=3, max_children=2),
)


#: The oracle compares every ordered pair of the target's types, so its
#: cost is quadratic in them: a random guard's target (ambiguous labels
#: under ``NEW``, ``CLONE`` and repeated terms multiply) can reach 1,000
#: types and cost it tens of seconds.  Larger targets are not compared.
MAX_TARGET_TYPES = 150


def assert_same_report(forest, guard: str) -> None:
    """Evaluate ``guard`` on ``forest``'s shape and compare the two
    analyses of the one target shape; guards that do not fit the
    document, and targets past :data:`MAX_TARGET_TYPES`, are skipped."""
    index = DocumentIndex(forest)
    try:
        operator, enforcement = build_operator(parse_guard(guard))
        evaluation = Evaluator(type_fill=enforcement.type_fill).run(
            operator, DocumentShapeContext(index)
        )
    except XMorphError:
        return
    if len(evaluation.shape) > MAX_TARGET_TYPES:
        return
    report = analyze_loss(index.shape, evaluation.shape, index.shape_vertex)
    oracle = pairwise_loss(index.shape, evaluation.shape, index.shape_vertex)
    assert report == oracle, guard


#: Twins that are not leaves (a copy of ``a`` above ``b`` and one beside
#: it) are not interchangeable; twins with and without ``!`` are.
PAIRED = parse_forest("<r><a><b>1</b></a><a><b>2</b></a></r>")
APART = parse_forest("<r><p><a>1</a></p><p><c>2</c></p></r>")


@settings(max_examples=80, deadline=None)
@given(SOURCES, guards())
@example(PAIRED, "CAST (MORPH r [ a [ b ] a ])")
@example(PAIRED, "CAST (MORPH r [ a a [ b ] a ])")
@example(PAIRED, "CAST (MORPH r [ a [ b ] a [ b ] ])")
@example(APART, "CAST (MORPH c [ a !a a ] a)")
@example(APART, "CAST (MORPH c [ !a a !a ])")
def test_same_report_as_the_pairwise_loop(forest, guard):
    assert_same_report(forest, guard)


@pytest.mark.parametrize("scenario", EVOLUTIONS, ids=lambda path: path.name)
@pytest.mark.parametrize("output", ["--format=text", "--format=json"])
def test_evolve_prints_the_same_through_the_oracle(scenario, output, capsys, monkeypatch):
    arguments = [
        "evolve",
        str(scenario / "old.xml"),
        str(scenario / "new.xml"),
        "--guards",
        str(scenario / "guards"),
        output,
    ]
    status = main(arguments)
    printed = capsys.readouterr().out
    monkeypatch.setattr("repro.analysis.checker.analyze_loss", pairwise_loss)
    assert main(arguments) == status
    assert capsys.readouterr().out == printed
