"""Table I: path cardinality for every pair of types (bibliography shape).

Regenerates the paper's Table I matrix over the normalized bibliography
instance (Figure 1(c)), and on a realistic shape size (XMark's hundreds
of types) counts what a guard compile pays — Definition 6 for the pairs
of the guard's types that involve a moved type — next to the all-pairs
matrix over the same shape (``path_cardinality_table``, which lives
with the tests' oracles: nothing in ``src/`` enumerates type pairs).
"""

from repro import obs
from repro.shape import extract_shape
from repro.workloads import generate_xmark
from repro.xmltree import parse_document

from benchmarks.conftest import register_table
from benchmarks.reporting import SeriesTable
from tests.typing import oracle
from tests.typing.oracle import path_cardinality_table

BIBLIO = """
<data>
  <author>
    <name>A</name>
    <book><title>X</title><publisher><name>W</name></publisher></book>
    <book><title>Y</title><publisher><name>V</name></publisher></book>
  </author>
</data>
"""


def short(shape_type) -> str:
    return shape_type.source.dotted.replace("data.", "") or "data"


def test_table1_matrix(benchmark):
    shape = extract_shape(parse_document(BIBLIO))
    table = benchmark.pedantic(
        lambda: path_cardinality_table(shape), rounds=5, iterations=1
    )

    types = shape.types()
    report = register_table(
        "table1_pathcard",
        SeriesTable(
            "Table I: path cardinality, shape of Fig. 1(c)",
            "from \\ to",
            [short(t) for t in types],
        ),
    )
    if not report.rows:
        for source in types:
            report.add_row(
                short(source),
                *[str(table.get((source, target), "-")) for target in types],
            )
        report.note("author groups two books: every path through author.book is 2..2")

    # Ground truth spot-checks straight from the paper's discussion.
    by_name = {short(t): t for t in types}
    assert str(table[(by_name["author"], by_name["author.book"])]) == "2..2"
    assert str(table[(by_name["author.book.title"], by_name["author.book.publisher"])]) == "1..1"
    assert str(table[(by_name["author.book.title"], by_name["data"])]) == "1..1"


XMARK_GUARD = (
    "CAST MORPH person [ name emailaddress phone street city "
    "country zipcode education gender age ]"
)


#: Ordered pairs of the guard's 11 types that hold a moved type.
#: ``person`` and its direct children ``name``, ``emailaddress`` and
#: ``phone`` stay on their source chain, so the 12 pairs among them are
#: not compared; the address and profile fields move up one level.
XMARK_GUARD_PAIRS = 98


def test_allpairs_cost_on_xmark_shape(benchmark, monkeypatch):
    """Compile compares 98 of the guard's k·(k−1) = 110 pairs; Table I all T²."""
    from repro.closeness import DocumentIndex
    from repro.engine.interpreter import Interpreter

    index = DocumentIndex(generate_xmark(0.003))
    interpreter = Interpreter(index)

    def analyzed():
        # A CAST guard's loss report is built on its first read.
        compiled = interpreter.compile(XMARK_GUARD)
        compiled.loss  # noqa: B018
        return compiled

    compiled = benchmark.pedantic(analyzed, rounds=5, iterations=1)
    k = len(compiled.target_shape.types())
    assert k == 11
    with obs.tracing() as tracer:
        analyzed()
    assert tracer.metrics.counter("typing.loss.pairs") == XMARK_GUARD_PAIRS < k * (k - 1)

    evaluations = []
    real = oracle.path_cardinality

    def counting(shape, source, target):
        evaluations.append((source, target))
        return real(shape, source, target)

    monkeypatch.setattr(oracle, "path_cardinality", counting)
    shape = index.shape
    table = path_cardinality_table(shape)
    types = len(shape.types())
    assert len(table) == len(evaluations) == types**2
