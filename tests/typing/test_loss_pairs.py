"""The loss analysis compares only the pairs a guard can have changed.

Three properties, none of them a timing:

* *Counted*: ``typing.loss.pairs`` is the number of ordered pairs of
  one predicted tree holding a *changed* type — one whose predicted
  chain does not follow its source vertex's chain, or whose source
  vertex backs another target type too.  The count depends on the
  guard, not on the shape: one chain of four types costs the same on a
  27-type dblp shape and on XMark's 283-type shape, and ``MUTATE`` of
  the whole document compares no pair at all.
* *Hostile input*: n copies of one label compare a constant number of
  pairs (twins are compared once per group), so the guard budget's
  1,000 labels compile at once.
* *Parity*: two all-pairs oracles give the same report as
  ``analyze_loss`` for every guard the repository ships —
  ``pairwise_loss``, the loop ``analyze_loss`` replaced, and findings
  recomputed from two Table I matrices (``path_cardinality_table``).
"""

import hashlib
from pathlib import Path

import pytest

from perfbench.corpus import LARGE_GUARDS, SMALL_GUARDS, XMARK_GUARDS
from repro import obs
from repro.analysis.evolve import load_guards
from repro.engine.interpreter import Interpreter
from repro.lang.parser import MAX_TERMS
from repro.shape import Card, Shape
from repro.storage import Database
from repro.typing.loss import LossFinding, LossKind, LossReport, analyze_loss
from repro.workloads import generate_dblp, generate_xmark
from repro.xmltree import parse_document, parse_forest

from tests.corpus.cases import CASES
from tests.typing.oracle import pairwise_loss, path_cardinality_table

GUARD_DIR = Path(__file__).resolve().parents[2] / "examples" / "guards"


@pytest.fixture(scope="module")
def interpreters():
    """One interpreter per document, built (and indexed) at most once."""
    built: dict[str, Interpreter] = {}

    def get(key: str) -> Interpreter:
        if key not in built:
            if key == "dblp":
                forest = generate_dblp(50)
            elif key == "xmark":
                forest = generate_xmark(0.002)
            elif key == "books":
                forest = parse_document((GUARD_DIR / "books.xml").read_text())
            else:
                forest = parse_document(key)
            built[key] = Interpreter(forest)
        return built[key]

    return get


@pytest.fixture(scope="module")
def source_tables(interpreters):
    """Table I of each document's source shape, tabulated at most once."""
    built: dict[str, dict] = {}

    def get(key: str) -> dict:
        if key not in built:
            built[key] = path_cardinality_table(interpreters(key).index.shape)
        return built[key]

    return get


# -- counted ------------------------------------------------------------------


def changed_pairs(index, predicted) -> int:
    """Ordered pairs of one predicted tree holding a changed type, read
    off the definition: a type is unchanged when every type on its
    predicted chain is backed by a source vertex no other target type
    shares, and each predicted parent by the source parent of the
    vertex below it."""
    backed = [t for t in predicted.types() if t.source is not None]
    vertex = {t: index.shape_vertex(t.source) for t in backed}
    backing = [v for v in vertex.values() if v is not None]
    assert len(backing) == len(set(backing)), "no twins in the counted guards"

    def unchanged(t) -> bool:
        chain = [t, *predicted.ancestors(t)]
        return all(vertex.get(node) is not None for node in chain) and all(
            vertex[parent] is index.shape.parent(vertex[child])
            for child, parent in zip(chain, chain[1:])
        )

    return sum(
        1
        for first in backed
        for second in backed
        if first is not second
        and vertex[first] is not None
        and vertex[second] is not None
        and predicted.root_of(first) is predicted.root_of(second)
        and not (unchanged(first) and unchanged(second))
    )


def counted_compile(interpreter, guard) -> tuple[int, int, int]:
    """Compile ``guard``: (pairs counted, changed pairs, backed types).

    A CAST guard's report is built on its first read, so it is read
    inside the tracer too."""
    with obs.tracing() as tracer:
        compiled = interpreter.compile(guard)
        compiled.loss  # noqa: B018 - build the report inside the tracer
    predicted = compiled.target_shape  # compile() left Definition 7 on it
    backed = [t for t in predicted.types() if t.source is not None]
    return (
        tracer.metrics.counter("typing.loss.pairs"),
        changed_pairs(interpreter.index, predicted),
        len(backed),
    )


def test_pairs_counter_equals_the_changed_pairs(interpreters):
    """The counter is the changed-pair count; unchanged pairs cost nothing."""
    for key, guard, expected in (
        ("xmark", "CAST MORPH person [ name emailaddress phone ]", 0),
        ("xmark", "CAST MORPH person [ name [ emailaddress [ phone ] ] ]", 10),
        ("dblp", "CAST MORPH dblp [ author [ title [ year ] ] ]", 90),
        ("books", "MUTATE data", 0),
    ):
        pairs, changed, k = counted_compile(interpreters(key), guard)
        assert pairs == changed == expected, (key, guard)
        assert pairs <= k * (k - 1)


def test_pairs_evaluated_depend_on_the_guard_not_the_shape(interpreters):
    dblp, xmark = interpreters("dblp"), interpreters("xmark")
    assert len(dblp.index.shape.types()) == 27
    assert len(xmark.index.shape.types()) == 283

    # One chain of four types, the lower two moved off their source chain.
    on_xmark, changed, k = counted_compile(
        xmark, "CAST MORPH person [ name [ emailaddress [ phone ] ] ]"
    )
    on_dblp, changed_dblp, k_dblp = counted_compile(
        dblp, "CAST MORPH phdthesis [ author [ title [ school ] ] ]"
    )
    assert k == k_dblp == 4
    assert on_xmark == changed and on_dblp == changed_dblp
    assert on_dblp == on_xmark == 10
    # The whole document, unmoved, compares nothing on either shape.
    assert counted_compile(xmark, "MUTATE site")[0] == 0
    assert counted_compile(dblp, "MUTATE dblp")[0] == 0


TWO_NODES = "<r><a>1</a></r>"


@pytest.mark.parametrize("count", [10, 400, MAX_TERMS - 1])
def test_repeated_labels_compare_a_constant_number_of_pairs(count):
    """``MORPH r [ a a ... a ]``: the copies of ``a`` are twins, compared
    as one group — ``r``→``a``, ``a``→``r`` and ``a``→``a`` — however
    many there are."""
    guard = "MORPH r [ " + "a " * count + "]"
    interpreter = Interpreter(parse_forest(TWO_NODES))
    with obs.tracing() as tracer:
        compiled = interpreter.compile(guard)
    assert len(compiled.target_shape.types()) == count + 1
    assert tracer.metrics.counter("typing.loss.pairs") == 3
    if count == 10:
        index = interpreter.index
        assert compiled.loss == pairwise_loss(
            index.shape, compiled.target_shape, index.shape_vertex
        )


# -- parity with the Table I oracle --------------------------------------------


GUARDS = [
    *[pytest.param(case.document, case.guard, id=f"corpus-{case.name}") for case in CASES],
    *[
        pytest.param("books", spec.guard, id=f"example-{spec.name}")
        for spec in load_guards(str(GUARD_DIR))
    ],
    *[pytest.param("dblp", guard, id=f"small-{i}") for i, guard in enumerate(SMALL_GUARDS)],
    *[pytest.param("dblp", guard, id=f"large-{i}") for i, guard in enumerate(LARGE_GUARDS)],
    *[pytest.param("xmark", guard, id=f"xmark-{i}") for i, guard in enumerate(XMARK_GUARDS)],
]


def oracle_report(index, source_table, predicted) -> LossReport:
    """The loss report read off two all-pairs Table I matrices."""
    predicted_table = path_cardinality_table(predicted)
    unrelated = Card(0, 0)

    report = LossReport()
    backed = [t for t in predicted.types() if t.source is not None]
    report.synthesized_types = [t.out_name for t in predicted.types() if t.source is None]
    used = {t.source for t in backed}
    report.omitted_types = sorted(
        v.source.dotted for v in index.shape.types() if v.source not in used
    )
    seen = set()
    for first in backed:
        for second in backed:
            s_first = index.shape_vertex(first.source)
            s_second = index.shape_vertex(second.source)
            if first is second or s_first is None or s_second is None:
                continue
            source_card = source_table.get((s_first, s_second), unrelated)
            predicted_card = predicted_table.get((first, second), unrelated)
            names = (s_first.source.dotted, s_second.source.dotted)
            verdicts = {
                LossKind.LOST: source_card.lo == 0 and predicted_card.lo > 0,
                LossKind.ADDED: source_card.hi is not None
                and (predicted_card.hi is None or predicted_card.hi > source_card.hi),
            }
            for kind, violated in verdicts.items():
                if violated and (kind, frozenset(names)) not in seen:
                    seen.add((kind, frozenset(names)))
                    report.findings.append(
                        LossFinding(
                            kind, *names, source_card, predicted_card,
                            first.accept_loss or second.accept_loss,
                        )
                    )
    return report


@pytest.mark.parametrize("document, guard", GUARDS)
def test_report_equals_table1_oracle(interpreters, source_tables, document, guard):
    interpreter = interpreters(document)
    compiled = interpreter.compile(guard)
    # compile() left the predicted adornment (Definition 7) on the target.
    oracle = oracle_report(
        interpreter.index, source_tables(document), compiled.target_shape
    )
    report = compiled.loss
    assert report.findings == oracle.findings  # kind, names, cards, accepted, order
    assert report.guard_type is oracle.guard_type
    assert report.omitted_types == oracle.omitted_types
    assert report.synthesized_types == oracle.synthesized_types


def test_parity_covers_lossy_guards(interpreters):
    """The guard set is not vacuous: some reports carry findings of each kind."""
    kinds = set()
    for param in GUARDS:
        document, guard = param.values
        kinds.update(f.kind for f in interpreters(document).compile(guard).loss.findings)
    assert kinds == {LossKind.LOST, LossKind.ADDED}


# -- parity with the pairwise oracle -------------------------------------------


@pytest.mark.parametrize("document, guard", GUARDS)
def test_report_equals_pairwise_oracle(interpreters, document, guard):
    interpreter = interpreters(document)
    compiled = interpreter.compile(guard)
    index = interpreter.index
    oracle = pairwise_loss(index.shape, compiled.target_shape, index.shape_vertex)
    assert compiled.loss == oracle  # findings in order, omitted, synthesized


def test_stored_report_equals_pairwise_oracle(tmp_path):
    """The same through a stored document's index (``shape_vertex`` by type id)."""
    documents = {case.document: f"doc{i}" for i, case in enumerate(CASES)}
    with Database(str(tmp_path / "corpus.db"), durable=False) as db:
        for text, name in documents.items():
            db.store_document(name, text)
        for case in CASES:
            index = db.index(documents[case.document])
            compiled = Interpreter(index).compile(case.guard)
            oracle = pairwise_loss(index.shape, compiled.target_shape, index.shape_vertex)
            assert compiled.loss == oracle, case.name


# -- pinned reports ---------------------------------------------------------------


class TestPinnedReports:
    """Every shipped example guard and cold-scan guard reports what it
    reported when the source shape was built whole at every open: the
    findings, ``omitted_types`` in order and ``synthesized_types``, on
    an in-memory and a stored index.  A stored index reads the omitted
    types off its type paths and makes no vertex for them."""

    PINNED = {
        "books": (
            lambda: parse_document((GUARD_DIR / "books.xml").read_text()),
            lambda: [spec.guard for spec in load_guards(str(GUARD_DIR))],
            "ad7161abb34037522da3bf91022c8d006582f493697a569cebc98f11e5bb7eb2",
        ),
        "dblp-400": (
            lambda: generate_dblp(400),
            lambda: [*SMALL_GUARDS, *LARGE_GUARDS],
            "0d307dc7c69bb74ddeffd4edf4dcf819c927de045e2e4a5b7a6851b0ad68adfa",
        ),
        "xmark-0.002": (
            lambda: generate_xmark(0.002),
            lambda: list(XMARK_GUARDS),
            "d5aa3f4c9e4daad9c4fe1827359647cefa20a9af4f6cd02c50ae96df48bfabbb",
        ),
    }

    @staticmethod
    def digest(reports) -> str:
        digest = hashlib.sha256()
        for report in reports:
            line = repr(
                ([str(f) for f in report.findings], report.omitted_types, report.synthesized_types)
            )
            digest.update(line.encode() + b"\n")
        return digest.hexdigest()

    @pytest.mark.parametrize("document", sorted(PINNED))
    def test_reports_are_pinned_on_both_indexes(self, tmp_path, document):
        make, guards, pinned = self.PINNED[document]
        forest, guards = make(), guards()
        memory = Interpreter(forest)
        assert self.digest(memory.check(guard) for guard in guards) == pinned
        with Database(str(tmp_path / "l.db"), durable=False) as db:
            db.store_document(document, forest)
            db.drop_cache()
            stored = Interpreter(db.index(document))
            assert self.digest(stored.check(guard) for guard in guards) == pinned
        # A caller handing analyze_loss a plain Shape gets the same report.
        index = memory.index
        plain = index.shape.copy()
        assert type(plain) is Shape
        for guard in guards[:2]:
            compiled = memory.compile(guard)
            assert analyze_loss(plain, compiled.target_shape, index.shape_vertex) == compiled.loss


def test_a_cold_transform_joins_no_omitted_path(tmp_path, monkeypatch):
    """``omitted_types`` spells every source type the guard leaves out;
    only reports and diagnostics read it, so a transform that is only
    rendered joins none of those paths, and the first read joins them
    once."""
    from repro.typing import loss

    calls = []
    omitted_paths = loss._omitted_paths
    monkeypatch.setattr(
        loss, "_omitted_paths", lambda *args: calls.append(args) or omitted_paths(*args)
    )
    with Database(str(tmp_path / "l.db"), durable=False) as db:
        db.store_document("xmark", generate_xmark(0.002))
        db.drop_cache()
        result = db.transform("xmark", XMARK_GUARDS[0])
        assert result.xml()
        assert calls == []
        omitted = result.loss.omitted_types
        assert len(calls) == 1
        assert result.loss.omitted_types is omitted
        assert omitted == sorted(omitted) and len(omitted) > 200
