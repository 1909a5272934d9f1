"""The loss analysis evaluates Definition 6 on demand, pair by pair.

Two properties, neither of them a timing:

* *Counted*: compiling a guard whose target has ``k`` source-backed
  types asks ``path_cardinality`` for at most ``2·k·(k−1)`` pairs
  (source side and predicted side of every ordered pair) — the same
  number on a 27-type dblp shape and on XMark's 283-type shape — and
  the ``typing.loss.pairs`` counter reports the ordered pairs.
* *Parity*: Table I (``path_cardinality_table``, the all-pairs matrix)
  is the oracle; findings recomputed from it equal ``analyze_loss``'s
  report for every guard the repository ships.
"""

from pathlib import Path

import pytest

from perfbench.corpus import LARGE_GUARDS, SMALL_GUARDS, XMARK_GUARDS
from repro import obs
from repro.analysis.evolve import load_guards
from repro.engine.interpreter import Interpreter
from repro.shape import Card, path_cardinality_table
from repro.typing import loss
from repro.typing.loss import LossFinding, LossKind, LossReport
from repro.workloads import generate_dblp, generate_xmark
from repro.xmltree import parse_document

from tests.corpus.cases import CASES

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


def counted_compile(monkeypatch, interpreter, guard):
    """Compile ``guard``; returns (pairs evaluated, backed type count)."""
    calls = []
    real = loss.path_cardinality

    def counting(shape, source, target):
        calls.append((source, target))
        return real(shape, source, target)

    monkeypatch.setattr(loss, "path_cardinality", counting)
    result = interpreter.compile(guard)
    backed = [t for t in result.target_shape.types() if t.source is not None]
    return len(calls), len(backed)


def test_pairs_counter_equals_the_wrapped_calls(monkeypatch, interpreters):
    """Each counted pair is one source-side and one predicted-side call."""
    for key, guard in (
        ("xmark", "CAST MORPH person [ name emailaddress phone ]"),
        ("dblp", "CAST MORPH dblp [ author [ title [ year ] ] ]"),
        ("books", "MUTATE data"),
    ):
        with obs.tracing() as tracer:
            calls, k = counted_compile(monkeypatch, interpreters(key), guard)
        pairs = tracer.metrics.counter("typing.loss.pairs")
        assert calls == 2 * pairs
        assert pairs == k * (k - 1) > 0, key


def test_pairs_evaluated_depend_on_the_guard_not_the_shape(monkeypatch, interpreters):
    dblp, xmark = interpreters("dblp"), interpreters("xmark")
    assert len(dblp.index.shape.types()) == 27
    assert len(xmark.index.shape.types()) == 283

    on_xmark, k = counted_compile(
        monkeypatch, xmark, "CAST MORPH person [ name emailaddress phone ]"
    )
    on_dblp, k_dblp = counted_compile(
        monkeypatch, dblp, "CAST MORPH phdthesis [ author title school ]"
    )
    assert k == k_dblp == 4
    assert 0 < on_xmark <= 2 * k * (k - 1)
    assert on_dblp == on_xmark


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
