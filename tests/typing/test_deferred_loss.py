"""A CAST guard's loss report is built when it is first read.

``enforce`` cannot fail for a guard that permits both narrowing and
widening, so ``Interpreter.compile`` compares no pair for it: the
report is built on the first read of ``TransformResult.loss``, once for
the plan and every planned copy, and equals the all-pairs oracle's.
The target shape's predicted cards (Definition 7) are set by the
compile all the same.  Every guard whose enforcement can fail, and
``Interpreter.check``, still build the report at once.
"""

import threading
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.engine import interpreter as interpreter_module
from repro.engine.interpreter import Interpreter
from repro.engine.profile import profile
from repro.engine.report import full_report
from repro.errors import GuardTypeError
from repro.storage import Database
from repro.workloads import generate_dblp

from tests.typing.oracle import pairwise_loss

#: Widening on dblp-50: the three author types fan out under ``dblp``.
WIDENING = "MORPH dblp [ author [ title [ year ] ] ]"
BOOKS = (
    "<data><author><name>A</name><book><title>T</title>"
    "<publisher><name>P</name></publisher></book></author></data>"
)


@pytest.fixture(scope="module")
def dblp():
    return Interpreter(generate_dblp(50))


@pytest.fixture
def comparisons(monkeypatch):
    """Each pair comparison the interpreter starts."""
    calls = []
    real = interpreter_module.compare_pairs

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(interpreter_module, "compare_pairs", counted)
    return calls


def cards(shape) -> list[tuple[str, str, str]]:
    return [
        (edge.parent.out_name, edge.child.out_name, str(shape.card(edge.parent, edge.child)))
        for edge in shape.edges()
    ]


class TestCastCompile:
    def test_compile_compares_no_pair(self, dblp, comparisons):
        with obs.tracing() as tracer:
            compiled = dblp.compile(f"CAST {WIDENING}")
        assert comparisons == []
        assert tracer.find("typing.loss") is None
        assert tracer.metrics.counter("typing.loss.pairs") == 0
        with obs.tracing() as tracer:
            report = compiled.loss
        assert len(comparisons) == 1
        assert tracer.find("typing.loss") is not None
        assert tracer.metrics.counter("typing.loss.pairs") > 0
        index = dblp.index
        assert report == pairwise_loss(index.shape, compiled.target_shape, index.shape_vertex)
        assert str(report.guard_type) == "widening"

    def test_cards_are_set_by_the_compile(self, dblp, comparisons):
        compiled = dblp.compile(f"CAST {WIDENING}")
        assert comparisons == []
        eager = dblp.compile(f"CAST-WIDENING ({WIDENING})")
        assert len(comparisons) == 1
        assert cards(compiled.target_shape) == cards(eager.target_shape)
        assert ("dblp", "author", "1..1") not in cards(compiled.target_shape)
        assert compiled.loss == eager.loss

    def test_built_once_across_copies_and_threads(self, dblp, comparisons):
        compiled = dblp.compile(f"CAST {WIDENING}")
        copies = [compiled.planned(dblp.index) for _ in range(8)]
        barrier = threading.Barrier(len(copies))
        reports = [None] * len(copies)

        def read(slot):
            barrier.wait()
            reports[slot] = copies[slot].loss

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(len(copies))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(comparisons) == 1
        assert all(report is compiled.loss for report in reports)

    def test_a_cached_plan_builds_once(self, tmp_path, comparisons):
        with Database(str(tmp_path / "b.db"), durable=False) as db:
            db.store_document("books", BOOKS)
            guard = "CAST (MORPH author [ title name publisher [ name ] ])"
            first, second = db.transform("books", guard), db.transform("books", guard)
            assert comparisons == []
            assert first.loss is second.loss
            assert len(comparisons) == 1


class TestEagerEnforcement:
    def test_narrowing_cast_over_a_widening_guard_raises(self, dblp, comparisons):
        with pytest.raises(GuardTypeError):
            dblp.compile(f"CAST-NARROWING ({WIDENING})")
        assert len(comparisons) == 1

    def test_a_lossy_guard_without_cast_raises(self, dblp):
        with pytest.raises(GuardTypeError):
            dblp.compile(WIDENING)
        books = Path(__file__).resolve().parents[2] / "examples" / "guards" / "books.xml"
        forest = repro.parse_forest(books.read_text(encoding="utf-8"))
        with pytest.raises(GuardTypeError):
            Interpreter(forest).compile("MORPH author [ title name publisher [ name ] ]")

    def test_check_builds_the_report(self, dblp, comparisons):
        report = dblp.check(f"CAST {WIDENING}")
        assert len(comparisons) == 1
        assert str(report.guard_type) == "widening"


def test_explain_analyze_times_the_report():
    forest = repro.parse_forest(BOOKS)
    guard = "CAST (MORPH author [ title name publisher [ name ] ])"
    report = profile(lambda: repro.transform(forest, guard))
    assert report.span_duration("typing.loss") is not None
    assert "typing.loss  " in report.pretty()
    assert report.tracer.metrics.counter("typing.loss.pairs") > 0
    assert "information loss\n----------------\nguard type:" in full_report(report.result)
