"""Tests for the guard parser, including every guard printed in the paper."""

import gc
import time
from contextlib import contextmanager

import pytest

from repro.analysis import analyze
from repro.cli import main
from repro.engine.interpreter import Interpreter
from repro.errors import GuardSyntaxError
from repro.lang import parse_guard, CastMode
from repro.lang.parser import MAX_NESTING, MAX_TERMS
from repro.storage import Database
from repro.xmltree.parser import parse_forest
from repro.lang.ast import (
    Cast,
    Clone,
    Compose,
    Drop,
    Group,
    Label,
    Morph,
    Mutate,
    New,
    Restrict,
    Term,
    Translate,
    TypeFill,
)


class TestPaperGuards:
    """Each guard that appears verbatim in the paper must parse."""

    PAPER_GUARDS = [
        "MORPH author [ name book [ title ] ]",
        "MORPH author [ !title name publisher [ name ] ]",
        "MORPH data [author [* book [** publisher [*]]]]",
        "MUTATE book [ publisher [ name ] ]",
        "MORPH author [name] | MUTATE (DROP name)",
        "CAST-WIDENING (TYPE-FILL MUTATE author [ title ])",
        "MUTATE name [ author ]",
        "MUTATE data [ name author ]",
        "MUTATE (DROP title [ book ])",
        "MUTATE author [ CLONE title ]",
        "MUTATE (NEW scribe) [ author ]",
        "MORPH (RESTRICT name [ author ]) [ title ]",
        "MORPH author [ name ] | TRANSLATE author -> writer",
        "MUTATE site",
        "MORPH author",
        "MORPH author [title [year]]",
        "MORPH dblp [author [title [year [pages] url]]]",
    ]

    @pytest.mark.parametrize("source", PAPER_GUARDS)
    def test_parses(self, source):
        parse_guard(source)

    @pytest.mark.parametrize("source", PAPER_GUARDS)
    def test_print_parse_roundtrip(self, source):
        first = parse_guard(source)
        again = parse_guard(str(first))
        assert again == first


class TestStructure:
    def test_simple_morph(self):
        guard = parse_guard("MORPH author [ name ]")
        assert isinstance(guard, Morph)
        (term,) = guard.pattern.terms
        assert term.head == Label("author")
        assert term.children == (Term(Label("name")),)

    def test_bang_label(self):
        guard = parse_guard("MORPH author [ !title ]")
        child = guard.pattern.terms[0].children[0]
        assert child.head == Label("title", bang=True)

    def test_star_abbreviations(self):
        guard = parse_guard("MORPH author [* book [**]]")
        author = guard.pattern.terms[0]
        assert author.star_children and not author.star_descendants
        book = author.children[0]
        assert book.star_descendants and not book.star_children

    def test_keyword_forms_match_stars(self):
        assert parse_guard("MORPH CHILDREN author") == parse_guard("MORPH author [*]")
        assert parse_guard("MORPH DESCENDANTS book") == parse_guard("MORPH book [**]")

    def test_star_with_children(self):
        guard = parse_guard("MORPH data [author [* book]]")
        author = guard.pattern.terms[0].children[0]
        assert author.star_children
        assert author.children[0].head == Label("book")

    def test_juxtaposition_equals_brackets(self):
        # `a [ b c ]` and `a b c` are the same juxtaposition construct.
        bracketed = parse_guard("MORPH a [ b c ]")
        flat = parse_guard("MORPH a b c")
        b_terms = bracketed.pattern.terms[0]
        assert b_terms.children == flat.pattern.terms[1:]

    def test_drop(self):
        # Parentheses are grouping only; the head is the DROP itself.
        guard = parse_guard("MUTATE (DROP name)")
        head = guard.pattern.terms[0].head
        assert isinstance(head, Drop)
        assert head.term.head == Label("name")

    def test_clone(self):
        guard = parse_guard("MUTATE author [ CLONE title ]")
        clone_term = guard.pattern.terms[0].children[0]
        assert isinstance(clone_term.head, Clone)

    def test_new_with_bracket(self):
        guard = parse_guard("MUTATE (NEW scribe) [ author ]")
        term = guard.pattern.terms[0]
        assert term.head == New("scribe")
        assert term.children[0].head == Label("author")

    def test_restrict(self):
        guard = parse_guard("MORPH (RESTRICT name [ author ]) [ title ]")
        term = guard.pattern.terms[0]
        restrict = term.head
        assert isinstance(restrict, Restrict)
        assert restrict.term.head == Label("name")
        assert restrict.term.children[0].head == Label("author")
        assert term.children[0].head == Label("title")

    def test_translate(self):
        guard = parse_guard("TRANSLATE author -> writer, name -> label")
        assert guard == Translate((("author", "writer"), ("name", "label")))

    def test_compose_pipe(self):
        guard = parse_guard("MORPH a | MUTATE b | TRANSLATE x -> y")
        assert isinstance(guard, Compose)
        assert len(guard.parts) == 3

    def test_compose_keyword(self):
        keyword = parse_guard("COMPOSE MORPH a, MUTATE b")
        piped = parse_guard("MORPH a | MUTATE b")
        assert keyword == piped

    def test_compose_then_translate_comma_disambiguation(self):
        guard = parse_guard("COMPOSE TRANSLATE a -> b, MORPH x")
        assert isinstance(guard, Compose)
        assert isinstance(guard.parts[0], Translate)
        assert isinstance(guard.parts[1], Morph)

    def test_cast_modes(self):
        assert parse_guard("CAST MORPH a").mode is CastMode.ANY
        assert parse_guard("CAST-NARROWING MORPH a").mode is CastMode.NARROWING
        assert parse_guard("CAST-WIDENING MORPH a").mode is CastMode.WIDENING

    def test_nested_wrappers(self):
        guard = parse_guard("CAST-WIDENING (TYPE-FILL MUTATE author [ title ])")
        assert isinstance(guard, Cast)
        assert isinstance(guard.guard, TypeFill)
        assert isinstance(guard.guard.guard, Mutate)

    def test_parenthesized_guard(self):
        guard = parse_guard("(MORPH a | MUTATE b)")
        assert isinstance(guard, Compose)

    def test_dotted_labels(self):
        guard = parse_guard("MORPH book.author [ name ]")
        assert guard.pattern.terms[0].head == Label("book.author")

    def test_case_insensitive(self):
        assert parse_guard("morph Author [ NAME ]") == parse_guard(
            "MORPH Author [ NAME ]"
        )


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "",  # nothing
            "MORPH",  # missing pattern
            "MORPH author [",  # unterminated bracket
            "MORPH author ]",  # stray bracket
            "author [ name ]",  # missing operator keyword
            "TRANSLATE author",  # missing arrow
            "TRANSLATE author ->",  # missing target
            "COMPOSE MORPH a",  # single-part COMPOSE
            "MORPH a | ",  # dangling pipe
            "MORPH (a",  # unbalanced paren
            "NEW x",  # term at guard level
        ],
    )
    def test_rejects(self, source):
        with pytest.raises(GuardSyntaxError):
            parse_guard(source)


def _brackets(depth: int) -> str:
    """A MORPH nesting ``depth`` levels: the guard, then one term per level."""
    opens = depth - 2
    return "MORPH " + "".join("ab"[i % 2] + " [ " for i in range(opens)) + "a" + " ]" * opens


#: Each form of nesting, as guard text ``depth`` levels deep.
NESTINGS = {
    "brackets": _brackets,
    "parentheses": lambda depth: "(" * (depth - 3) + "MORPH a [ b ]" + ")" * (depth - 3),
    "casts": lambda depth: "CAST " * (depth - 3) + "MORPH a [ b ]",
    "drops": lambda depth: "MORPH r [ " + "DROP " * (depth - 3) + "a ]",
}

DOCUMENT = "<r>" + "<a><b>x</b></a>" * 3 + "</r>"


def _assert_refused_at_the_budget(error: GuardSyntaxError, guard: str) -> None:
    """Located at the token that opened one level too many, which the
    analyzer reports as ``XM102`` at the same place."""
    assert f"deeper than {MAX_NESTING} levels" in str(error)
    assert error.line == 1 and error.column == error.span.start + 1 > 1
    (diagnostic,) = analyze(DOCUMENT, guard).errors
    assert diagnostic.code == "XM102"
    assert diagnostic.span == error.span


@pytest.mark.parametrize("form", sorted(NESTINGS))
class TestNestingBudget:
    """Guard text nests at most ``MAX_NESTING`` levels; past that every
    entry point raises a located ``GuardSyntaxError`` (``XM102``), never
    a ``RecursionError``."""

    def test_the_budget_itself_parses_and_runs(self, form):
        guard = NESTINGS[form](MAX_NESTING)
        parse_guard(guard)
        Interpreter(parse_forest(DOCUMENT)).transform(guard)

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 500])
    def test_parser_refuses_deeper(self, form, depth):
        guard = NESTINGS[form](depth)
        with pytest.raises(GuardSyntaxError) as excinfo:
            parse_guard(guard)
        _assert_refused_at_the_budget(excinfo.value, guard)

    def test_interpreter_transform_refuses(self, form):
        guard = NESTINGS[form](500)
        with pytest.raises(GuardSyntaxError) as excinfo:
            Interpreter(parse_forest(DOCUMENT)).transform(guard)
        _assert_refused_at_the_budget(excinfo.value, guard)

    def test_database_transform_refuses(self, form, tmp_path):
        guard = NESTINGS[form](500)
        with Database(str(tmp_path / "deep.db"), durable=False) as db:
            db.store_document("d", DOCUMENT)
            with pytest.raises(GuardSyntaxError) as excinfo:
                db.transform("d", guard)
            _assert_refused_at_the_budget(excinfo.value, guard)
            # The refusal leaves the handle serving.
            assert db.transform("d", "MORPH a [ b ]").xml()


def _labels(count: int) -> str:
    """A MORPH holding ``count`` labels: ``r`` and ``count - 1`` copies of ``a``."""
    return "MORPH r [ " + "a " * (count - 1) + "]"


#: Where the first label past the budget starts in ``_labels(n)``, n > budget.
_PAST_THE_BUDGET = len("MORPH r [ ") + 2 * (MAX_TERMS - 1)

TWO_NODES = "<r><a>x</a></r>"


def _assert_refused_at_the_label_budget(error: GuardSyntaxError, guard: str) -> None:
    """Located at the first label past the budget, which the analyzer
    reports as ``XM102`` at the same place."""
    assert f"more than {MAX_TERMS} labels" in str(error)
    assert error.span.start == _PAST_THE_BUDGET
    assert error.line == 1 and error.column == _PAST_THE_BUDGET + 1
    (diagnostic,) = analyze(TWO_NODES, guard).errors
    assert diagnostic.code == "XM102"
    assert diagnostic.span == error.span


@contextmanager
def _collector_paused():
    """The cyclic collector off around a timed call, as ``timeit`` times
    one: a refusal takes 11-20 ms, and one gen-2 collection over a
    full-suite heap (~4M live objects) landing inside it took ~100 ms
    more."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TestTermBudget:
    """A guard holds at most ``MAX_TERMS`` labels; past that every entry
    point refuses it, located and fast, before the loss analysis (which
    compares every pair of the guard's types) runs."""

    def test_the_budget_itself_parses(self):
        guard = parse_guard(_labels(MAX_TERMS))
        (term,) = guard.pattern.terms
        assert len(term.children) == MAX_TERMS - 1

    def test_the_budget_itself_runs_everywhere(self, tmp_path):
        # MAX_TERMS labels that compile at once: renamings need no
        # pairwise typing, where MAX_TERMS terms take seconds.
        pairs = ["a -> b"] + [f"x{i} -> y{i}" for i in range((MAX_TERMS - 4) // 2)]
        guard = "MORPH r [ a ] | TRANSLATE " + ", ".join(pairs)
        assert guard.count(" -> ") * 2 + 2 == MAX_TERMS
        assert Interpreter(parse_forest(TWO_NODES)).transform(guard).xml() == "<r><b>x</b></r>"
        with Database(str(tmp_path / "limit.db"), durable=False) as db:
            db.store_document("d", TWO_NODES)
            assert db.transform("d", guard).xml() == "<r><b>x</b></r>"
        # The x labels are unknown (XM201); the budget is not exceeded.
        assert "XM102" not in {d.code for d in analyze(TWO_NODES, guard).diagnostics}

    @pytest.mark.parametrize("count", [MAX_TERMS + 1, 5000])
    def test_parser_refuses_more(self, count):
        guard = _labels(count)
        with _collector_paused():
            started = time.perf_counter()
            with pytest.raises(GuardSyntaxError) as excinfo:
                parse_guard(guard)
            elapsed = time.perf_counter() - started
        assert elapsed < 0.1
        _assert_refused_at_the_label_budget(excinfo.value, guard)

    @pytest.mark.parametrize("count", [MAX_TERMS + 1, 5000])
    def test_interpreter_transform_refuses(self, count):
        guard = _labels(count)
        interpreter = Interpreter(parse_forest(TWO_NODES))
        with _collector_paused():
            started = time.perf_counter()
            with pytest.raises(GuardSyntaxError) as excinfo:
                interpreter.transform(guard)
            elapsed = time.perf_counter() - started
        assert elapsed < 0.1
        _assert_refused_at_the_label_budget(excinfo.value, guard)

    @pytest.mark.parametrize("count", [MAX_TERMS + 1, 5000])
    def test_database_transform_refuses(self, count, tmp_path):
        guard = _labels(count)
        with Database(str(tmp_path / "long.db"), durable=False) as db:
            db.store_document("d", TWO_NODES)
            with _collector_paused():
                started = time.perf_counter()
                with pytest.raises(GuardSyntaxError) as excinfo:
                    db.transform("d", guard)
                elapsed = time.perf_counter() - started
            assert elapsed < 0.1
            _assert_refused_at_the_label_budget(excinfo.value, guard)
            # The refusal leaves the handle serving.
            assert db.transform("d", "MORPH r [ a ]").xml()

    @pytest.mark.parametrize("count", [MAX_TERMS + 1, 5000])
    def test_check_command_refuses(self, count, tmp_path, capsys):
        path = tmp_path / "two.xml"
        path.write_text(TWO_NODES)
        with _collector_paused():
            started = time.perf_counter()
            status = main(["check", str(path), _labels(count)])
            elapsed = time.perf_counter() - started
        assert status == 1
        assert elapsed < 0.1
        out = capsys.readouterr().out
        assert f"<guard>:1:{_PAST_THE_BUDGET + 1}: error[XM102]" in out
        assert f"more than {MAX_TERMS} labels" in out
