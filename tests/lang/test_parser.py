"""Tests for the guard parser, including every guard printed in the paper."""

import pytest

from repro.analysis import analyze
from repro.engine.interpreter import Interpreter
from repro.errors import GuardSyntaxError
from repro.lang import parse_guard, CastMode
from repro.lang.parser import MAX_NESTING
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
