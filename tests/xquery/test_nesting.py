"""Query text nests at most ``MAX_NESTING`` levels below its top
expression; past that the parser raises a located ``QuerySyntaxError``
from every entry point, never a ``RecursionError``."""

import pytest

from repro.cli import main
from repro.errors import QuerySyntaxError
from repro.xmltree.parser import parse_forest
from repro.xquery import QueryContext, evaluate
from repro.xquery.parser import MAX_NESTING, parse_query

DOCUMENT = "<data><author><name>A</name></author></data>"

#: One query per construct that opens a level, ``n`` levels deep.
NESTINGS = {
    "parentheses": lambda n: "(" * n + "1" + ")" * n,
    "calls": lambda n: "count(" * n + "1" + ")" * n,
    "holes": lambda n: "<a>{" * n + "1" + "}</a>" * n,
    "constructors": lambda n: "<a>" + "<b>" * n + "</b>" * n + "</a>",
    "predicates": lambda n: "/data/author" + "[name" * n + "]" * n,
}


@pytest.mark.parametrize("form", sorted(NESTINGS))
class TestNestingBudget:
    def test_the_budget_itself_parses_and_evaluates(self, form):
        query = NESTINGS[form](MAX_NESTING)
        parse_query(query)
        evaluate(query, QueryContext.for_forest(parse_forest(DOCUMENT)))

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 100, 1000])
    def test_parser_refuses_deeper(self, form, depth):
        with pytest.raises(QuerySyntaxError) as excinfo:
            parse_query(NESTINGS[form](depth))
        error = excinfo.value
        assert f"deeper than {MAX_NESTING} levels" in str(error)
        assert error.line == 1 and error.column > 1

    @pytest.mark.parametrize("extra, status", [(0, 0), (1, 1)])
    def test_xmorph_query(self, form, extra, status, tmp_path, capsys):
        document = tmp_path / "doc.xml"
        document.write_text(DOCUMENT)
        query = NESTINGS[form](MAX_NESTING + extra)
        argv = ["query", str(document), "--guard", "MORPH author [ name ]", "--query", query]
        assert main(argv) == status
        err = capsys.readouterr().err
        if status:
            assert err.startswith("error:") and err.count("\n") == 1
            assert f"deeper than {MAX_NESTING} levels" in err


def test_the_error_points_at_the_first_expression_too_deep():
    depth = MAX_NESTING + 1
    with pytest.raises(QuerySyntaxError) as excinfo:
        parse_query("(" * depth + "1" + ")" * depth)
    # The expression inside the innermost parenthesis, right after it.
    assert excinfo.value.column == depth + 1
