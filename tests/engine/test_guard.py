"""Tests for guarded queries — the paper's Section I scenario end-to-end."""

import io

import pytest

import repro
from repro.errors import GuardTypeError
from repro.typing import GuardType


INTRO_QUERY = (
    "for $a in doc('input')/author "
    "return <data><author><book><title>{$a/book/title/text()}</title></book>"
    "</author></data>"
)


class TestIntroScenario:
    """The motivating example: one query, three shapes."""

    def test_same_query_all_instances(self, fig1_all):
        guarded = repro.GuardedQuery(
            "MORPH author [ name book [ title ] ]",
            "for $a in doc('input')/author return $a/book/title/text()",
        )
        for forest in fig1_all.values():
            outcome = guarded.run(forest)
            assert sorted(outcome.items) == ["X", "Y"]

    def test_unguarded_query_fails_on_wrong_shapes(self, fig1a, fig1c):
        # Without the guard, the paper's query only works on (c).
        query = "for $a in doc('input')/data/author return $a/book/title/text()"
        from repro.xquery import evaluate

        assert evaluate(query, repro.QueryContext.for_forest(fig1a)) == []
        assert evaluate(query, repro.QueryContext.for_forest(fig1c)) == ["X", "Y"]

    def test_guard_type_exposed(self, fig1a):
        guarded = repro.GuardedQuery(
            "MORPH author [ name book [ title ] ]",
            "count(/author)",
        )
        outcome = guarded.run(fig1a)
        assert outcome.guard_type is GuardType.STRONGLY_TYPED
        assert outcome.items == [2.0]

    def test_lossy_guard_blocks_query(self, fig1c):
        guarded = repro.GuardedQuery(
            "MORPH author [ title name publisher [ name ] ]",
            "count(/author)",
        )
        with pytest.raises(GuardTypeError):
            guarded.run(fig1c)

    def test_xml_serialization_of_outcome(self, fig1a):
        guarded = repro.GuardedQuery(
            "MORPH author [ name ]",
            "for $a in /author return <who>{$a/name/text()}</who>",
        )
        outcome = guarded.run(fig1a)
        assert outcome.xml() == "<who>A</who>\n<who>A</who>"

    def test_guard_reusable_across_collections(self, fig1_all):
        guarded = repro.GuardedQuery(
            "MORPH publisher [ name book [ title ] ]",
            "for $p in /publisher where $p/book/title = 'X' return $p/name/text()",
        )
        for key, forest in fig1_all.items():
            assert guarded.run(forest).items == ["W"], key


BOOKS = (
    "<r><book><title>X</title><author>A</author><year>2000</year></book>"
    "<book><title>Y</title><author>B</author></book></r>"
)


class TestGuardRootedInRestrictOrNew:
    """The query sees exactly what the guard renders: a RESTRICT root
    drops the books without a year, a NEW root wraps each book."""

    def test_restrict_rooted_guard_filters_the_query(self):
        outcome = repro.GuardedQuery(
            "MORPH (RESTRICT book [ year ]) [ title ]",
            "for $b in /book return $b/title/text()",
        ).run(repro.parse_document(BOOKS))
        assert outcome.items == ["X"]

    def test_new_rooted_guard_counts_its_wrappers(self):
        guard = "CAST MORPH (NEW shelf) [ book [ title ] ]"
        forest = repro.parse_document(BOOKS)
        assert repro.GuardedQuery(guard, "count(/shelf)").run(forest).items == [2.0]
        per_shelf = "for $s in /shelf return count($s/book)"
        assert repro.GuardedQuery(guard, per_shelf).run(forest).items == [1.0, 1.0]


class TestStoredIndexSource:
    """``run`` accepts any index: a stored document answers as its parse."""

    GUARDED = [
        repro.GuardedQuery(
            "MORPH author [ name book [ title ] ]",
            "for $a in doc('input')/author return $a/book/title/text()",
        ),
        repro.GuardedQuery(
            "MORPH publisher [ name book [ title ] ]",
            "for $p in /publisher where $p/book/title = 'X' return $p/name/text()",
        ),
    ]

    def test_stored_index_matches_parsed_forest(self, fig1_all, tmp_path):
        from repro.storage import Database

        with Database(str(tmp_path / "fig1.db"), durable=False) as db:
            for name, forest in fig1_all.items():
                db.store_document(name, forest)
            for name, forest in fig1_all.items():
                for guarded in self.GUARDED:
                    stored = guarded.run(db.index(name)).items
                    assert stored == guarded.run(forest).items, (name, guarded.guard)


class TestTransformResultApi:
    def test_compile_only_has_no_forest(self, fig1a):
        result = repro.Interpreter(fig1a).compile("MORPH author [ name ]")
        sink = io.StringIO()
        for read in (
            lambda: result.forest,
            result.xml,
            lambda: result.xml(indent=2),
            result.xml_json,
            lambda: result.write(sink),
        ):
            with pytest.raises(ValueError, match="guard was checked, not rendered"):
                read()
        assert sink.getvalue() == "" and result.render_counts is None

    def test_timings_recorded(self, fig1a):
        result = repro.transform(fig1a, "MORPH author [ name ]")
        assert result.compile_seconds >= 0
        assert result.render_seconds >= 0

    def test_label_report_text(self, fig1a):
        result = repro.transform(fig1a, "MORPH author [ name ]")
        report = result.label_report()
        assert "author" in report
        assert "data.book.author.name" in report

    def test_loss_report_text(self, fig1a):
        result = repro.transform(fig1a, "MORPH author [ name ]")
        assert "strongly-typed" in result.loss_report()

    def test_check_does_not_enforce(self, fig1c):
        # check() reports on a lossy guard instead of raising.
        report = repro.check(fig1c, "MORPH author [ title name publisher [ name ] ]")
        assert report.guard_type is GuardType.WIDENING
