"""Tests for XQuery view generation (architecture option 2).

The generated view, evaluated on the *source* document, must produce
the same data as physically rendering the guard (architecture 1).
"""

import pytest

import repro
from repro.workloads import generate_dblp
from repro.xmltree import XmlForest
from repro.xquery import QueryContext, evaluate

from benchmarks.xquery_view import ViewGenerationError, shape_to_xquery


def view_of(forest, guard):
    interpreter = repro.Interpreter(forest)
    compiled = interpreter.compile(f"CAST ({guard})")
    return shape_to_xquery(
        compiled.target_shape, interpreter.index.is_attribute.get
    ), interpreter


def assert_view_matches_render(forest, guard):
    query, interpreter = view_of(forest, guard)
    items = evaluate(query, QueryContext.for_forest(forest))
    view_forest = XmlForest([item.copy_subtree() for item in items]).renumber()
    rendered = interpreter.transform(f"CAST ({guard})")
    assert view_forest.canonical() == rendered.forest.canonical(), query


class TestViewEquivalence:
    def test_descendant_shape(self, fig1a):
        assert_view_matches_render(fig1a, "MORPH book [ title ]")

    def test_paper_guard_on_all_instances(self, fig1_all):
        for forest in fig1_all.values():
            assert_view_matches_render(forest, "MORPH author [ name book [ title ] ]")

    def test_rearranging_guard(self, fig1b):
        # In (b), book is *below* publisher: the view needs `..` joins.
        assert_view_matches_render(fig1b, "MORPH book [ publisher [ name ] ]")

    def test_cousin_join(self, fig1a):
        # title and publisher.name are cousins: up to book, down again.
        assert_view_matches_render(fig1a, "MORPH title [ publisher.name ]")

    def test_attributes_in_view(self):
        forest = repro.parse_document(
            '<r><item id="i1"><price>3</price></item>'
            '<item id="i2"><price>5</price></item></r>'
        )
        assert_view_matches_render(forest, "MORPH item [ id price ]")

    def test_dblp_medium_guard(self):
        forest = generate_dblp(60)
        assert_view_matches_render(forest, "MORPH author [ title [ year ] ]")


class TestGeneratedText:
    def test_one_for_per_type(self, fig1a):
        query, _ = view_of(fig1a, "MORPH author [ name book [ title ] ]")
        # The paper: the view needs one variable binding per type.
        assert query.count("for $") == 4

    def test_relative_join_paths(self, fig1b):
        query, _ = view_of(fig1b, "MORPH book [ publisher [ name ] ]")
        assert "../" in query or "/.." in query

    def test_rooted_outer_loop(self, fig1a):
        query, _ = view_of(fig1a, "MORPH author [ name ]")
        assert "in /data/book/author " in query


class TestLimits:
    def test_new_types_rejected(self, fig1a):
        interpreter = repro.Interpreter(fig1a)
        compiled = interpreter.compile("MUTATE (NEW scribe) [ author ]")
        with pytest.raises(ViewGenerationError):
            shape_to_xquery(compiled.target_shape)

    def test_clone_rejected(self, fig1a):
        interpreter = repro.Interpreter(fig1a)
        compiled = interpreter.compile("CAST MUTATE author [ CLONE title ]")
        with pytest.raises(ViewGenerationError):
            shape_to_xquery(compiled.target_shape)

    def test_restrict_rejected(self, fig1a):
        interpreter = repro.Interpreter(fig1a)
        compiled = interpreter.compile("CAST MORPH (RESTRICT name [ author ])")
        with pytest.raises(ViewGenerationError):
            shape_to_xquery(compiled.target_shape)
