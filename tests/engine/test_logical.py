"""Tests for the logical (in situ) transform — architecture option 3."""

import pytest

import repro
from repro.engine.logical import LogicalTransform, guarded_query_lazy
from repro.xquery.evaluator import evaluate

GUARD = "MORPH author [ name book [ title ] ]"


class TestQueryEquivalence:
    """Queries over the virtual view answer exactly like the
    physically transformed document."""

    QUERIES = [
        "for $a in /author return $a/book/title/text()",
        "count(//name)",
        "distinct-values(/author/name)",
        "for $a in /author where $a/book/title = 'X' return $a/name/text()",
        "for $a in /author return <r>{$a/name}{$a/book/title}</r>",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_same_answers(self, fig1_all, query):
        for key, forest in fig1_all.items():
            lazy_items, _view = guarded_query_lazy(forest, GUARD, query)
            physical = repro.GuardedQuery(GUARD, query).run(forest)
            assert _comparable(lazy_items) == _comparable(physical.items), (key, query)

    def test_attribute_navigation(self):
        forest = repro.parse_document(
            '<r><item id="i1"><price>3</price></item>'
            '<item id="i2"><price>5</price></item></r>'
        )
        items, _ = guarded_query_lazy(
            forest, "MORPH item [ id price ]", "for $i in /item return $i/@id"
        )
        assert [n.text for n in items] == ["i1", "i2"]


class TestLaziness:
    def test_nothing_materialized_up_front(self, fig1a):
        view = LogicalTransform(fig1a, GUARD)
        assert view.nodes_materialized == 0

    def test_partial_access_partial_cost(self, fig1a):
        view = LogicalTransform(fig1a, GUARD)
        first_author = view.roots[0]
        first_author.children  # expand one node
        partial = view.nodes_materialized
        # Full materialization is strictly more work.
        for root in view.roots:
            for node in root.iter_subtree():
                pass
        assert view.nodes_materialized > partial

    def test_counting_roots_does_not_expand_subtrees(self, fig1a):
        view = LogicalTransform(fig1a, GUARD)
        items = evaluate("count(/author)", view.query_context())
        assert items == [2.0]
        # Only the roots (2 authors) were materialized.
        assert view.nodes_materialized == 2

    def test_expansion_cached(self, fig1a):
        view = LogicalTransform(fig1a, GUARD)
        root = view.roots[0]
        first = root.children
        assert root.children is first

    def test_full_expansion_groups_per_edge_not_per_node(self, monkeypatch):
        # Every expanded node looks its partners up in the index's
        # memoized groups, so 4x the data means 4x the nodes but the
        # same number of grouping passes (it used to scan the whole
        # target sequence once per node).
        from repro.closeness import index as index_module
        from repro.workloads import generate_dblp

        grouped = index_module.group_by_prefix
        passes, nodes = {}, {}
        for publications in (40, 160):
            calls = []
            monkeypatch.setattr(
                index_module,
                "group_by_prefix",
                lambda nodes, width: calls.append(width) or grouped(nodes, width),
            )
            view = LogicalTransform(
                generate_dblp(publications), "CAST MORPH author [ title [ year ] ]"
            )
            nodes[publications] = sum(root.descendant_count() for root in view.roots)
            passes[publications] = len(calls)
        assert nodes[160] > 3 * nodes[40]
        assert 0 < passes[160] == passes[40]


class TestViewMetadata:
    def test_loss_report_available(self, fig1c):
        view = LogicalTransform(fig1c, GUARD)
        assert str(view.loss.guard_type) == "strongly-typed"

    def test_lossy_guard_still_checked_up_front(self, fig1c):
        # The logical view compiles the guard, so typing still gates it.
        view = LogicalTransform(
            fig1c, "CAST (MORPH author [ title publisher [ name ] ])"
        )
        assert not view.loss.non_additive

    def test_copy_subtree_materializes(self, fig1a):
        view = LogicalTransform(fig1a, GUARD)
        real = view.roots[0].copy_subtree()
        from repro.xmltree.node import XmlNode

        assert isinstance(real, XmlNode)
        assert real.find("name").text == "A"


def _comparable(items):
    out = []
    for item in items:
        if hasattr(item, "copy_subtree"):
            node = item.copy_subtree() if not hasattr(item, "renumber") else item
            out.append(node.canonical() if hasattr(node, "canonical") else repro.serialize(node))
        else:
            out.append(item)
    return out
