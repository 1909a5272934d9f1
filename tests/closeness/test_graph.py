"""Tests for closest graphs (Definitions 1, 2, 5).

The graph is the union of the index's closest joins; the brute-force
graph in ``tests/closeness/oracle.py`` is the ground truth it must equal.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.closeness import closest_graph, ClosestGraph
from repro.errors import XMorphError
from repro.xmltree import Dewey, parse_document

from tests.closeness.oracle import brute_force_closest_graph
from tests.strategies import documents, guards, xml_forests


def edge(a: str, b: str) -> frozenset:
    return frozenset((Dewey.parse(a), Dewey.parse(b)))


class TestFig1AGraph:
    def test_vertices_cover_forest(self, fig1a):
        graph = closest_graph(fig1a)
        assert len(graph.vertices) == fig1a.node_count()

    def test_within_book_edges_present(self, fig1a):
        graph = closest_graph(fig1a)
        # publisher 1.1.3 closest to title 1.1.1 (the paper's example) ...
        assert edge("1.1.3", "1.1.1") in graph.edges
        # ... but not to the other book's title 1.2.1.
        assert edge("1.1.3", "1.2.1") not in graph.edges

    def test_no_same_type_edges(self, fig1a):
        graph = closest_graph(fig1a)
        assert edge("1.1", "1.2") not in graph.edges  # book-book
        assert edge("1.1.1", "1.2.1") not in graph.edges  # title-title

    def test_parent_child_edges(self, fig1a):
        graph = closest_graph(fig1a)
        assert edge("1.1", "1.1.2") in graph.edges  # book-author
        assert edge("1.1.2", "1.1.2.1") in graph.edges  # author-name

    def test_edge_count(self, fig1a):
        # 12 data-to-X edges + 15 type pairs x 2 books.
        graph = closest_graph(fig1a)
        assert graph.edge_count() == 42


class TestGroupedInstance:
    def test_author_groups_both_books(self, fig1c):
        graph = closest_graph(fig1c)
        # The single author (1.1) is closest to both books.
        assert edge("1.1", "1.1.2") in graph.edges
        assert edge("1.1", "1.1.3") in graph.edges

    def test_title_publisher_stay_per_book(self, fig1c):
        graph = closest_graph(fig1c)
        assert edge("1.1.2.1", "1.1.2.2") in graph.edges  # X with W's publisher
        assert edge("1.1.2.1", "1.1.3.2") not in graph.edges  # X with V's


class TestSubsetRelation:
    def test_subset_of_self(self, fig1a):
        graph = closest_graph(fig1a)
        assert graph <= graph
        assert graph == closest_graph(fig1a)

    def test_smaller_graph_is_subset(self):
        full = closest_graph(parse_document("<r><a/><b/></r>"))
        small = ClosestGraph(set(list(full.vertices)[:1]), set())
        assert small <= full
        assert not full <= small

    def test_diagnostics(self):
        first = ClosestGraph({1, 2, 3}, {frozenset((1, 2)), frozenset((2, 3))})
        second = ClosestGraph({1, 2}, {frozenset((1, 2))})
        assert first.lost_vertices(second) == {3}
        assert first.lost_edges(second) == {frozenset((2, 3))}
        assert second.added_edges(first) == {frozenset((2, 3))}


class TestProvenanceKeys:
    def test_key_function_merges_duplicates(self):
        forest = parse_document("<r><a/><a/></r>")
        graph = closest_graph(forest, key=lambda node: node.name)
        assert graph.vertices == {"r", "a"}
        assert graph.edges == {frozenset(("r", "a"))}


#: Single-rooted documents and multi-rooted forests, with attributes
#: (an attribute and a same-named child element share a type).
FORESTS = st.one_of(
    documents(max_depth=3, max_children=3, attributes=True),
    xml_forests(max_roots=3, max_depth=3, max_children=3, attributes=True),
)


class TestAgainstOracle:
    """The closest join gives the brute-force graph, whatever the key."""

    @settings(max_examples=60, deadline=None)
    @given(FORESTS)
    def test_dewey_key(self, forest):
        assert closest_graph(forest) == brute_force_closest_graph(forest)

    @settings(max_examples=60, deadline=None)
    @given(FORESTS)
    def test_merging_key(self, forest):
        def key(node):
            return node.name

        assert closest_graph(forest, key=key) == brute_force_closest_graph(forest, key=key)

    @settings(max_examples=60, deadline=None)
    @given(documents(max_depth=2, max_children=3, attributes=True), guards())
    def test_provenance_key(self, forest, guard):
        try:
            rendered = repro.transform(forest, guard).rendered
        except XMorphError:
            assume(False)

        def key(node):
            origin = rendered.source_of(node)
            return ("new", id(node)) if origin is None else origin.dewey

        assert closest_graph(rendered.forest, key=key) == brute_force_closest_graph(
            rendered.forest, key=key
        )
