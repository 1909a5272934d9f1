"""Tests for adorned-shape (DataGuide) extraction — paper Figure 5."""

from repro.shape import Card, extract_shape
from repro.shape.dataguide import DataGuideBuilder, walk


def edge_map(shape):
    """{(parent dotted, child dotted): card} for easy assertions."""
    return {
        (edge.parent.source.dotted, edge.child.source.dotted): edge.card
        for edge in shape.edges()
    }


class TestFig1Shapes:
    def test_fig1a_structure(self, fig1a):
        shape = extract_shape(fig1a)
        edges = edge_map(shape)
        assert edges[("data", "data.book")] == Card(2, 2)
        assert edges[("data.book", "data.book.title")] == Card(1, 1)
        assert edges[("data.book", "data.book.author")] == Card(1, 1)
        assert edges[("data.book.author", "data.book.author.name")] == Card(1, 1)
        assert edges[("data.book", "data.book.publisher")] == Card(1, 1)
        assert len(shape.roots()) == 1
        assert shape.roots()[0].source.dotted == "data"

    def test_fig1c_grouping_cardinality(self, fig1c):
        shape = extract_shape(fig1c)
        edges = edge_map(shape)
        # One author groups both books.
        assert edges[("data.author", "data.author.book")] == Card(2, 2)
        assert edges[("data", "data.author")] == Card(1, 1)

    def test_optional_child_drops_minimum(self, fig1a_optional_name):
        # Paper Section IV: "assume the leftmost author does not have a
        # name ... the edge from author to name would be labeled 0..1".
        shape = extract_shape(fig1a_optional_name)
        edges = edge_map(shape)
        assert edges[("data.book.author", "data.book.author.name")] == Card(0, 1)

    def test_leaf_types_have_no_outgoing_edges(self, fig1a):
        shape = extract_shape(fig1a)
        titles = [t for t in shape.types() if t.source.name == "title"]
        assert titles and all(not shape.children(t) for t in titles)


def built(forest):
    """The one walk of ``forest``: its builder and its nodes by type id."""
    builder = DataGuideBuilder()
    return builder, walk(forest, builder)


class TestBuilderMaps:
    def test_type_of_maps_every_node(self, fig1b):
        builder, nodes = built(fig1b)
        assert sorted(map(id, sum(nodes, []))) == sorted(map(id, fig1b.iter_nodes()))
        for data_type, typed in zip(builder.type_table, nodes):
            for node in typed:
                assert data_type.path == node.type_path()

    def test_shape_of_covers_all_types(self, fig1b):
        builder, _nodes = built(fig1b)
        assert [vertex.source for vertex in builder.shape.types()] == list(builder.type_table)

    def test_shape_vertex_count_matches_types(self, fig1b):
        builder, _nodes = built(fig1b)
        assert len(builder.shape) == len(builder.type_table)

    def test_same_name_different_paths_are_distinct_types(self, fig1c):
        builder, _nodes = built(fig1c)
        names = builder.type_table.match_label("name")
        # data.author.name and data.author.book.publisher.name
        assert {t.dotted for t in names} == {
            "data.author.name",
            "data.author.book.publisher.name",
        }

    def test_label_matching_with_suffix(self, fig1c):
        builder, _nodes = built(fig1c)
        assert [t.dotted for t in builder.type_table.match_label("publisher.name")] == [
            "data.author.book.publisher.name"
        ]
        assert builder.type_table.match_label("nosuch") == []

    def test_label_matching_case_insensitive(self, fig1c):
        builder, _nodes = built(fig1c)
        assert builder.type_table.match_label("AUTHOR")
