"""Tests for adorned-shape (DataGuide) extraction — paper Figure 5."""

import pytest

from repro.errors import StorageError
from repro.shape import Card, extract_shape
from repro.shape.dataguide import DataGuideBuilder, walk
from repro.storage import tables
from repro.storage.shredder import describe_shape
from repro.xmltree import dewey, parse_forest
from repro.xmltree.parser import tokenize


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


class TestResumedBuilder:
    """An update labels what it inserts with a builder resumed from the
    stored shape and placed at the insertion point: it numbers and types
    the subtree as one pass over the whole document would."""

    @staticmethod
    def stored(builder):
        """``resume``'s arguments as a stored document's open reads them:
        through its shape record."""
        record = tables.unpack_shape("doc", b"".join(tables.pack_shape(describe_shape(builder))))
        return record.type_table, record.parents, record.counts

    @pytest.mark.parametrize("feed", ["walk", "tokenize"])
    def test_a_placed_subtree_is_labelled_and_typed_as_in_the_whole(self, feed):
        subtree = "<a><c>2</c><b>3</b></a>"
        first, _nodes = built(parse_forest("<r><a><b>1</b></a><d/></r>"))
        whole, _nodes = built(parse_forest(f"<r><a><b>1</b></a>{subtree}<d/></r>"))
        resumed = DataGuideBuilder.resume(*self.stored(first))
        resumed.place(dewey.child(b"", 1), 0, 1)  # after r's first child
        if feed == "walk":
            filed = walk(parse_forest(subtree), resumed)
            assert [[node.name for node in nodes] for nodes in filed] == [[], ["a"], ["b"], [], ["c"]]
        else:
            tokenize(subtree, resumed)
        assert resumed.placed() == 2
        assert resumed.type_table.paths == whole.type_table.paths[:3] + [
            ("r", "d"),
            ("r", "a", "c"),
        ]
        assert resumed.parent_of == [None, 0, 1, 0, 1]
        # r, r.a (2 nodes), r.a.b (2), r.d, r.a.c: the inserted ones counted in.
        assert resumed.counts == [1, 2, 2, 1, 1]
        # The columns hold the placed subtree only, labelled as in the whole
        # document (the later sibling <d/> is renumbered by the updater).
        second = [label for label in whole.labels[1] if label not in first.labels[1]]
        assert resumed.labels[1] == second == [dewey.child(dewey.child(b"", 1), 2)]
        assert resumed.labels[2] == [dewey.child(second[0], 2)]
        assert resumed.labels[4] == [dewey.child(second[0], 1)]
        assert resumed.values[4] == ["2"] and resumed.labels[0] == resumed.labels[3] == []

    @pytest.mark.parametrize(
        "types",
        [
            [(2, "a"), (0, "r")],  # a parent after its child
            [(0, "r"), (3, "a")],  # a parent past the last type
            [(0, "r"), (2, "a")],  # a type its own parent
            [(0, "r"), (1, "a"), (1, "a")],  # one path named twice
            [(0xFFFFFFFF, "r")],  # a parent of id -1, as four bytes hold it
        ],
    )
    def test_a_malformed_stored_shape_is_refused(self, types):
        """``(parent id + 1, name)`` per type: the record's columns, which
        are refused before a builder is resumed from them."""
        names = sorted({name for _parent, name in types})
        zeros = [0] * len(types)
        raw = tables.pack_columns(
            tables.ShapeColumns(
                names,
                [parent for parent, _name in types],
                [names.index(name) for _parent, name in types],
                zeros,
                zeros,
                [1] * len(types),
            )
        )
        with pytest.raises(StorageError, match="corrupted stored shape"):
            tables.unpack_shape("doc", raw)
