"""Tests for path cardinality (Definition 6, Table I) and predicted shapes."""

from repro.shape import (
    Card,
    Shape,
    ShapeType,
    extract_shape,
    path_cardinality,
    predicted_shape,
)
from repro.closeness import DocumentIndex

from tests.typing.oracle import path_cardinality_table


def vertex(shape, dotted):
    for t in shape.types():
        if t.source.dotted == dotted:
            return t
    raise AssertionError(f"no type {dotted}")


class TestPathCardinalityFig1C:
    """Path cardinalities of the normalized bibliography shape.

    This is the reproduction of the paper's Table I ("path cardinality
    for every pair of types" of the bibliography shape): the exact panel
    lettering of Figure 5 is not visible in the text, so we assert the
    values our instance (c) implies.
    """

    def card(self, fig1c, src, dst):
        shape = extract_shape(fig1c)
        return path_cardinality(shape, vertex(shape, src), vertex(shape, dst))

    def test_downward_single_edge(self, fig1c):
        assert self.card(fig1c, "data", "data.author") == Card(1, 1)

    def test_grouping_edge_multiplies(self, fig1c):
        # One author holds both books: author -> book is 2..2.
        assert self.card(fig1c, "data.author", "data.author.book") == Card(2, 2)
        # ... and so is any path through it.
        assert self.card(fig1c, "data", "data.author.book.title") == Card(2, 2)

    def test_upward_is_one(self, fig1c):
        # From title up to its ancestors: always 1..1 (Definition 6).
        assert self.card(fig1c, "data.author.book.title", "data.author.book") == Card(1, 1)
        assert self.card(fig1c, "data.author.book.title", "data") == Card(1, 1)

    def test_sibling_pairs(self, fig1c):
        assert self.card(
            fig1c, "data.author.book.title", "data.author.book.publisher"
        ) == Card(1, 1)
        # name -> book goes up to author then down the 2..2 edge.
        assert self.card(fig1c, "data.author.name", "data.author.book") == Card(2, 2)
        # book -> author's name: up to author, down 1..1.
        assert self.card(fig1c, "data.author.book", "data.author.name") == Card(1, 1)

    def test_self_pair_is_identity(self, fig1c):
        assert self.card(fig1c, "data.author.book", "data.author.book") == Card(1, 1)

    def test_table_covers_all_pairs(self, fig1c):
        shape = extract_shape(fig1c)
        table = path_cardinality_table(shape)
        count = len(shape.types())
        assert len(table) == count * count

    def test_optional_name_zero_minimum(self, fig1a_optional_name):
        shape = extract_shape(fig1a_optional_name)
        card = path_cardinality(
            shape,
            vertex(shape, "data.book"),
            vertex(shape, "data.book.author.name"),
        )
        assert card == Card(0, 1)


class TestAcrossTrees:
    def test_disconnected_pair_is_none(self):
        from repro.shape.types import TypeTable

        table = TypeTable()
        first = ShapeType.for_source(table.intern(("a",)))
        second = ShapeType.for_source(table.intern(("b",)))
        shape = Shape()
        shape.add_type(first)
        shape.add_type(second)
        assert path_cardinality(shape, first, second) is None
        assert path_cardinality_table(shape) == {
            (first, first): Card(1, 1),
            (second, second): Card(1, 1),
        }


class TestPredictedShape:
    def test_predicts_from_source_pathcard(self, fig1a):
        index = DocumentIndex(fig1a)
        source = index.shape

        author = ShapeType.for_source(index.type_table.match_label("author")[0])
        name = ShapeType.for_source(index.type_table.match_label("author.name")[0])
        book = ShapeType.for_source(index.type_table.match_label("book")[0])
        title = ShapeType.for_source(index.type_table.match_label("title")[0])

        target = Shape()
        target.add_edge(author, name)
        target.add_edge(author, book)
        target.add_edge(book, title)

        predicted = predicted_shape(source, target, index.shape_vertex)
        # In instance (a), book is the *parent* of author, so the
        # author -> book path cardinality is the upward 1..1.
        assert predicted.card(author, book) == Card(1, 1)
        assert predicted.card(author, name) == Card(1, 1)
        assert predicted.card(book, title) == Card(1, 1)

    def test_new_types_get_one_one(self, fig1a):
        index = DocumentIndex(fig1a)
        wrapper = ShapeType.new("scribe")
        author = ShapeType.for_source(index.type_table.match_label("author")[0])
        target = Shape()
        target.add_edge(wrapper, author, Card(0, 7))
        predicted = predicted_shape(index.shape, target, index.shape_vertex)
        assert predicted.card(wrapper, author) == Card(1, 1)

    def test_grouping_fanout_predicted(self, fig1c):
        index = DocumentIndex(fig1c)
        # Target: title under name — in (c) name -> title goes up to
        # author, then down through the 2..2 book edge: predicted 2..2.
        name = ShapeType.for_source(index.type_table.match_label("author.name")[0])
        title = ShapeType.for_source(index.type_table.match_label("title")[0])
        target = Shape()
        target.add_edge(name, title)
        predicted = predicted_shape(index.shape, target, index.shape_vertex)
        assert predicted.card(name, title) == Card(2, 2)
