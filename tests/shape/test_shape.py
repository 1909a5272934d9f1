"""Tests for the Shape forest data structure."""

import pytest

from repro.shape import Card, Shape, ShapeType
from repro.shape.shape import map_types
from repro.shape.types import TypeTable


def make_types(*names):
    table = TypeTable()
    built = []
    path = ()
    for name in names:
        path = path + (name,)
        built.append(ShapeType.for_source(table.intern(path)))
    return built


def chain(*names):
    """A root-to-leaf chain shape; returns (shape, [types])."""
    types = make_types(*names)
    shape = Shape()
    for parent, child in zip(types, types[1:]):
        shape.add_edge(parent, child)
    if len(types) == 1:
        shape.add_type(types[0])
    return shape, types


class TestBasics:
    def test_single(self):
        t = make_types("a")[0]
        shape = Shape.single(t)
        assert shape.types() == [t]
        assert shape.roots() == [t]
        assert shape.children(t) == []

    def test_add_edge_sets_parent(self):
        shape, (a, b, c) = chain("a", "b", "c")
        assert shape.parent(b) is a
        assert shape.children(a) == [b]
        assert shape.roots() == [a]
        assert shape.card(a, b) == Card.exactly_one()

    def test_add_edge_rewires_existing_parent(self):
        shape, (a, b, c) = chain("a", "b", "c")
        shape.add_edge(a, c, Card(0, 1))
        assert shape.parent(c) is a
        assert shape.children(b) == []
        assert shape.card(a, c) == Card(0, 1)

    def test_cycle_rejected(self):
        shape, (a, b, c) = chain("a", "b", "c")
        with pytest.raises(ValueError):
            shape.add_edge(c, a)
        with pytest.raises(ValueError):
            shape.add_edge(a, a)

    def test_detach_makes_root(self):
        shape, (a, b, c) = chain("a", "b", "c")
        shape.detach(b)
        assert set(shape.roots()) == {a, b}
        assert shape.parent(b) is None
        assert shape.parent(c) is b

    def test_set_card(self):
        shape, (a, b, _) = chain("a", "b", "c")
        shape.set_card(a, b, Card(0, 5))
        assert shape.card(a, b) == Card(0, 5)
        with pytest.raises(KeyError):
            shape.set_card(b, a, Card(1, 1))


class TestRemoval:
    def test_remove_type_hoists_children(self):
        shape, (a, b, c) = chain("a", "b", "c")
        shape.remove_type(b)
        assert b not in shape
        assert shape.parent(c) is a
        assert shape.children(a) == [c]

    def test_remove_root_makes_children_roots(self):
        shape, (a, b, c) = chain("a", "b", "c")
        shape.remove_type(a)
        assert shape.roots() == [b]

    def test_remove_subtree(self):
        shape, (a, b, c) = chain("a", "b", "c")
        shape.remove_type(b, hoist=False)
        assert shape.types() == [a]

    def test_remove_missing_is_noop(self):
        shape, _ = chain("a", "b")
        stranger = make_types("x")[0]
        shape.remove_type(stranger)


class TestGeometry:
    def test_lca_and_distance(self):
        types = make_types("r", "x")
        r, x = types
        y = ShapeType.for_source(x.source)  # sibling vertex, same data type
        shape = Shape()
        shape.add_edge(r, x)
        shape.add_edge(r, y)
        assert shape.lca(x, y) is r
        assert shape.tree_distance(x, y) == 2
        assert shape.tree_distance(r, x) == 1
        assert shape.tree_distance(x, x) == 0

    def test_distance_across_trees_is_none(self):
        shape = Shape()
        a, b = make_types("a")[0], make_types("b")[0]
        shape.add_type(a)
        shape.add_type(b)
        assert shape.lca(a, b) is None
        assert shape.tree_distance(a, b) is None

    def test_path_down(self):
        shape, (a, b, c) = chain("a", "b", "c")
        edges = shape.path_down(a, c)
        assert [(e.parent, e.child) for e in edges] == [(a, b), (b, c)]
        with pytest.raises(ValueError):
            shape.path_down(c, a)

    def test_depth_and_root_of(self):
        shape, (a, b, c) = chain("a", "b", "c")
        assert shape.depth(c) == 2
        assert shape.root_of(c) is a

    def test_subtree(self):
        shape, (a, b, c) = chain("a", "b", "c")
        sub = shape.subtree(b)
        assert set(sub.types()) == {b, c}
        assert sub.roots() == [b]
        # Copy: edits to the subtree don't touch the original.
        sub.detach(c)
        assert shape.parent(c) is b


class TestCombination:
    def test_union_merges_disjoint(self):
        first, (a, b) = chain("a", "b")
        second, (x, y) = chain("x", "y")
        first.union(second)
        assert set(first.roots()) == {a, x}
        assert first.edge_count() == 2

    def test_copy_is_independent(self):
        shape, (a, b, c) = chain("a", "b", "c")
        duplicate = shape.copy()
        duplicate.remove_type(b)
        assert b in shape and b not in duplicate

    def test_map_types_clones_structure(self):
        shape, (a, b, c) = chain("a", "b", "c")
        mapped = map_types(shape, lambda t: t.clone())
        assert mapped.fingerprint() == shape.fingerprint()
        assert not any(t in shape for t in mapped.types())


class TestDisplay:
    def test_fingerprint_ignores_sibling_order(self):
        r1, x1 = make_types("r", "x")
        y1 = make_types("r", "y")[1]
        first = Shape()
        first.add_edge(r1, x1)
        first.add_edge(r1, y1)

        r2, y2 = make_types("r", "y")
        x2 = make_types("r", "x")[1]
        second = Shape()
        second.add_edge(r2, y2)
        second.add_edge(r2, x2)
        assert first.fingerprint() == second.fingerprint()

    def test_pretty_renders_tree(self):
        shape, (a, b, c) = chain("a", "b", "c")
        text = shape.pretty()
        assert text.splitlines()[0] == "a"
        assert "  b [1..1]" in text
        assert "    c [1..1]" in text

    def test_walk_yields_depths(self):
        shape, (a, b, c) = chain("a", "b", "c")
        assert list(shape.walk()) == [(a, 0), (b, 1), (c, 2)]


class TestOfDataTypes:
    """The one-pass constructor behind every stored and extracted shape."""

    @staticmethod
    def table(*paths):
        table = TypeTable()
        for path in paths:
            table.intern(tuple(path.split(".")))
        return table

    def test_vertices_in_id_order_and_edges_in_given_order(self):
        table = self.table("r", "r.a", "r.b", "r.a.c")
        shape = Shape.of_data_types(table, [(0, 2, 1, 1), (0, 1, 0, 3), (1, 3, 2, 2)])
        r, a, b, c = shape.types()
        assert [t.source for t in (r, a, b, c)] == list(table)
        assert shape.children(r) == [b, a]
        assert shape.card(r, a) == Card(0, 3) and shape.card(a, c) == Card(2, 2)
        assert shape.roots() == [r]

    def test_same_shape_as_edge_by_edge(self):
        table = self.table("r", "r.a", "r.a.c", "s")
        edges = [(0, 1, 1, 2), (1, 2, 0, 1)]
        expected = Shape()
        vertices = [expected.add_type(ShapeType.for_source(t)) for t in table]
        for parent, child, low, high in edges:
            expected.add_edge(vertices[parent], vertices[child], Card(low, high))
        assert Shape.of_data_types(table, edges).fingerprint() == expected.fingerprint()

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 2, 1, 1)],  # skips a level: r -> r.a.c
            [(1, 0, 1, 1)],  # upwards: would close a cycle
            [(1, 1, 1, 1)],  # onto itself
            [(3, 1, 1, 1)],  # from another root
            [(0, 1, 1, 1), (0, 1, 1, 1)],  # a second edge into one child
        ],
        ids=["skip", "upwards", "self", "foreign", "two-parents"],
    )
    def test_refuses_an_edge_that_does_not_follow_the_path(self, edges):
        with pytest.raises(ValueError):
            Shape.of_data_types(self.table("r", "r.a", "r.a.c", "s"), edges)
