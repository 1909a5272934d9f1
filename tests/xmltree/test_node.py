"""Tests for the XML node model and forest numbering."""

from hypothesis import given

from repro.xmltree import Dewey, XmlForest, element, attribute, serialize, text_of
from repro.xmltree.node import NodeKind

from tests.strategies import xml_forests


def small_tree():
    return element(
        "book",
        attribute("id", "b1"),
        element("title", text="X"),
        element("author", element("name", text="A")),
    )


class TestBuilders:
    def test_element_builder(self):
        node = small_tree()
        assert node.name == "book"
        assert node.is_element
        assert [child.name for child in node.children] == ["id", "title", "author"]

    def test_attribute_builder(self):
        attr = attribute("id", "b1")
        assert attr.is_attribute
        assert attr.kind is NodeKind.ATTRIBUTE
        assert text_of(attr) == "b1"

    def test_parent_links(self):
        node = small_tree()
        for child in node.children:
            assert child.parent is node

    def test_attribute_accessors(self):
        node = small_tree()
        assert node.attribute("id").text == "b1"
        assert node.attribute("nope") is None
        assert [a.name for a in node.attributes()] == ["id"]
        assert [e.name for e in node.element_children()] == ["title", "author"]


class TestTypePath:
    def test_paths_from_root(self):
        node = small_tree()
        name = node.children[2].children[0]
        assert name.type_path() == ("book", "author", "name")

    def test_attribute_path(self):
        node = small_tree()
        assert node.children[0].type_path() == ("book", "id")


class TestForest:
    def test_renumber_assigns_sibling_order(self):
        forest = XmlForest([small_tree()]).renumber()
        book = forest.roots[0]
        assert book.dewey == Dewey.parse("1")
        assert book.children[0].dewey == Dewey.parse("1.1")
        assert book.children[2].children[0].dewey == Dewey.parse("1.3.1")

    def test_multiple_roots_numbered_apart(self):
        forest = XmlForest([small_tree(), small_tree()]).renumber()
        assert forest.roots[1].dewey == Dewey.parse("2")
        assert forest.roots[1].children[0].dewey == Dewey.parse("2.1")

    def test_iter_nodes_is_document_order(self):
        forest = XmlForest([small_tree()]).renumber()
        ids = [node.dewey for node in forest.iter_nodes()]
        assert ids == sorted(ids)

    def test_node_by_dewey(self):
        forest = XmlForest([small_tree()]).renumber()
        found = forest.node_by_dewey(Dewey.parse("1.3.1"))
        assert found is not None and found.name == "name"
        assert forest.node_by_dewey(Dewey.parse("1.9")) is None
        assert forest.node_by_dewey(Dewey.parse("7")) is None

    def test_find_named(self):
        forest = XmlForest([small_tree()]).renumber()
        assert [n.name for n in forest.find_named("title")] == ["title"]

    def test_node_count(self):
        forest = XmlForest([small_tree()]).renumber()
        # book + @id + title + author + name
        assert forest.node_count() == 5


class TestCopyAndCanonical:
    def test_copy_subtree_is_deep(self):
        node = small_tree()
        clone = node.copy_subtree()
        assert clone is not node
        assert clone.canonical() == node.canonical()
        clone.children[1].text = "changed"
        assert clone.canonical() != node.canonical()

    def test_canonical_ignores_sibling_order(self):
        first = element("r", element("a"), element("b"))
        second = element("r", element("b"), element("a"))
        assert first.canonical() == second.canonical()

    def test_canonical_distinguishes_values(self):
        assert element("a", text="1").canonical() != element("a", text="2").canonical()


class TestProperties:
    @given(xml_forests())
    def test_renumber_is_document_order(self, forest):
        ids = [node.dewey for node in forest.iter_nodes()]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    @given(xml_forests())
    def test_node_by_dewey_roundtrip(self, forest):
        for node in forest.iter_nodes():
            assert forest.node_by_dewey(node.dewey) is node

    @given(xml_forests())
    def test_type_path_prefix_of_children(self, forest):
        for node in forest.iter_nodes():
            for child in node.children:
                assert child.type_path()[:-1] == node.type_path()
