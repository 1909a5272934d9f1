"""The XML node model used throughout the library.

Following the paper's data model (Definition 1), the vertices of a data
collection are its *elements and attributes*; the text content of a node
is its ``value``, not a separate vertex.  Attributes are therefore stored
as child vertices of kind :data:`NodeKind.ATTRIBUTE` — they sit one level
below their owner element exactly like child elements, which is what the
distance/closeness machinery expects — and the serializer renders them
back into start tags.

Nodes are numbered with :class:`repro.xmltree.Dewey` identifiers in
sibling order, so identifier order is document order.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Iterator

from repro.xmltree.dewey import Dewey


class NodeKind(enum.Enum):
    """The kind of a vertex in the data model."""

    ELEMENT = "element"
    ATTRIBUTE = "attribute"


class XmlNode:
    """A single element or attribute vertex.

    Attributes
    ----------
    kind:
        :data:`NodeKind.ELEMENT` or :data:`NodeKind.ATTRIBUTE`.
    name:
        The element/attribute name (the paper's ``name(v)``).
    text:
        The directly contained text content (the paper's ``value(v)``);
        for attributes this is the attribute value.
    children:
        Child vertices in document order (attributes first, in the order
        they appeared in the start tag).
    dewey:
        The node's Dewey identifier; assigned by :meth:`XmlForest.renumber`
        or by the parser.
    """

    __slots__ = ("kind", "name", "text", "children", "parent", "dewey")

    def __init__(
        self,
        name: str,
        kind: NodeKind = NodeKind.ELEMENT,
        text: str = "",
        children: Iterable["XmlNode"] | None = None,
    ):
        self.kind = kind
        self.name = name
        self.text = text
        self.children: list[XmlNode] = []
        self.parent: XmlNode | None = None
        self.dewey: Dewey | None = None
        if children:
            for child in children:
                self.append(child)

    # -- construction ----------------------------------------------------

    def append(self, child: "XmlNode") -> "XmlNode":
        """Attach ``child`` as the last child and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def extend(self, children: Iterable["XmlNode"]) -> None:
        for child in children:
            self.append(child)

    # -- structure -------------------------------------------------------

    @property
    def is_element(self) -> bool:
        return self.kind is NodeKind.ELEMENT

    @property
    def is_attribute(self) -> bool:
        return self.kind is NodeKind.ATTRIBUTE

    def element_children(self) -> list["XmlNode"]:
        return [child for child in self.children if child.is_element]

    def attributes(self) -> list["XmlNode"]:
        return [child for child in self.children if child.is_attribute]

    def attribute(self, name: str) -> "XmlNode | None":
        for child in self.children:
            if child.is_attribute and child.name == name:
                return child
        return None

    def type_path(self) -> tuple[str, ...]:
        """The paper's default ``typeOf(v)``: names from the root down."""
        names: list[str] = []
        node: XmlNode | None = self
        while node is not None:
            names.append(node.name)
            node = node.parent
        names.reverse()
        return tuple(names)

    def iter_subtree(self) -> Iterator["XmlNode"]:
        """This node and every descendant, in document order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def descendant_count(self) -> int:
        """Number of vertices in this subtree (including self)."""
        return sum(1 for _ in self.iter_subtree())

    def find(self, name: str) -> "XmlNode | None":
        """First child (element or attribute) with the given name."""
        for child in self.children:
            if child.name == name:
                return child
        return None

    def copy_subtree(self) -> "XmlNode":
        """A deep copy of this subtree (Dewey ids are not copied)."""
        clone = XmlNode(self.name, self.kind, self.text)
        for child in self.children:
            clone.append(child.copy_subtree())
        return clone

    # -- comparison helpers (used heavily by tests) -----------------------

    def canonical(self) -> tuple:
        """Order-insensitive structural fingerprint.

        XMorph shapes are unordered (Section III), so tests compare
        transformation outputs modulo sibling order.  Text is normalized
        by stripping surrounding whitespace.
        """
        return (
            self.kind.value,
            self.name,
            self.text.strip(),
            tuple(sorted(child.canonical() for child in self.children)),
        )

    def __repr__(self) -> str:
        ident = f" #{self.dewey}" if self.dewey is not None else ""
        marker = "@" if self.is_attribute else ""
        return f"<XmlNode {marker}{self.name}{ident} children={len(self.children)}>"


class XmlForest:
    """An ordered collection of root vertices.

    A single document is a forest with one root; transformation outputs
    are forests in general (a target shape is a forest, Definition 3).
    """

    __slots__ = ("roots",)

    def __init__(self, roots: Iterable[XmlNode] | None = None):
        self.roots: list[XmlNode] = list(roots or [])

    def append(self, root: XmlNode) -> XmlNode:
        self.roots.append(root)
        return root

    def renumber(self) -> "XmlForest":
        """(Re)assign Dewey identifiers in sibling order; returns self.

        The i-th root gets identifier ``i`` (1-based) so that identifiers
        are unique across the whole forest.
        """
        for ordinal, root in enumerate(self.roots, start=1):
            _number_subtree(root, Dewey.root(ordinal))
        return self

    def iter_nodes(self) -> Iterator[XmlNode]:
        """All vertices in document order."""
        for root in self.roots:
            yield from root.iter_subtree()

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def node_by_dewey(self, dewey: Dewey) -> XmlNode | None:
        """Resolve an identifier to its node (O(depth) after renumber)."""
        parts = dewey.parts
        if parts[0] > len(self.roots):
            return None
        node = self.roots[parts[0] - 1]
        for ordinal in parts[1:]:
            if ordinal > len(node.children):
                return None
            node = node.children[ordinal - 1]
        return node

    def find_named(self, name: str) -> list[XmlNode]:
        return [node for node in self.iter_nodes() if node.name == name]

    def filter(self, predicate: Callable[[XmlNode], bool]) -> list[XmlNode]:
        return [node for node in self.iter_nodes() if predicate(node)]

    def canonical(self) -> tuple:
        """Order-insensitive fingerprint of the whole forest."""
        return tuple(sorted(root.canonical() for root in self.roots))

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self) -> Iterator[XmlNode]:
        return iter(self.roots)

    def __repr__(self) -> str:
        return f"<XmlForest roots={[root.name for root in self.roots]}>"


def _number_subtree(node: XmlNode, ident: Dewey) -> None:
    node.dewey = ident
    for ordinal, child in enumerate(node.children, start=1):
        _number_subtree(child, ident.child(ordinal))


# -- small builder DSL (used by tests and workload generators) ------------


def element(name: str, *children: XmlNode, text: str = "") -> XmlNode:
    """Build an element vertex: ``element("book", element("title", text="X"))``."""
    return XmlNode(name, NodeKind.ELEMENT, text, children)


def attribute(name: str, value: str) -> XmlNode:
    """Build an attribute vertex."""
    return XmlNode(name, NodeKind.ATTRIBUTE, value)


def text_of(node: XmlNode) -> str:
    """The paper's ``value(v)``: the node's own text content, stripped."""
    return node.text.strip()
