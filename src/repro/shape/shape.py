"""The :class:`Shape` forest (Definition 3).

A shape is a forest of :class:`~repro.shape.types.ShapeType` vertices
with cardinality-adorned parent/child edges.  Leaf edges ``(t, circ,
0..0)`` are implicit: a type with no outgoing edges is a leaf.  The
class is mutable — guard semantics builds and rewires shapes — but every
method keeps the forest invariant (at most one parent per type, no
cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from repro.shape.cardinality import Card
from repro.shape.types import DataType, ShapeType


@dataclass(frozen=True, slots=True)
class ShapeEdge:
    """A single adorned type edge ``(parent, child, card)``."""

    parent: ShapeType
    child: ShapeType
    card: Card

    def __str__(self) -> str:
        return f"{self.parent} -[{self.card}]-> {self.child}"


class Shape:
    """A mutable forest of type edges with cardinality adornments."""

    def __init__(self) -> None:
        # Insertion-ordered registry of all types in the shape.
        self._types: dict[ShapeType, None] = {}
        self._children: dict[ShapeType, list[ShapeType]] = {}
        self._parent: dict[ShapeType, ShapeType] = {}
        self._card: dict[tuple[ShapeType, ShapeType], Card] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def single(cls, shape_type: ShapeType) -> "Shape":
        """A shape holding one lone (leaf) type."""
        shape = cls()
        shape.add_type(shape_type)
        return shape

    @classmethod
    def of_data_types(
        cls,
        data_types: Iterable[DataType],
        edges: Iterable[tuple[int, int, int, int]],
    ) -> "Shape":
        """The adorned shape of a collection (Definition 3), in one pass.

        One vertex per data type, in the order given (type id order, so
        ``types()[i]`` backs type ``i``), and one edge per ``(parent id,
        child id, lo, hi)``.  A data type is its root path, so an edge is
        sound exactly when the parent's path is the child's path minus
        its last step; that alone keeps the forest acyclic, without the
        ancestor walk of :meth:`add_edge`.  An edge that breaks it, or a
        second edge into one child, raises :class:`ValueError`.  Edges
        with one range share one (frozen) :class:`Card`.
        """
        shape = cls()
        # ShapeType.for_source, inlined: a stored document's open builds one per type.
        vertices = [ShapeType(data_type, data_type.path[-1]) for data_type in data_types]
        shape._types = dict.fromkeys(vertices)
        children = shape._children = {vertex: [] for vertex in vertices}
        parents, cards = shape._parent, shape._card
        ranges: dict[tuple[int, int], Card] = {}
        for parent_id, child_id, low, high in edges:
            parent, child = vertices[parent_id], vertices[child_id]
            if parent.source.path != child.source.path[:-1]:
                raise ValueError(f"edge {parent} -> {child} does not follow the type's path")
            if child in parents:
                raise ValueError(f"type {child} has two parents")
            parents[child] = parent
            children[parent].append(child)
            card = ranges.get((low, high))
            if card is None:
                card = ranges[(low, high)] = Card(low, high)
            cards[(parent, child)] = card
        return shape

    @classmethod
    def of_leaves(cls, shape_types: Iterable[ShapeType]) -> "Shape":
        """The paper's ``L x {circ}``: a set of disconnected leaves."""
        shape = cls()
        for shape_type in shape_types:
            shape.add_type(shape_type)
        return shape

    def add_type(self, shape_type: ShapeType) -> ShapeType:
        self._types.setdefault(shape_type, None)
        self._children.setdefault(shape_type, [])
        return shape_type

    def add_edge(self, parent: ShapeType, child: ShapeType, card: Card | None = None) -> None:
        """Attach ``child`` under ``parent``.

        If the child already has a parent it is re-wired (this is how
        ``MUTATE`` moves subtrees).  Cycles are rejected.
        """
        self.add_type(parent)
        self.add_type(child)
        if parent is child or self.is_ancestor(child, parent):
            raise ValueError(f"edge {parent} -> {child} would create a cycle")
        old_parent = self._parent.get(child)
        if old_parent is not None:
            self._children[old_parent].remove(child)
            del self._card[(old_parent, child)]
        self._parent[child] = parent
        self._children[parent].append(child)
        self._card[(parent, child)] = card or Card.exactly_one()

    def set_card(self, parent: ShapeType, child: ShapeType, card: Card) -> None:
        if (parent, child) not in self._card:
            raise KeyError(f"no edge {parent} -> {child}")
        self._card[(parent, child)] = card

    def detach(self, shape_type: ShapeType) -> None:
        """Remove the incoming edge of a type, making it a root."""
        parent = self._parent.pop(shape_type, None)
        if parent is not None:
            self._children[parent].remove(shape_type)
            del self._card[(parent, shape_type)]

    def remove_type(self, shape_type: ShapeType, hoist: bool = True) -> None:
        """Remove a type from the shape.

        With ``hoist=True`` (the behaviour of ``DROP``) the children are
        reattached to the removed type's parent — or become roots when
        the removed type was a root — leaving the rest of the shape
        unchanged.  With ``hoist=False`` the whole subtree is removed.
        """
        if shape_type not in self._types:
            return
        parent = self._parent.get(shape_type)
        children = list(self._children[shape_type])
        if hoist:
            for child in children:
                card = self._card[(shape_type, child)]
                self.detach(child)
                if parent is not None:
                    self.add_edge(parent, child, card)
        else:
            for child in children:
                self.remove_type(child, hoist=False)
        self.detach(shape_type)
        for child in list(self._children[shape_type]):
            self.detach(child)
        del self._children[shape_type]
        del self._types[shape_type]

    def union(self, other: "Shape") -> "Shape":
        """In-place union with a disjoint shape; returns self.

        Shapes produced by independent semantic evaluations contain
        distinct :class:`ShapeType` instances, so a union is a simple
        merge.  Shared types keep their existing parent unless the other
        shape provides one and this one does not.
        """
        for shape_type in other._types:
            self.add_type(shape_type)
        for edge in other.edges():
            if self._parent.get(edge.child) is None:
                self.add_edge(edge.parent, edge.child, edge.card)
        return self

    def copy(self) -> "Shape":
        duplicate = Shape()
        for shape_type in self._types:
            duplicate.add_type(shape_type)
        for edge in self.edges():
            duplicate.add_edge(edge.parent, edge.child, edge.card)
        return duplicate

    # -- queries -----------------------------------------------------------

    def types(self) -> list[ShapeType]:
        """All types, in insertion order (the paper's ``types(S)``)."""
        return list(self._types)

    def roots(self) -> list[ShapeType]:
        """Types without an incoming edge (the paper's ``roots(S)``)."""
        return [t for t in self._types if t not in self._parent]

    def children(self, shape_type: ShapeType) -> list[ShapeType]:
        return list(self._children.get(shape_type, []))

    def parent(self, shape_type: ShapeType) -> Optional[ShapeType]:
        return self._parent.get(shape_type)

    def card(self, parent: ShapeType, child: ShapeType) -> Card:
        return self._card[(parent, child)]

    def edges(self) -> Iterator[ShapeEdge]:
        for parent in self._types:
            for child in self._children.get(parent, []):
                yield ShapeEdge(parent, child, self._card[(parent, child)])

    def edge_count(self) -> int:
        return len(self._card)

    def __contains__(self, shape_type: ShapeType) -> bool:
        return shape_type in self._types

    def __len__(self) -> int:
        return len(self._types)

    def is_empty(self) -> bool:
        return not self._types

    # -- tree geometry -------------------------------------------------------

    def is_ancestor(self, ancestor: ShapeType, descendant: ShapeType) -> bool:
        node = self._parent.get(descendant)
        while node is not None:
            if node is ancestor:
                return True
            node = self._parent.get(node)
        return False

    def root_of(self, shape_type: ShapeType) -> ShapeType:
        node = shape_type
        while (up := self._parent.get(node)) is not None:
            node = up
        return node

    def depth(self, shape_type: ShapeType) -> int:
        depth = 0
        node = shape_type
        while (up := self._parent.get(node)) is not None:
            node = up
            depth += 1
        return depth

    def ancestors(self, shape_type: ShapeType) -> list[ShapeType]:
        """Ancestors from the parent up to the root."""
        chain: list[ShapeType] = []
        node = self._parent.get(shape_type)
        while node is not None:
            chain.append(node)
            node = self._parent.get(node)
        return chain

    def lca(self, first: ShapeType, second: ShapeType) -> Optional[ShapeType]:
        """Least common ancestor-or-self, or ``None`` across trees."""
        seen = {first}
        seen.update(self.ancestors(first))
        node: Optional[ShapeType] = second
        while node is not None:
            if node in seen:
                return node
            node = self._parent.get(node)
        return None

    def tree_distance(self, first: ShapeType, second: ShapeType) -> Optional[int]:
        """Edge count between two types in the shape forest."""
        meet = self.lca(first, second)
        if meet is None:
            return None
        return (self.depth(first) - self.depth(meet)) + (self.depth(second) - self.depth(meet))

    def path_down(self, ancestor: ShapeType, descendant: ShapeType) -> list[ShapeEdge]:
        """The edges from ``ancestor`` down to ``descendant`` (Definition 6)."""
        chain: list[ShapeType] = [descendant]
        node = descendant
        while node is not ancestor:
            node = self._parent.get(node)
            if node is None:
                raise ValueError(f"{ancestor} is not an ancestor of {descendant}")
            chain.append(node)
        chain.reverse()
        return [
            ShapeEdge(upper, lower, self._card[(upper, lower)])
            for upper, lower in zip(chain, chain[1:])
        ]

    def subtree(self, root: ShapeType) -> "Shape":
        """A copy of the subtree rooted at ``root`` (same type objects)."""
        result = Shape()
        result.add_type(root)
        stack = [root]
        while stack:
            node = stack.pop()
            for child in self._children.get(node, []):
                result.add_edge(node, child, self._card[(node, child)])
                stack.append(child)
        return result

    def subtree_types(self, root: ShapeType) -> list[ShapeType]:
        found: list[ShapeType] = []
        stack = [root]
        while stack:
            node = stack.pop()
            found.append(node)
            stack.extend(self._children.get(node, []))
        return found

    def walk(self) -> Iterator[tuple[ShapeType, int]]:
        """Depth-first traversal yielding ``(type, depth)`` pairs."""
        for root in self.roots():
            stack: list[tuple[ShapeType, int]] = [(root, 0)]
            while stack:
                node, depth = stack.pop()
                yield node, depth
                for child in reversed(self._children.get(node, [])):
                    stack.append((child, depth + 1))

    # -- comparison and display ------------------------------------------------

    def fingerprint(self) -> tuple:
        """Order-insensitive structural fingerprint for tests.

        Types are identified by output name and backing source path, so
        two shapes built independently compare equal when they describe
        the same structure.  Cardinalities are included.
        """

        def describe(shape_type: ShapeType) -> tuple:
            source = shape_type.source.dotted if shape_type.source else "~new"
            children = tuple(
                sorted(
                    (str(self._card[(shape_type, child)]), describe(child))
                    for child in self._children.get(shape_type, [])
                )
            )
            return (shape_type.out_name, source, children)

        return tuple(sorted(describe(root) for root in self.roots()))

    def pretty(self, show_cards: bool = True) -> str:
        """Indented textual rendering used in reports and examples."""
        lines: list[str] = []
        for root in self.roots():
            self._pretty_into(root, 0, None, lines, show_cards)
        return "\n".join(lines)

    def _pretty_into(
        self,
        node: ShapeType,
        depth: int,
        card: Card | None,
        lines: list[str],
        show_cards: bool,
    ) -> None:
        pad = "  " * depth
        suffix = "*" if node.restrict_filter else ""
        adorn = f" [{card}]" if (show_cards and card is not None) else ""
        lines.append(f"{pad}{node.out_name}{suffix}{adorn}")
        for child in self._children.get(node, []):
            self._pretty_into(child, depth + 1, self._card[(node, child)], lines, show_cards)

    def __repr__(self) -> str:
        names = ", ".join(t.out_name for t in self.roots())
        return f"<Shape roots=[{names}] types={len(self._types)}>"


def map_types(shape: Shape, mapper: Callable[[ShapeType], ShapeType]) -> Shape:
    """Rebuild a shape with every type passed through ``mapper``.

    The mapper must return a *fresh* type per call (used by ``CLONE``).
    """
    mapping: dict[ShapeType, ShapeType] = {t: mapper(t) for t in shape.types()}
    result = Shape()
    for original in shape.types():
        result.add_type(mapping[original])
    for edge in shape.edges():
        result.add_edge(mapping[edge.parent], mapping[edge.child], edge.card)
    return result
