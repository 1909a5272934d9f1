"""The :class:`Shape` forest (Definition 3).

A shape is a forest of :class:`~repro.shape.types.ShapeType` vertices
with cardinality-adorned parent/child edges.  Leaf edges ``(t, circ,
0..0)`` are implicit: a type with no outgoing edges is a leaf.  The
class is mutable — guard semantics builds and rewires shapes — but every
method keeps the forest invariant (at most one parent per type, no
cycles).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.shape.cardinality import Card
from repro.shape.types import DataType, ShapeType, TypeTable


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
        type_table: TypeTable,
        edges: Iterable[tuple[int, int, int, int]],
    ) -> "SourceShape":
        """The adorned shape of a collection (Definition 3): one vertex
        per type of ``type_table``, in id order, and one edge per
        ``(parent id, child id, lo, hi)``, kept in the order given; see
        :class:`SourceShape`.

        A data type is its root path, so an edge is sound exactly when
        the parent's path is the child's path minus its last step; that
        alone keeps the forest acyclic, without the ancestor walk of
        :meth:`add_edge`.  An edge that breaks it, names a type the
        table does not have, or is a second edge into one child raises
        :class:`ValueError` (or :class:`IndexError`) here, before any
        vertex is made.
        """
        paths = type_table.paths
        count = len(paths)
        parents, lows, highs = [-1] * count, [0] * count, [0] * count
        order: list[int] = []
        for parent_id, child_id, low, high in edges:
            if parent_id < 0 or child_id < 0:
                raise ValueError(f"edge {parent_id} -> {child_id} names no type")
            if paths[parent_id] != paths[child_id][:-1]:
                raise ValueError(
                    f"edge {'.'.join(paths[parent_id])} -> {'.'.join(paths[child_id])} "
                    "does not follow the type's path"
                )
            if parents[child_id] >= 0:
                raise ValueError(f"type {'.'.join(paths[child_id])} has two parents")
            parents[child_id], lows[child_id], highs[child_id] = parent_id, low, high
            order.append(child_id)
        return SourceShape(type_table, parents, lows, highs, order)

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
        for shape_type in other.types():
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

    def source_paths(self) -> Iterable[tuple[int, tuple[str, ...]]]:
        """``(type id, root path)`` of each vertex's backing data type, in
        vertex order (a ``NEW`` vertex has none)."""
        return [
            (source.type_id, source.path)
            for shape_type in self._types
            if (source := shape_type.source) is not None
        ]

    def __contains__(self, shape_type: ShapeType) -> bool:
        return shape_type in self._types

    def __len__(self) -> int:
        return len(self._types)

    def is_empty(self) -> bool:
        return not self._types

    # -- tree geometry -------------------------------------------------------
    # Read through parent() and card(), so a SourceShape answers them
    # without being made whole.

    def is_ancestor(self, ancestor: ShapeType, descendant: ShapeType) -> bool:
        node = self.parent(descendant)
        while node is not None:
            if node is ancestor:
                return True
            node = self.parent(node)
        return False

    def root_of(self, shape_type: ShapeType) -> ShapeType:
        node = shape_type
        while (up := self.parent(node)) is not None:
            node = up
        return node

    def depth(self, shape_type: ShapeType) -> int:
        depth = 0
        node = shape_type
        while (up := self.parent(node)) is not None:
            node = up
            depth += 1
        return depth

    def ancestors(self, shape_type: ShapeType) -> list[ShapeType]:
        """Ancestors from the parent up to the root."""
        chain: list[ShapeType] = []
        node = self.parent(shape_type)
        while node is not None:
            chain.append(node)
            node = self.parent(node)
        return chain

    def lca(self, first: ShapeType, second: ShapeType) -> Optional[ShapeType]:
        """Least common ancestor-or-self, or ``None`` across trees."""
        seen = {first}
        seen.update(self.ancestors(first))
        node: Optional[ShapeType] = second
        while node is not None:
            if node in seen:
                return node
            node = self.parent(node)
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
            node = self.parent(node)
            if node is None:
                raise ValueError(f"{ancestor} is not an ancestor of {descendant}")
            chain.append(node)
        chain.reverse()
        return [
            ShapeEdge(upper, lower, self.card(upper, lower))
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


class SourceShape(Shape):
    """The adorned shape of a collection, held as arrays over its type
    table (:meth:`Shape.of_data_types` builds it from edges, a stored
    document's open from its shape record's columns; both document
    indexes read it).

    Vertex ``i`` backs type ``i``.  What is kept per type is its
    parent's id (``-1`` for a root) and the :class:`Card` of the edge
    into it, and the order of a type's children: the order the edges
    were given in, or ascending ids.  A :class:`ShapeType` is made the
    first time a read reaches it: :meth:`vertex`, or :meth:`parent`,
    :meth:`children`, :meth:`card` or :meth:`ancestors` of a vertex
    already made.  The tree geometry of :class:`Shape` reads through
    :meth:`parent` and :meth:`card`, so it makes only the vertices it
    climbs through, and opening a document makes no object per type.

    A read of the whole shape (:meth:`types`, :meth:`roots`,
    :meth:`edges`, :meth:`walk`, :meth:`fingerprint`, :meth:`pretty`,
    copies, diffs) or any change makes the rest first, once: every
    :class:`Shape` method that reads the dicts a shape keeps does so,
    through :meth:`__getattr__`, since the dicts exist only in a whole
    shape.  A whole shape answers every read as a :class:`Shape`, from
    the vertices made before it: a type has one vertex however many
    threads reach it at once.
    """

    def __init__(
        self,
        type_table: TypeTable,
        parents: list[int],
        lows: Sequence[int],
        highs: Sequence[int],
        order: Optional[list[int]] = None,
    ):
        """``parents[i]`` is type ``i``'s parent id (``-1`` for a root)
        and ``lows[i]..highs[i]`` the range of the edge into it; the
        arrays are taken as sound (they follow the types' paths).
        ``order`` lists the child ids in edge order; ``None`` is
        ascending ids, the order of edges sorted by ``(parent, child)``.
        """
        # No Shape.__init__: the dicts appear when the shape is made whole.
        self._table = type_table
        self._count = count = len(parents)
        self._parents = parents
        # Edges with one range share one (frozen) Card.  A root's entry
        # is never read.
        keys = list(zip(lows, highs))
        ranges = {key: Card(*key) for key in set(keys)}
        self._cards: list[Card] = list(map(ranges.__getitem__, keys))
        self._order = order
        #: ``_made[i]``: type ``i``'s vertex, or ``None`` until made.
        self._made: list[Optional[ShapeType]] = [None] * count
        #: ``_kids[i]``: type ``i``'s child ids in edge order, built on
        #: the first :meth:`children`.
        self._kids: Optional[list[list[int]]] = None
        self._lock = threading.Lock()
        self._whole = False

    def __getattr__(self, name: str):
        # Only reached while a dict of a whole shape is missing.
        if name not in ("_types", "_children", "_parent", "_card"):
            raise AttributeError(name)
        self._make_whole()
        return self.__dict__[name]

    def vertex(self, data_type: DataType) -> Optional[ShapeType]:
        """The vertex backing ``data_type``; ``None`` for a type this
        shape does not have."""
        type_id = data_type.type_id
        if 0 <= type_id < self._count and self._table.paths[type_id] == data_type.path:
            return self._vertex(type_id)
        return None

    def _vertex(self, type_id: int) -> ShapeType:
        vertex = self._made[type_id]
        if vertex is None:
            with self._lock:
                vertex = self._made[type_id] or self._new_vertex(type_id)
        return vertex

    def _new_vertex(self, type_id: int) -> ShapeType:
        # The caller holds _lock and has seen no vertex for the type.
        data_type = self._table.by_id(type_id)
        # ShapeType.for_source, inlined.
        vertex = self._made[type_id] = ShapeType(data_type, data_type.path[-1])
        return vertex

    def _make_whole(self) -> None:
        with self._lock:
            if self._whole:
                return
            made = self._made
            for type_id in range(self._count):
                if made[type_id] is None:
                    self._new_vertex(type_id)
            parents, cards = self._parents, self._cards
            kids = self._child_ids()
            self._types = dict.fromkeys(made)
            self._children = {
                vertex: [made[child] for child in kids[type_id]]
                for type_id, vertex in enumerate(made)
            }
            edges = [(child, parent) for child, parent in enumerate(parents) if parent >= 0]
            self._parent = {made[child]: made[parent] for child, parent in edges}
            self._card = {(made[parent], made[child]): cards[child] for child, parent in edges}
            self._whole = True

    def _child_ids(self) -> list[list[int]]:
        # Lock-free: threads racing on the first call build equal lists.
        kids = self._kids
        if kids is None:
            kids = [[] for _ in range(self._count)]
            parents = self._parents
            for child in range(self._count) if self._order is None else self._order:
                if parents[child] >= 0:
                    kids[parents[child]].append(child)
            self._kids = kids
        return kids

    def _id_of(self, shape_type: ShapeType) -> Optional[int]:
        """The type id ``shape_type`` is the vertex of, ``None`` when it
        is not one of this shape's."""
        source = shape_type.source
        if source is not None and 0 <= source.type_id < self._count:
            if self._made[source.type_id] is shape_type:
                return source.type_id
        return None

    # -- reads answered without making the whole shape ------------------------
    # Once whole, the shape may have been changed: Shape's answers hold.

    def parent(self, shape_type: ShapeType) -> Optional[ShapeType]:
        if self._whole:
            return super().parent(shape_type)
        type_id = self._id_of(shape_type)
        if type_id is None or (parent_id := self._parents[type_id]) < 0:
            return None
        return self._vertex(parent_id)

    def card(self, parent: ShapeType, child: ShapeType) -> Card:
        if self._whole:
            return super().card(parent, child)
        type_id = self._id_of(child)
        if type_id is None or self.parent(child) is not parent:
            raise KeyError((parent, child))
        return self._cards[type_id]

    def children(self, shape_type: ShapeType) -> list[ShapeType]:
        if self._whole:
            return super().children(shape_type)
        type_id = self._id_of(shape_type)
        if type_id is None:
            return []
        return [self._vertex(child) for child in self._child_ids()[type_id]]

    def source_paths(self) -> Iterable[tuple[int, tuple[str, ...]]]:
        if self._whole:
            return super().source_paths()
        return zip(range(self._count), self._table.paths)


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
