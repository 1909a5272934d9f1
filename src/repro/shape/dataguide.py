"""Adorned-shape (DataGuide) extraction from XML data.

Definition 3: the shape of a data collection is a forest of type edges
adorned with cardinality ranges.  An edge ``(t, u, n..m)`` states that
every node of type ``t`` has between ``n`` and ``m`` children of type
``u``.  Because ``typeOf`` is the root path, the shape of a document is
exactly its DataGuide tree, and extraction is a single document-order
pass counting per-parent child occurrences.

:class:`DataGuideBuilder` is that pass's accumulator, fed node by node:
:meth:`~DataGuideBuilder.enter` when a node opens and
:meth:`~DataGuideBuilder.leave` when one with children closes.  Whoever
walks the document calls them — :meth:`~DataGuideBuilder.build` for a
forest in memory, the shredder from the walk it is making anyway — and
the per-node work is integer ids and one ``{name: id}`` lookup: a path
tuple is built once per *type*.  The :class:`Shape` objects are built
when first asked for; a caller that wants the edges as numbers
(:meth:`~DataGuideBuilder.edges`) never pays for them.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Optional

from repro.shape.shape import Shape
from repro.shape.types import DataType, ShapeType, TypeTable
from repro.xmltree.node import NodeKind, XmlForest


class DataGuideBuilder:
    """Accumulates the adorned shape and type table of a collection.

    Fed by :meth:`enter` / :meth:`leave`:

    * ``type_table`` interns every :class:`DataType` seen, ids dense in
      first-occurrence order,
    * ``counts[type id]`` is the number of nodes of the type,
    * ``is_attribute`` tells whether a type's instances are attributes
      (first-seen kind),
    * :meth:`edges` yields the adorned edges as ids and bounds, and
    * ``shape`` / ``shape_of`` are the adorned :class:`Shape` and each
      :class:`DataType`'s vertex in it, built on first use — read them
      only once the walk is over.

    :meth:`build` walks a forest through those two calls and also fills
    ``type_of`` (each :class:`~repro.xmltree.XmlNode`'s
    :class:`DataType`, by ``id(node)``) and ``has_text`` (whether any
    instance of a type carries text content).
    """

    def __init__(self) -> None:
        self.type_table = TypeTable()
        self.counts: list[int] = []
        self.is_attribute: dict[DataType, bool] = {}
        self.has_text: dict[DataType, bool] = {}
        self.type_of: dict[int, DataType] = {}
        #: ``{name: type id}`` of the root types, then of each type's children.
        self._root_ids: dict[str, int] = {}
        self._child_ids: list[dict[str, int]] = []
        #: A type has one parent type (it is a root path), so an edge is
        #: named by its child: child type id -> [min, max, parents seen].
        self._edge_stats: dict[int, list[int]] = {}
        self._parent_of: list[Optional[int]] = []

    # -- the accumulator ---------------------------------------------------

    def enter(self, parent: Optional[int], name: str, is_attribute: bool) -> int:
        """Count one node named ``name`` under a node of type ``parent``
        (``None`` for a root); returns the node's type id."""
        ids = self._root_ids if parent is None else self._child_ids[parent]
        type_id = ids.get(name)
        if type_id is None:
            above = () if parent is None else self.type_table.by_id(parent).path
            data_type = self.type_table.intern(above + (name,))
            type_id = ids[name] = data_type.type_id
            self.counts.append(0)
            self._child_ids.append({})
            self._parent_of.append(parent)
            self.is_attribute[data_type] = is_attribute
            self.has_text[data_type] = False
        self.counts[type_id] += 1
        return type_id

    def leave(self, tally: dict[int, int]) -> None:
        """Fold one finished node's children — ``{child type id: how
        many}`` — into the edges.  A node without children has nothing
        to fold and need not be reported."""
        stats = self._edge_stats
        for type_id, count in tally.items():
            edge = stats.get(type_id)
            if edge is None:
                stats[type_id] = [count, count, 1]
            else:
                if count < edge[0]:
                    edge[0] = count
                elif count > edge[1]:
                    edge[1] = count
                edge[2] += 1

    def edges(self) -> Iterator[tuple[int, int, int, int]]:
        """``(parent type id, child type id, lo, hi)`` per adorned edge.

        The one adornment rule: ``lo`` and ``hi`` are the fewest and the
        most children of the type under one parent that has any, and a
        parent with *none* drags ``lo`` to 0.
        """
        for child, (low, high, parents_seen) in self._edge_stats.items():
            parent = self._parent_of[child]
            if parents_seen < self.counts[parent]:
                low = 0
            yield parent, child, low, high

    # -- a forest in memory ------------------------------------------------

    def build(self, forest: XmlForest) -> "DataGuideBuilder":
        enter = self.enter
        by_id = self.type_table.by_id
        type_of = self.type_of
        has_text = self.has_text
        with_text: set[int] = set()
        attribute = NodeKind.ATTRIBUTE
        # One frame per open node: the siblings still to visit, their
        # parent's type and the parent's child tally so far.
        above: list[tuple[Iterator, Optional[int], dict[int, int]]] = []
        siblings, parent, tally = iter(forest.roots), None, {}
        while True:
            for node in siblings:
                type_id = enter(parent, node.name, node.kind is attribute)
                tally[type_id] = tally.get(type_id, 0) + 1
                data_type = type_of[id(node)] = by_id(type_id)
                if type_id not in with_text and node.text.strip():
                    with_text.add(type_id)
                    has_text[data_type] = True
                if node.children:
                    above.append((siblings, parent, tally))
                    siblings, parent, tally = iter(node.children), type_id, {}
                    break
            else:
                if not above:
                    return self
                self.leave(tally)
                siblings, parent, tally = above.pop()

    # -- the shape, as objects -----------------------------------------------

    @cached_property
    def shape(self) -> Shape:
        """The adorned :class:`Shape` (one :class:`ShapeType` per data type)."""
        return Shape.of_data_types(self.type_table, self.edges())

    @cached_property
    def shape_of(self) -> dict[DataType, ShapeType]:
        """Each :class:`DataType`'s vertex in :attr:`shape`."""
        return dict(zip(self.type_table, self.shape.types()))


def extract_shape(forest: XmlForest) -> Shape:
    """Extract just the adorned shape of a forest (Figure 5)."""
    return DataGuideBuilder().build(forest).shape
