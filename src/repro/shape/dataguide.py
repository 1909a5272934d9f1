"""The one document walk: labels, types, adornments and type columns.

Definition 3: the shape of a data collection is a forest of type edges
adorned with cardinality ranges.  An edge ``(t, u, n..m)`` states that
every node of type ``t`` has between ``n`` and ``m`` children of type
``u``.  Because ``typeOf`` is the root path, the shape of a document is
exactly its DataGuide tree, and extraction is a single document-order
pass counting per-parent child occurrences.

:class:`DataGuideBuilder` is that pass, fed node by node as the paper's
SAX shredder (Figure 8) is: ``start`` / ``attribute`` / ``end`` — from
the tokenizer when the source is text, from :func:`walk` when it is a
forest.  As a node goes by it gets everything a type sequence holds:

* its label, its parent's label plus its ordinal among its siblings
  (:func:`repro.xmltree.dewey.child` — the store's labels, whatever
  ``dewey`` a forest's nodes carry);
* its type, from :meth:`~DataGuideBuilder.enter`, which interns a path
  once per *type* (the per-node work is integer ids and one ``{name:
  id}`` lookup);
* the tally of its children's types, folded into the adornments by
  :meth:`~DataGuideBuilder.leave` when it ends;
* its place in its type's columns — label, text, attribute flag.  Nodes
  of one type never nest (a type is a root path), so they end in the
  order they start and each column is in document order.

Everything that reads a document's types is fed from here: the
shredder encodes the columns as records, the in-memory
:class:`~repro.closeness.DocumentIndex` holds them as its type
sequences, and :func:`extract_shape` / ``forest_to_dtd`` read the
adorned :attr:`~DataGuideBuilder.shape`.  An update labels the
subtrees it inserts here too: :meth:`~DataGuideBuilder.resume` seeds a
builder with a stored document's types, parents and counts, and
:meth:`~DataGuideBuilder.place` says whose child the next node is, so
its columns hold the inserted nodes, labelled and typed as a re-shred
would.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Optional

from repro.shape.shape import Shape
from repro.shape.types import DataType, TypeTable
from repro.xmltree.dewey import child
from repro.xmltree.node import NodeKind, XmlForest, XmlNode

# A frame's slots: the node's label, its type id, how many children it
# has had, their tally by type id, and whether it is an attribute.
_LABEL, _TYPE, _CHILDREN, _TALLY = range(4)


class DataGuideBuilder:
    """Accumulates a document's adorned shape, type table and columns.

    Fed by ``start`` / ``attribute`` / ``end`` (the tokenizer's handler
    interface; :func:`walk` reports a forest the same way).  Once the
    document has ended:

    * ``type_table`` interns every :class:`DataType` seen, ids dense in
      first-occurrence order,
    * ``counts[type id]`` is the number of nodes of the type,
    * ``parent_of[type id]`` is the id of the type's parent type
      (``None`` for a root type),
    * ``is_attribute`` tells whether a type's instances are attributes
      (first-seen kind),
    * ``has_text`` holds the ids of the types some instance of which
      carries text,
    * ``labels`` / ``values`` / ``attributes`` ``[type id]`` are the
      type's columns — packed labels, texts, attribute flags — in
      document order,
    * :meth:`edges` yields the adorned edges as ids and bounds, and
      :attr:`shape` is the adorned :class:`Shape`, built on first use.
    """

    def __init__(self) -> None:
        self.type_table = TypeTable()
        self.counts: list[int] = []
        self.parent_of: list[Optional[int]] = []
        self.is_attribute: dict[DataType, bool] = {}
        self.has_text: set[int] = set()
        self.labels: list[list[bytes]] = []
        self.values: list[list[str]] = []
        self.attributes: list[bytearray] = []
        #: ``{name: type id}`` of the root types, then of each type's children.
        self._root_ids: dict[str, int] = {}
        self._child_ids: list[dict[str, int]] = []
        #: A type has one parent type (it is a root path), so an edge is
        #: named by its child: child type id -> [min, max, parents seen].
        self._edge_stats: dict[int, list[int]] = {}
        #: One frame per open node, under the forest's own.
        self._open: list[list] = [[b"", None, 0, {}, False]]

    @classmethod
    def resume(
        cls, type_table: TypeTable, parents: list[int], counts: list[int]
    ) -> "DataGuideBuilder":
        """A builder holding a stored document's types — ids kept — and
        their counts: ``type_table`` takes the types the batch interns,
        ``parents[i]`` is type ``i``'s parent id (``-1`` for a root,
        always below ``i``), as a stored shape record holds them.  Its
        columns start empty; see :meth:`place`.  (It knows no stored
        type's kind: ``is_attribute`` holds the new types only.)
        """
        builder = cls()
        builder.type_table = type_table
        for type_id, (path, parent) in enumerate(zip(type_table.paths, parents)):
            above = None if parent < 0 else parent
            ids = builder._root_ids if above is None else builder._child_ids[above]
            ids[path[-1]] = type_id
            builder._add_type(above)
        builder.counts = list(counts)
        return builder

    def place(self, parent: bytes, parent_type: Optional[int], before: int) -> None:
        """Report the next node as the ``before + 1``-th child of the node
        labelled ``parent``, of type ``parent_type`` (``b""`` and
        ``None``: the forest)."""
        self._open = [[parent, parent_type, before, {}, False]]

    def placed(self) -> int:
        """The ordinal of the last child reported under the placed parent."""
        return self._open[0][_CHILDREN]

    # -- node events -------------------------------------------------------

    def start(self, name: str, is_attribute: bool = False) -> int:
        """A node named ``name`` opens; returns its type id."""
        parent = self._open[-1]
        parent[_CHILDREN] += 1
        type_id = self.enter(parent[_TYPE], name, is_attribute)
        tally = parent[_TALLY]
        tally[type_id] = tally.get(type_id, 0) + 1
        label = child(parent[_LABEL], parent[_CHILDREN])
        self._open.append([label, type_id, 0, {}, is_attribute])
        return type_id

    def attribute(self, name: str, value: str) -> None:
        self.start(name, True)
        self.end(value)

    def end(self, text: str) -> None:
        """The open node closes; ``text`` is its own character data."""
        label, type_id, _children, tally, is_attribute = self._open.pop()
        if tally:
            self.leave(tally)
        if text and type_id not in self.has_text and text.strip():
            self.has_text.add(type_id)
        self.labels[type_id].append(label)
        self.values[type_id].append(text)
        self.attributes[type_id].append(is_attribute)

    # -- the accumulator ---------------------------------------------------

    def enter(self, parent: Optional[int], name: str, is_attribute: bool) -> int:
        """Count one node named ``name`` under a node of type ``parent``
        (``None`` for a root); returns the node's type id."""
        ids = self._root_ids if parent is None else self._child_ids[parent]
        type_id = ids.get(name)
        if type_id is None:
            above = () if parent is None else self.type_table.paths[parent]
            data_type = self.type_table.intern(above + (name,))
            type_id = ids[name] = data_type.type_id
            self.is_attribute[data_type] = is_attribute
            self._add_type(parent)
        self.counts[type_id] += 1
        return type_id

    def _add_type(self, parent: Optional[int]) -> None:
        self.counts.append(0)
        self._child_ids.append({})
        self.parent_of.append(parent)
        self.labels.append([])
        self.values.append([])
        self.attributes.append(bytearray())

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
        for child_id, (low, high, parents_seen) in self._edge_stats.items():
            parent = self.parent_of[child_id]
            if parents_seen < self.counts[parent]:
                low = 0
            yield parent, child_id, low, high

    @cached_property
    def shape(self) -> Shape:
        """The adorned :class:`Shape` (one vertex per data type, in id order)."""
        return Shape.of_data_types(self.type_table, self.edges())


def walk(forest: XmlForest, builder: DataGuideBuilder) -> list[list[XmlNode]]:
    """Report a forest's vertices to ``builder`` in document order, with
    an explicit stack (no recursion); returns each type's nodes, by type
    id, in the order of its columns — none for a type the builder
    already held and the forest has no node of."""
    start, end = builder.start, builder.end
    attribute = NodeKind.ATTRIBUTE
    filed: list[list[XmlNode]] = [[] for _ in builder.counts]
    above: list[tuple[Iterator[XmlNode], Optional[XmlNode]]] = []
    siblings, parent = iter(forest.roots), None
    while True:
        for node in siblings:
            type_id = start(node.name, node.kind is attribute)
            if type_id == len(filed):
                filed.append([node])
            else:
                filed[type_id].append(node)
            if node.children:
                above.append((siblings, parent))
                siblings, parent = iter(node.children), node
                break
            end(node.text)
        else:
            if parent is None:
                return filed
            end(parent.text)
            siblings, parent = above.pop()


def extract_shape(forest: XmlForest) -> Shape:
    """Extract just the adorned shape of a forest (Figure 5)."""
    builder = DataGuideBuilder()
    walk(forest, builder)
    return builder.shape
