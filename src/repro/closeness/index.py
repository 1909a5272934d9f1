"""The document index: type sequences, type distances, closest pairs.

This is the in-memory form of what the shredder stores (Figure 8's
``TypeToSequence`` table plus the adorned shape), built by the same
walk: one :class:`~repro.shape.dataguide.DataGuideBuilder` pass over a
forest gives, for every data type, a document-ordered sequence of its
nodes, held as **parallel columns** — a :class:`TypeSequence` of packed
sibling-ordinal Dewey labels, values and attribute flags, the store's
layout — in which a node *is* its position.  Everything the render
algorithm needs — type distances and closest joins — is computed from
the labels (:mod:`repro.xmltree.dewey`: byte order is document order,
ancestor-of is prefix-of), so a read never builds an object per node:

* ``typeDistance(t, s)`` is ``level(t) + level(s) - 2 * L`` where ``L``
  is the deepest level at which a ``t`` node and an ``s`` node share an
  ancestor.  It is found with a single merge of the two label columns
  (the longest common prefix of any cross pair is achieved by some pair
  adjacent in merged document order, :func:`~repro.xmltree.dewey.lca_level`
  per step).  A stored index derives it from root paths instead
  (docs/STORAGE.md, "Known divergence").

* the *closest pairs* of ``t`` and ``s`` are the cross pairs whose least
  common ancestor sits exactly at the level implied by the type
  distance.  Section VII's closest join finds them with one primitive,
  :func:`group_by_prefix`: group the positions of a document-ordered
  label column on the label prefix of that LCA level; the partners of a
  node are the group under its own prefix.  It is the only grouping loop
  in this module — pair maps, RESTRICT semi-joins and node-level pairs
  all read the groups :class:`BaseIndex` memoizes per ``(type, prefix
  width)``.

``XmlNode`` + ``Dewey`` objects exist only at the API edge: an
in-memory sequence holds the forest's own nodes, and a stored one
materializes its nodes once, the first time somebody indexes or
iterates it (the tree sink's provenance).  The one ``id()``-keyed map
left here, each handed-out node's ``(type, position)``, is built the
first time somebody asks for it (:meth:`BaseIndex.position_of`).
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Iterable, Iterator, Optional

from repro.errors import RetiredDocumentError
from repro.obs import tracer as obs
from repro.shape.dataguide import DataGuideBuilder, walk
from repro.shape.shape import Shape, SourceShape
from repro.shape.types import DataType, ShapeType, TypeTable
from repro.xmltree.dewey import lca_level, prefix, prefixes, unpack
from repro.xmltree.node import NodeKind, XmlForest, XmlNode
from repro.xmltree.serializer import escape_texts, json_text, json_texts


class TypeSequence:
    """One data type's nodes in document order, as parallel columns.

    ``labels[i]`` is node ``i``'s packed Dewey label, ``values[i]`` its
    text and ``attributes[i]`` 1 if it is an attribute, else 0; the
    position ``i`` is what joins, pair maps and generated renderers pass
    around.  The columns are immutable once built, and two loads of one
    type yield the same positions.

    :attr:`escaped` is ``values`` escaped as XML character data, built
    on first use and then kept, so a render writes a node's text as is
    however many parents it is copied under.  :attr:`json` is that
    column escaped once more, as the body of a JSON string, for the
    served answer.  :meth:`leaves` is a column of whole leaf elements
    per ``(flavour, output name)``: the text sink copies a leaf child
    with one read and one write.  All of them live and die with the
    sequence: a dropped or updated index's successor builds its own.

    Indexing or iterating the sequence hands out the nodes as
    ``XmlNode`` s (:attr:`nodes`): an in-memory index's are the forest's
    own, a stored one's are built on first use and then kept.

    The index owns its sequences, not the reverse: a sequence refers to
    its index weakly (it needs it once, to materialize), so an index
    nothing else holds — a stored document's after every update — is
    freed with its columns and join memo when it is let go, not when
    the collector next gets round to a cycle.  A stored sequence asked
    for its nodes after that raises
    :class:`~repro.errors.RetiredDocumentError` (``XM570``).
    """

    __slots__ = (
        "data_type", "labels", "values", "attributes", "holds_attributes", "_escaped",
        "_json", "_leaves", "_nodes", "_index", "_document",
    )

    def __init__(
        self,
        index: "BaseIndex",
        data_type: DataType,
        labels: list[bytes],
        values: list[str],
        attributes: bytes | bytearray,
        nodes: Optional[list[XmlNode]] = None,
    ):
        self.data_type = data_type
        self.labels = labels
        self.values = values
        self.attributes = attributes
        #: Whether any node is an attribute: one ``memchr`` per load.
        self.holds_attributes = 1 in attributes
        self._escaped: Optional[list[str]] = None
        self._json: Optional[list[str]] = None
        #: (flavour, output name) -> :meth:`leaves` column.
        self._leaves: dict[tuple[str, str], list[str]] = {}
        self._nodes = nodes
        self._index = index if index is None else weakref.proxy(index)
        #: The stored document's name, for when the index is gone.
        self._document = getattr(index, "name", None)

    @property
    def nodes(self) -> list[XmlNode]:
        """The sequence as node objects (materialized once, then shared)."""
        nodes = self._nodes
        if nodes is None:
            try:
                materialize = self._index._materialize
            except ReferenceError:
                raise RetiredDocumentError(
                    self._document, "released by its handle"
                ) from None
            nodes = materialize(self)
        return nodes

    @property
    def escaped(self) -> list[str]:
        """``values`` escaped by :func:`escape_texts` (built once, then shared).

        Lock-free: two threads racing on the first build each escape
        the column and store equal lists; the last store is kept, and
        either list renders the same bytes.
        """
        escaped = self._escaped
        if escaped is None:
            escaped = self._escaped = escape_texts(self.values)
        return escaped

    @property
    def json(self) -> list[str]:
        """:attr:`escaped` as JSON string bodies (:func:`json_texts`;
        built once, then shared, lock-free like :attr:`escaped`)."""
        column = self._json
        if column is None:
            column = self._json = json_texts(self.escaped)
        return column

    def leaves(self, flavour: str, name: str) -> list[str]:
        """Each node as a whole leaf element named ``name``, in ``flavour``.

        ``flavour`` is ``"escaped"`` (XML) or ``"json"`` (a JSON string
        body); entry ``i`` is ``<name>text</name>``, or ``<name/>`` for an
        empty text, made of that column's text and the tags in that
        flavour, so nothing is escaped here but the tags' JSON form.  An
        attribute's entry is ``""``: it goes into its parent's start
        tag, never into the parent's content.  Built once per ``(flavour,
        name)``, then shared, lock-free like :attr:`escaped`; an empty
        sequence (a render's stand-in for an edge it never reached)
        memoizes nothing.
        """
        key = (flavour, name)
        column = self._leaves.get(key)
        if column is None:
            tags = f"<{name}>", f"</{name}>", f"<{name}/>"
            if flavour == "json":
                tags = tuple(map(json_text, tags))
            start, end, empty = tags
            column = [
                "" if attribute else start + text + end if text else empty
                for text, attribute in zip(getattr(self, flavour), self.attributes)
            ]
            if column:
                self._leaves[key] = column
        return column

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, position):
        return self.nodes[position]

    def __iter__(self) -> Iterator[XmlNode]:
        return iter(self.nodes)

    def __eq__(self, other: object):
        # For tests only: tests/engine/test_parity.py asserts
        # ``nodes_of(phantom) == []`` and stays byte-unchanged as the
        # independent oracle.  Comparing to a list materializes every
        # node of the type; nothing under src/ does it.
        return self.nodes == other if isinstance(other, list) else self is other

    __hash__ = object.__hash__


class BaseIndex:
    """Shared closest-join machinery over type sequences.

    Both indexes have one column layout and one shape source: a type
    table, the adorned shape with one vertex per type in id order (a
    :class:`~repro.shape.shape.SourceShape`, which makes a vertex when
    a read first reaches its type), each type's node count, and per
    type a :class:`TypeSequence` of packed sibling-ordinal labels,
    values and attribute flags.  The in-memory
    :class:`DocumentIndex` gets them from the
    :class:`~repro.shape.dataguide.DataGuideBuilder` it walks a forest
    into; the storage-backed
    :class:`~repro.storage.database.StoredDocumentIndex` from the
    records the shredder wrote from the same builder.  So
    :meth:`types`, :meth:`shape_vertex`, :meth:`node_count` and
    :meth:`count_of` are defined here, once.  Subclasses provide
    ``nodes_of`` (from memory or from pages) and ``type_distance`` —
    the one difference between the two: exact (Definition 1's minimum
    over instances) in memory, derived from root paths on the store.

    There is one join memo, on positions and keyed on data only (type
    ids, widths, filter vertex uids): a type's positions grouped on a
    label prefix width (:func:`group_by_prefix`, built at most once per
    ``(type, width)``), and on top of that per-type-pair closest-join
    maps (:meth:`closest_pair_map`) and RESTRICT semi-join survivors
    (:meth:`restrict_pass`), shared by both sinks of every plan's
    emitter.  It is dropped together with the
    sequences (:meth:`drop_join_cache`).

    A group list is *shared*: every anchor under one prefix maps to the
    same list object, so a pair map costs one entry per anchor, not one
    per pair.  Callers must treat groups, maps and their lists as
    immutable.
    """

    def __init__(self, type_table: TypeTable, shape: SourceShape, counts: list[int]) -> None:
        self.type_table = type_table
        #: The adorned shape, one vertex per type in id order
        #: (:meth:`Shape.of_data_types`), each made on first use.
        self.shape = shape
        #: ``counts[type id]``: the type's number of nodes.
        self._counts = counts
        #: ("groups", type_id, width) -> {label prefix: [positions]};
        #: ("pairs", anchor type_id, partner type_id) -> [partner group
        #: or None, per anchor position]; ("survivors", type_id, filter
        #: vertex uid) -> [positions passing the filter].
        self._joins: dict[tuple, object] = {}
        #: id(node handed out) -> (its type, its position); built on the
        #: first :meth:`position_of`, then kept up to date.
        self._position_of: Optional[dict[int, tuple[DataType, int]]] = None
        #: Guards the memo, node materialization and, in subclasses, lazy
        #: sequence loads: a parallel executor renders many guards over
        #: one shared index, and every hit must see a fully-built value.
        #: Re-entrant because the survivors and pair maps nest inside the
        #: group memo.
        self._memo_lock = threading.RLock()
        self.join_cache_hits = 0
        self.join_cache_misses = 0

    # Subclass responsibilities ------------------------------------------------

    def type_distance(self, first: DataType, second: DataType) -> Optional[int]:
        raise NotImplementedError

    def nodes_of(self, data_type: DataType) -> TypeSequence:
        raise NotImplementedError

    # The shape and the counts --------------------------------------------------

    def types(self) -> list[DataType]:
        return list(self.type_table)

    def shape_vertex(self, data_type: DataType) -> Optional[ShapeType]:
        """The vertex of ``data_type`` in the source shape; ``None`` for
        a type the document does not have."""
        return self.shape.vertex(data_type)

    def node_count(self) -> int:
        return sum(self._counts)

    def count_of(self, data_type: DataType) -> int:
        """Cardinality of a type's sequence (the ``pathcard`` statistic),
        without loading it.  The plan compiler reports it per edge
        (``EXPLAIN ANALYZE``) and bakes the synthesized-empty placeholder
        decision into generated renderers from it."""
        if self.shape_vertex(data_type) is None:
            return 0
        return self._counts[data_type.type_id]

    def record_timing(self, name: str, seconds: float) -> None:
        """Report a measured latency (join builds).  The base feeds the
        current tracer; storage-backed indexes also feed the database's
        lifetime histograms."""
        obs.observe(name, seconds)

    # Nodes at the API edge ------------------------------------------------------

    def _materialize(self, sequence: TypeSequence) -> list[XmlNode]:
        """Build ``sequence``'s nodes (and file them, once somebody has
        asked where a node sits)."""
        with self._memo_lock:
            if sequence._nodes is None:
                data_type = sequence.data_type
                nodes = []
                for position, label in enumerate(sequence.labels):
                    kind = (
                        NodeKind.ATTRIBUTE
                        if sequence.attributes[position]
                        else NodeKind.ELEMENT
                    )
                    node = XmlNode(data_type.name, kind, sequence.values[position])
                    node.dewey = unpack(label)
                    nodes.append(node)
                sequence._nodes = nodes
                if self._position_of is not None:
                    _file_positions(self._position_of, sequence)
            return sequence._nodes

    def _loaded_sequences(self) -> Iterable[TypeSequence]:
        """The sequences this index holds now (subclasses)."""
        raise NotImplementedError

    def position_of(self, node: XmlNode) -> tuple[DataType, int]:
        """``(type, position)`` of a node this index handed out.

        The map behind it is built on the first call, from the nodes
        handed out so far; nothing in a transform reads it.
        """
        positions = self._position_of
        if positions is None:
            with self._memo_lock:
                positions = self._position_of
                if positions is None:
                    positions = {}
                    for sequence in self._loaded_sequences():
                        if sequence._nodes is not None:
                            _file_positions(positions, sequence)
                    self._position_of = positions
        return positions[id(node)]

    def type_of(self, node: XmlNode) -> DataType:
        """The paper's ``typeOf(v)`` for a node of the indexed document."""
        return self.position_of(node)[0]

    # Derived operations ----------------------------------------------------------

    def closest_lca_level(self, first: DataType, second: DataType) -> Optional[int]:
        """The level at which closest pairs of the two types meet.

        Derived from the join predicate
        ``distance(n, LCA) + distance(u, LCA) = typeDistance(n, u)``:
        since type levels are fixed, the LCA level is
        ``(level(t) + level(s) - typeDistance(t, s)) / 2``.
        """
        distance = self.type_distance(first, second)
        if distance is None:
            return None
        return (first.level + second.level - distance) // 2

    def _partner_groups(
        self, first: DataType, second: DataType
    ) -> tuple[int, dict[bytes, list[int]]]:
        """``(width, groups)``: ``second``'s positions grouped on the
        prefix at which it meets ``first``; the closest partners of a
        ``first`` node are ``groups.get(prefix(label, width))``.

        No groups when the types never pair: no shared root, or the same
        type — a node is never its own closest partner, and at distance
        0 the prefix is the whole label, so it would be its only one.
        """
        level = None if first == second else self.closest_lca_level(first, second)
        if level is None:
            return 0, {}
        width = level + 1
        key = ("groups", second.type_id, width)
        with self._memo_lock:
            groups = self._joins.get(key)
            if groups is None:
                groups = group_by_prefix(self.nodes_of(second).labels, width)
                self._joins[key] = groups
        return width, groups

    def closest_pair_map(
        self, first: DataType, second: DataType
    ) -> list[Optional[list[int]]]:
        """Memoized full closest join, aligned with ``first``'s positions.

        Entry ``i`` is the list of ``second`` positions closest to
        ``first``'s node ``i``, in document order, or ``None`` when it
        has no partner.  Because each anchor's partner list depends only
        on that anchor's label prefix, the full map serves any subset of
        anchors — this is what lets every renderer and sink share one
        join per shape edge — and every anchor under one prefix holds
        the *same* list, the memoized group itself.  Callers must treat
        the returned map and its lists as immutable.
        """
        key = ("pairs", first.type_id, second.type_id)
        with self._memo_lock:
            cached = self._joins.get(key)
            if cached is not None:
                self.join_cache_hits += 1
                obs.count("join_cache.hits")
                return cached
            self.join_cache_misses += 1
            obs.count("join_cache.misses")
            started = time.perf_counter()
            labels = self.nodes_of(first).labels
            width, groups = self._partner_groups(first, second)
            if groups:
                mapping = list(map(groups.get, prefixes(labels, width)))
            else:
                mapping = [None] * len(labels)
            self._joins[key] = mapping
            self.record_timing("join.build_seconds", time.perf_counter() - started)
            return mapping

    def restrict_pass(self, data_type: DataType, filter_shape: Shape) -> list[int]:
        """The positions of ``data_type`` passing a RESTRICT filter shape.

        A node passes when, for every source-backed child of the filter
        vertex, it has at least one closest partner that itself passes
        the child's sub-filter.  Survivors are computed bottom-up per
        filter edge — one verdict per partner group, one lookup per node
        (O(n+m)) — and memoized per (type, filter vertex) pair; the
        returned list is the memo's, in document order.
        """
        root = filter_shape.roots()[0]
        # The filter's vertices, each after its source-backed children,
        # whose survivors it reads from the memo.
        pending, order = [(data_type, root)], []
        while pending:
            node_type, vertex = pending.pop()
            order.append((node_type, vertex))
            pending.extend(
                (child.source, child)
                for child in filter_shape.children(vertex)
                if child.source is not None
            )
        with self._memo_lock:
            for node_type, vertex in reversed(order):
                survivors = self._filter_survivors(node_type, filter_shape, vertex)
        return survivors

    def _filter_survivors(
        self, data_type: DataType, filter_shape: Shape, vertex: ShapeType
    ) -> list[int]:
        # Caller holds _memo_lock and has memoized the children's survivors.
        key = ("survivors", data_type.type_id, vertex.uid)
        cached = self._joins.get(key)
        if cached is not None:
            return cached
        labels = self.nodes_of(data_type).labels
        survivors = list(range(len(labels)))
        for child in filter_shape.children(vertex):
            if child.source is None or not survivors:
                continue
            partner_ok = set(self._joins[("survivors", child.source.type_id, child.uid)])
            width, groups = self._partner_groups(data_type, child.source)
            alive = {
                head
                for head, group in groups.items()
                if not partner_ok.isdisjoint(group)
            }
            heads = prefixes(labels, width)
            survivors = [p for p in survivors if heads[p] in alive]
        self._joins[key] = survivors
        return survivors

    def drop_join_cache(self) -> None:
        """Forget memoized groups/joins/filters (on sequence invalidation)."""
        with self._memo_lock:
            self._joins.clear()

    # Node-level view of the joins (quantified loss, tests) ------------------------

    def closest_pairs(
        self, first: DataType, second: DataType
    ) -> Iterator[tuple[XmlNode, XmlNode]]:
        """All closest pairs ``(v: first, w: second)`` in document order.

        The paper's closest join: both type sequences are already in
        document order, so grouping on the label prefix of the required
        LCA level and pairing within equal groups costs one pass over
        each plus the output size.
        """
        width, groups = self._partner_groups(first, second)
        if groups:
            anchors, partners = self.nodes_of(first), self.nodes_of(second).nodes
            for anchor, label in zip(anchors, anchors.labels):
                for position in groups.get(prefix(label, width), ()):
                    yield anchor, partners[position]


class DocumentIndex(BaseIndex):
    """In-memory index of one XML forest, with exact type distances.

    One :func:`~repro.shape.dataguide.walk` of the forest into a
    :class:`~repro.shape.dataguide.DataGuideBuilder` — the builder the
    shredder feeds — gives the shape, the counts and every type's
    columns; each :class:`TypeSequence` keeps the forest's own nodes of
    its type as :attr:`~TypeSequence.nodes`, so provenance points at the
    caller's nodes.
    """

    def __init__(self, forest: XmlForest):
        builder = DataGuideBuilder()
        nodes = walk(forest, builder)
        super().__init__(builder.type_table, builder.shape, builder.counts)
        self.forest = forest
        self.is_attribute: dict[DataType, bool] = builder.is_attribute
        self._sequences = [
            TypeSequence(self, *columns)
            for columns in zip(
                builder.type_table, builder.labels, builder.values, builder.attributes, nodes
            )
        ]
        self._distance_cache: dict[tuple[DataType, DataType], Optional[int]] = {}

    def _loaded_sequences(self) -> list[TypeSequence]:
        return self._sequences

    def nodes_of(self, data_type: DataType) -> TypeSequence:
        """Document-ordered sequence of the nodes of a type (empty for a
        type this forest does not have)."""
        if self.shape_vertex(data_type) is None:
            return TypeSequence(self, data_type, [], [], b"", [])
        return self._sequences[data_type.type_id]

    # -- type distance (Definition 1's typeDistance) -----------------------

    def type_distance(self, first: DataType, second: DataType) -> Optional[int]:
        """Exact minimal distance between instances of two types.

        ``None`` when no pair of instances shares a root (possible in a
        multi-rooted forest).  ``type_distance(t, t)`` is 0.

        ``DataType`` is value-equal, so the self-distance shortcut (and
        every join-path comparison) uses ``==`` rather than identity:
        cached plans may carry equal-but-distinct instances from an
        earlier index epoch.
        """
        if first == second:
            return 0
        key = (first, second) if first.type_id <= second.type_id else (second, first)
        if key in self._distance_cache:
            return self._distance_cache[key]
        distance = self._compute_distance(key[0], key[1])
        self._distance_cache[key] = distance
        return distance

    def _compute_distance(self, first: DataType, second: DataType) -> Optional[int]:
        # Merge the two label columns in document order: the deepest
        # ancestor level any cross pair shares is reached by a pair
        # adjacent in the merged order, and each step compares the label
        # it passes with the other column's next one, which covers every
        # such pair.
        left, right = self.nodes_of(first).labels, self.nodes_of(second).labels
        deepest = -1
        i = j = 0
        while i < len(left) and j < len(right):
            shared = lca_level(left[i], right[j])
            if shared > deepest:
                deepest = shared
            if left[i] < right[j]:
                i += 1
            else:
                j += 1
        if deepest < 0:
            return None
        return (first.level - deepest) + (second.level - deepest)


def _file_positions(positions: dict[int, tuple[DataType, int]], sequence: TypeSequence) -> None:
    data_type = sequence.data_type
    positions.update(
        (id(node), (data_type, position)) for position, node in enumerate(sequence._nodes)
    )


def group_by_prefix(labels: list[bytes], width: int) -> dict[bytes, list[int]]:
    """Section VII's grouping: the positions of ``labels`` by their first
    ``width`` components, each group in input (document) order.

    A node shallower than ``width`` has no ancestor-or-self at that
    level and joins no group.
    """
    groups: dict[bytes, list[int]] = {}
    for position, head in enumerate(prefixes(labels, width)):
        if head is not None:
            group = groups.get(head)
            if group is None:
                groups[head] = [position]
            else:
                group.append(position)
    return groups

