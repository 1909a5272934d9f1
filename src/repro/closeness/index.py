"""The document index: type sequences, type distances, closest pairs.

This is the in-memory form of what the shredder stores (Figure 8's
``TypeToSequence`` table plus the adorned shape): for every data type, a
document-ordered sequence of its nodes.  Everything the render algorithm
needs — type distances and closest joins — is computed from the Dewey
numbers in these sequences:

* ``typeDistance(t, s)`` is ``level(t) + level(s) - 2 * L`` where ``L``
  is the deepest level at which a ``t`` node and an ``s`` node share an
  ancestor.  The deepest shared-ancestor level between two sorted node
  lists is found with a single merge pass (the longest common prefix of
  any cross pair is achieved by some pair adjacent in merged document
  order).

* the *closest pairs* of ``t`` and ``s`` are the cross pairs whose least
  common ancestor sits exactly at the level implied by the type
  distance.  Section VII's closest join finds them with one primitive,
  :func:`group_by_prefix`: group a document-ordered type sequence on
  the Dewey prefix of that LCA level; the partners of a node are the
  group under its own prefix.  It is the only grouping loop in this
  module — pair maps, RESTRICT semi-joins and per-node lookups all read
  the groups :class:`BaseIndex` memoizes per ``(type, prefix width)``.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator, Optional

from repro.obs import tracer as obs
from repro.shape.dataguide import DataGuideBuilder
from repro.shape.shape import Shape
from repro.shape.types import DataType, ShapeType, TypeTable
from repro.xmltree.node import XmlForest, XmlNode


class BaseIndex:
    """Shared closest-join machinery over abstract type sequences.

    Subclasses provide ``type_distance``, ``nodes_of``, ``type_of`` and
    the shape/type-table attributes; this base derives the closest-pair
    operations from them.  :class:`DocumentIndex` is the in-memory
    implementation with *exact* data type distances; the storage-backed
    :class:`~repro.storage.database.StoredDocumentIndex` reuses the same
    joins with shape-derived distances.

    Every operation reads one memo: a type's sequence grouped on a
    Dewey prefix width (:func:`group_by_prefix`), built at most once
    per ``(type, width)``.  On top of it the base memoizes
    per-type-pair closest-join maps (:meth:`closest_pair_map`) and
    RESTRICT semi-join survivor sets (:meth:`restrict_pass`), shared by
    the reference renderer and both sinks of the compiled one.  All
    three key on data only (type ids, widths, filter vertex uids) and
    must be dropped together with the node sequences
    (:meth:`drop_join_cache`).

    A group list is *shared*: every anchor under one prefix maps to the
    same list object, and :meth:`closest_partners` hands it out as is,
    so a pair map costs one entry per anchor, not one per pair.
    Callers must treat groups, maps and their lists as immutable.
    """

    shape: Shape
    type_table: TypeTable

    def __init__(self) -> None:
        #: (type_id, prefix width) -> {Dewey prefix: [nodes in document order]}
        self._groups: dict[tuple[int, int], dict[tuple[int, ...], list[XmlNode]]] = {}
        #: (anchor type_id, partner type_id) -> {id(anchor node): partner group}
        self._pair_maps: dict[tuple[int, int], dict[int, list[XmlNode]]] = {}
        #: (type_id, filter vertex uid) -> ids of nodes passing the filter
        self._filter_memo: dict[tuple[int, int], set[int]] = {}
        #: Guards the memos (and, in subclasses, lazy sequence loads):
        #: a parallel executor renders many guards over one shared index,
        #: and every hit must see a fully-built map.  Re-entrant because
        #: the filter memo recurses and nests inside the join memo.
        self._memo_lock = threading.RLock()
        self.join_cache_hits = 0
        self.join_cache_misses = 0

    # Subclass responsibilities ------------------------------------------------

    def type_distance(self, first: DataType, second: DataType) -> Optional[int]:
        raise NotImplementedError

    def nodes_of(self, data_type: DataType) -> list[XmlNode]:
        raise NotImplementedError

    def type_of(self, node: XmlNode) -> DataType:
        raise NotImplementedError

    def count_of(self, data_type: DataType) -> int:
        """Cardinality of a type's sequence (the ``pathcard`` statistic).

        Subclasses with stored per-type counts override this to avoid
        materializing the sequence; the plan compiler reports it per
        edge (``EXPLAIN ANALYZE``) and bakes the synthesized-empty
        placeholder decision into generated renderers from it.
        """
        return len(self.nodes_of(data_type))

    def shape_vertex(self, data_type: DataType) -> Optional[ShapeType]:
        raise NotImplementedError

    def record_timing(self, name: str, seconds: float) -> None:
        """Report a measured latency (join builds).  The base feeds the
        current tracer; storage-backed indexes also feed the database's
        lifetime histograms."""
        obs.observe(name, seconds)

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
    ) -> tuple[int, dict[tuple[int, ...], list[XmlNode]]]:
        """``(width, groups)``: ``second``'s sequence grouped on the
        prefix at which it meets ``first``; the closest partners of a
        ``first`` node are ``groups.get(node.dewey.prefix(width))``.

        No groups when the types never pair: no shared root, or the same
        type — a node is never its own closest partner, and at distance
        0 the prefix is the whole label, so it would be its only one.
        """
        level = None if first == second else self.closest_lca_level(first, second)
        if level is None:
            return 0, {}
        width = level + 1
        with self._memo_lock:
            groups = self._groups.get((second.type_id, width))
            if groups is None:
                groups = group_by_prefix(self.nodes_of(second), width)
                self._groups[second.type_id, width] = groups
        return width, groups

    def closest_pairs(
        self, first: DataType, second: DataType
    ) -> Iterator[tuple[XmlNode, XmlNode]]:
        """All closest pairs ``(v: first, w: second)`` in document order.

        The paper's closest join: both type sequences are already in
        document order, so grouping on the Dewey prefix of the required
        LCA level and pairing within equal groups costs one pass over
        each plus the output size.
        """
        width, groups = self._partner_groups(first, second)
        if groups:
            for anchor in self.nodes_of(first):
                for partner in groups.get(anchor.dewey.prefix(width), ()):
                    yield anchor, partner

    def closest_pair_map(
        self, first: DataType, second: DataType
    ) -> dict[int, list[XmlNode]]:
        """Memoized full closest join, grouped by ``first``-typed anchor.

        Returns ``{id(anchor): [partners in document order]}`` over the
        *complete* type sequences.  Because each anchor's partner list
        depends only on that anchor's Dewey prefix, the full map serves
        any subset of anchors — this is what lets every renderer and
        sink share one join per shape edge — and every anchor under one
        prefix holds the *same* list, the memoized group itself.  Callers
        must treat the returned map and its lists as immutable.
        """
        key = (first.type_id, second.type_id)
        with self._memo_lock:
            cached = self._pair_maps.get(key)
            if cached is not None:
                self.join_cache_hits += 1
                obs.count("join_cache.hits")
                return cached
            self.join_cache_misses += 1
            obs.count("join_cache.misses")
            started = time.perf_counter()
            mapping: dict[int, list[XmlNode]] = {}
            width, groups = self._partner_groups(first, second)
            if groups:
                for anchor in self.nodes_of(first):
                    group = groups.get(anchor.dewey.prefix(width))
                    if group is not None:
                        mapping[id(anchor)] = group
            self._pair_maps[key] = mapping
            self.record_timing("join.build_seconds", time.perf_counter() - started)
            return mapping

    def restrict_pass(
        self, nodes: list[XmlNode], data_type: DataType, filter_shape: Shape
    ) -> list[XmlNode]:
        """The subset of ``nodes`` passing a RESTRICT filter shape.

        A node passes when, for every source-backed child of the filter
        vertex, it has at least one closest partner that itself passes
        the child's sub-filter.  Survivors are computed bottom-up per
        filter edge — one verdict per partner group, one lookup per node
        (O(n+m)) — and memoized per (type, filter vertex) pair.
        """
        root = filter_shape.roots()[0]
        with self._memo_lock:
            allowed = self._filter_survivors(data_type, filter_shape, root)
        return [node for node in nodes if id(node) in allowed]

    def _filter_survivors(
        self, data_type: DataType, filter_shape: Shape, vertex: ShapeType
    ) -> set[int]:
        # Caller holds _memo_lock (re-entrant, so recursion is free).
        key = (data_type.type_id, vertex.uid)
        cached = self._filter_memo.get(key)
        if cached is not None:
            return cached
        survivors = list(self.nodes_of(data_type))
        for child in filter_shape.children(vertex):
            if child.source is None or not survivors:
                continue
            partner_ok = self._filter_survivors(child.source, filter_shape, child)
            width, groups = self._partner_groups(data_type, child.source)
            alive = {
                prefix
                for prefix, group in groups.items()
                if any(id(partner) in partner_ok for partner in group)
            }
            survivors = [
                node for node in survivors if node.dewey.prefix(width) in alive
            ]
        result = {id(node) for node in survivors}
        self._filter_memo[key] = result
        return result

    def drop_join_cache(self) -> None:
        """Forget memoized groups/joins/filters (on node sequence invalidation)."""
        with self._memo_lock:
            self._groups.clear()
            self._pair_maps.clear()
            self._filter_memo.clear()

    def closest_partners(self, anchor: XmlNode, target: DataType) -> list[XmlNode]:
        """The ``target``-typed nodes closest to one ``anchor`` node.

        The memoized group under the anchor's prefix, shared with every
        other anchor of that group: treat it as immutable.
        """
        width, groups = self._partner_groups(self.type_of(anchor), target)
        return groups.get(anchor.dewey.prefix(width), [])


class DocumentIndex(BaseIndex):
    """In-memory index of one XML forest, with exact type distances."""

    def __init__(self, forest: XmlForest):
        super().__init__()
        self.forest = forest
        builder = DataGuideBuilder().build(forest)
        self.shape: Shape = builder.shape
        self.type_table: TypeTable = builder.type_table
        self.is_attribute: dict[DataType, bool] = builder.is_attribute
        self.has_text: dict[DataType, bool] = builder.has_text
        self._shape_of: dict[DataType, ShapeType] = builder.shape_of
        self._type_of: dict[int, DataType] = builder.type_of
        self._sequences: dict[DataType, list[XmlNode]] = {}
        for node in forest.iter_nodes():
            self._sequences.setdefault(self._type_of[id(node)], []).append(node)
        self._distance_cache: dict[tuple[DataType, DataType], Optional[int]] = {}

    # -- basic lookups ---------------------------------------------------

    def types(self) -> list[DataType]:
        return list(self.type_table)

    def type_of(self, node: XmlNode) -> DataType:
        """The paper's ``typeOf(v)`` for a node of the indexed forest."""
        return self._type_of[id(node)]

    def nodes_of(self, data_type: DataType) -> list[XmlNode]:
        """Document-ordered sequence of the nodes of a type."""
        return self._sequences.get(data_type, [])

    def shape_vertex(self, data_type: DataType) -> Optional[ShapeType]:
        """The vertex of ``data_type`` in the source shape."""
        return self._shape_of.get(data_type)

    def node_count(self) -> int:
        return sum(len(nodes) for nodes in self._sequences.values())

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
        left = self._sequences.get(first, [])
        right = self._sequences.get(second, [])
        if not left or not right:
            return None
        deepest = _deepest_shared_level(left, right)
        if deepest is None:
            return None
        return (first.level - deepest) + (second.level - deepest)


def group_by_prefix(
    nodes: list[XmlNode], width: int
) -> dict[tuple[int, ...], list[XmlNode]]:
    """Section VII's grouping: ``nodes`` by their first ``width`` Dewey
    components, each group in input (document) order.

    A node shallower than ``width`` has no ancestor-or-self at that
    level and joins no group.
    """
    groups: dict[tuple[int, ...], list[XmlNode]] = {}
    for node in nodes:
        if len(node.dewey) >= width:
            groups.setdefault(node.dewey.prefix(width), []).append(node)
    return groups


def closest_join(
    parents: list[XmlNode], children: list[XmlNode], lca_level: int
) -> Iterator[tuple[XmlNode, XmlNode]]:
    """Pair up nodes whose LCA sits exactly at ``lca_level``.

    Both inputs must be in document order (sorted by Dewey id).  Output
    pairs are grouped by parent, parents in document order, children of
    each parent in document order.  Cost is linear in the inputs plus
    the output size.
    """
    width = lca_level + 1
    child_groups = group_by_prefix(children, width)
    for parent in parents:
        for child in child_groups.get(parent.dewey.prefix(width), ()):  # doc order
            if child is not parent:
                yield parent, child


def _deepest_shared_level(left: list[XmlNode], right: list[XmlNode]) -> Optional[int]:
    """Deepest ancestor level shared by any cross pair of the two lists.

    Merge both document-ordered lists; the maximal common Dewey prefix of
    any cross pair is attained by a pair that is adjacent in the merged
    order, so one pass suffices.
    """
    best = -1
    i = j = 0
    previous: tuple[XmlNode, int] | None = None  # (node, source list id)
    while i < len(left) or j < len(right):
        if j >= len(right) or (i < len(left) and left[i].dewey <= right[j].dewey):
            current, source = left[i], 0
            i += 1
        else:
            current, source = right[j], 1
            j += 1
        if previous is not None and previous[1] != source:
            shared = previous[0].dewey.common_prefix_length(current.dewey)
            best = max(best, shared - 1)
        # Keep the latest node of each source; comparing against the
        # immediately preceding opposite-source node is sufficient, but
        # when several same-source nodes intervene the best partner for
        # the next opposite node is the nearest one, i.e. `current`.
        previous = (current, source)
    if best < 0:
        # No adjacent cross pair shared a root. Fall back to comparing
        # first elements (handles single-element corner cases).
        shared = left[0].dewey.common_prefix_length(right[0].dewey)
        best = shared - 1
    return best if best >= 0 else None
