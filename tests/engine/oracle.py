"""The interpretive Render algorithm: the oracle for the compiled emitter.

Section VII and Figure 7 read as a recursive descent over the target
shape: for each shape edge ``(t, u)`` pair the already-rendered parent
instances with their *closest* source nodes of ``u``'s source type and
append a copy of each matched node under each matched parent.  The
pairing is the CLOSE join of the paper: both type sequences are in
document order and the closest pairs meet at a least common ancestor
whose level is fixed by the type distance, so a single merge pass
(grouping on the Dewey prefix at that level) finds all pairs.  A
source node closest to several parents is *copied* under each of them,
so the write side can be quadratic, as the paper says.

Special shape types:

* A **NEW** type has no source nodes.  An instance is created per
  closest instance of its first source-backed child (wrapping
  semantics); a childless NEW type renders a single empty element.
* A **RESTRICT**-ed type's instances are filtered by a closest
  semi-join against the hidden filter shape.
* A **synthesized** (TYPE-FILLed) type renders one empty placeholder
  element per parent instance.

Every node copy goes through ``_make`` and every edge re-dispatches on
its child's kind at render time, which is what
:class:`repro.engine.compile.CompiledRender` resolves once per plan.
The two share only the index's memoized joins, which is why the parity
suites hold the emitter's tree sink (names, text, Dewey numbers,
provenance, counters, trace) and text sink to
:func:`reference_render`.  It is not shipped in ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.closeness.index import DocumentIndex
from repro.engine.compile import RenderResult
from repro.obs import tracer as obs
from repro.shape.shape import Shape
from repro.shape.types import ShapeType
from repro.xmltree.node import NodeKind, XmlForest, XmlNode


@dataclass
class _Instance:
    """A rendered output node plus the source node anchoring its joins."""

    out: XmlNode
    anchor: Optional[XmlNode]


def reference_render(shape: Shape, index: DocumentIndex) -> RenderResult:
    """Render the data of ``index`` in the target ``shape`` as a forest."""
    return _Renderer(shape, index).run()


class _Renderer:
    def __init__(self, shape: Shape, index: DocumentIndex):
        self.shape = shape
        self.index = index
        self.result = RenderResult(XmlForest())
        #: The node objects of every type read so far (the index keeps
        #: positions; this renderer works on nodes throughout).
        self._nodes: dict = {}

    def run(self) -> RenderResult:
        for root in self.shape.roots():
            instances = self._root_instances(root)
            for instance in instances:
                self.result.forest.append(instance.out)
            if instances:
                self._attach_children(root, instances)
        self.result.forest.renumber()
        obs.count("render.nodes_emitted", self.result.nodes_written)
        obs.count("render.nodes_read", self.result.nodes_read)
        obs.count("render.joins", self.result.joins)
        return self.result

    # -- instance construction ------------------------------------------------

    def _tally(self, shape_type: ShapeType) -> None:
        rows = self.result.rows_by_type
        key = id(shape_type)
        rows[key] = rows.get(key, 0) + 1

    def _make(self, shape_type: ShapeType, source: XmlNode) -> _Instance:
        out = XmlNode(shape_type.out_name, source.kind, source.text)
        self.result.provenance[id(out)] = source
        self.result.nodes_written += 1
        self._tally(shape_type)
        return _Instance(out, source)

    def _make_new(self, shape_type: ShapeType, anchor: Optional[XmlNode]) -> _Instance:
        out = XmlNode(shape_type.out_name, NodeKind.ELEMENT)
        self.result.nodes_written += 1
        self._tally(shape_type)
        return _Instance(out, anchor)

    def _read(self, data_type) -> list[XmlNode]:
        """One read of a type's sequence, as its node objects."""
        nodes = self._nodes[data_type] = self.index.nodes_of(data_type).nodes
        self.result.nodes_read += len(nodes)
        return nodes

    def _restricted(self, shape_type: ShapeType, nodes: list[XmlNode]) -> list[XmlNode]:
        survivors = self.index.restrict_pass(shape_type.source, shape_type.restrict_filter)
        return [nodes[position] for position in survivors]

    def _source_nodes(self, shape_type: ShapeType) -> list[XmlNode]:
        nodes = self._read(shape_type.source)
        if shape_type.restrict_filter is not None:
            nodes = self._restricted(shape_type, nodes)
        return nodes

    def _root_instances(self, root: ShapeType) -> list[_Instance]:
        if root.source is not None:
            return [self._make(root, node) for node in self._source_nodes(root)]
        leading = self._leading_backed_child(root)
        if leading is None:
            return [self._make_new(root, None)]
        anchors = self._source_nodes(leading)
        return [self._make_new(root, anchor) for anchor in anchors]

    def _leading_backed_child(self, shape_type: ShapeType) -> Optional[ShapeType]:
        """First source-backed type under a NEW type (depth-first)."""
        for child in self.shape.children(shape_type):
            if child.source is not None:
                return child
            deeper = self._leading_backed_child(child)
            if deeper is not None:
                return deeper
        return None

    # -- recursive descent over shape edges -----------------------------------

    def _attach_children(self, shape_type: ShapeType, instances: list[_Instance]) -> None:
        for child_type in self.shape.children(shape_type):
            if child_type.source is not None:
                # One fetch serves both the synthesized-empty check and
                # the join below; the emptiness test is on the raw
                # sequence — a RESTRICT filter emptying a *backed* type
                # must not turn it into a placeholder.
                raw = self._read(child_type.source)
                if child_type.synthesized and not raw:
                    self._attach_placeholder(child_type, instances)
                else:
                    candidates = raw
                    if child_type.restrict_filter is not None:
                        candidates = self._restricted(child_type, raw)
                    self._attach_backed(child_type, instances, candidates)
            elif child_type.synthesized:
                self._attach_placeholder(child_type, instances)
            else:
                self._attach_new(child_type, instances)

    def _attach_backed(
        self,
        child_type: ShapeType,
        parents: list[_Instance],
        candidates: list[XmlNode],
    ) -> None:
        """The closest join: pair parent anchors with child source nodes.

        All matched child instances across every parent are collected
        and the descent recurses *once* per shape edge — the joins are
        per-edge, not per-parent-instance, keeping the read side linear
        (the pipelined sort-merge behaviour of Section VII).
        """
        pair_map = self._join(parents, child_type, candidates)
        produced: list[_Instance] = []
        for parent in parents:
            if parent.anchor is not None:
                matched = pair_map.get(id(parent.anchor), ())
            else:
                matched = candidates
            for node in matched:
                instance = self._make(child_type, node)
                parent.out.append(instance.out)
                produced.append(instance)
        if produced:
            self._attach_children(child_type, produced)

    def _join(
        self,
        parents: list[_Instance],
        child_type: ShapeType,
        candidates: list[XmlNode],
    ) -> dict[int, list[XmlNode]]:
        """Group closest pairs by parent anchor (sort-merge, Section VII)."""
        anchors = sorted(
            {id(p.anchor): p.anchor for p in parents if p.anchor is not None}.values(),
            key=lambda node: node.dewey,
        )
        if not anchors or not candidates:
            return {}
        self.result.joins += 1
        # A RESTRICT filter shrinks the candidate set below the full type
        # sequence the memoized join was built over; intersect per anchor.
        allowed: Optional[set[int]] = None
        if child_type.restrict_filter is not None:
            allowed = {id(node) for node in candidates}
        with obs.span("render.join", child=child_type.out_name) as join_span:
            # If every anchor has the same type (the normal case) one join
            # level serves all; otherwise group anchors per type.
            pair_map: dict[int, list[XmlNode]] = {}
            by_type: dict[int, list[XmlNode]] = {}
            for anchor in anchors:
                by_type.setdefault(self.index.type_of(anchor).type_id, []).append(anchor)
            partners = self._nodes[child_type.source]
            for type_id, typed_anchors in by_type.items():
                anchor_type = self.index.type_table.by_id(type_id)
                if anchor_type == child_type.source:
                    # Wrapping a node of the same type: the anchor is its own
                    # closest partner.
                    for anchor in typed_anchors:
                        pair_map.setdefault(id(anchor), []).append(anchor)
                    continue
                full = self.index.closest_pair_map(anchor_type, child_type.source)
                for anchor in typed_anchors:
                    matched = [
                        partners[position]
                        for position in full[self.index.position_of(anchor)[1]] or ()
                    ]
                    if allowed is not None:
                        matched = [node for node in matched if id(node) in allowed]
                    if matched:
                        pair_map[id(anchor)] = matched
        if obs.enabled():
            # The merge pass touches each input sequence once (Section VII).
            obs.count("join.comparisons", len(anchors) + len(candidates))
            pairs = sum(len(matched) for matched in pair_map.values())
            obs.observe("join.pairs", pairs)
            join_span.annotate(
                anchors=len(anchors), candidates=len(candidates), pairs=pairs
            )
        return pair_map

    def _attach_new(self, child_type: ShapeType, parents: list[_Instance]) -> None:
        """NEW mid-shape: one wrapper per closest leading-child instance."""
        leading = self._leading_backed_child(child_type)
        if leading is None:
            wrappers = []
            for parent in parents:
                instance = self._make_new(child_type, parent.anchor)
                parent.out.append(instance.out)
                wrappers.append(instance)
            if wrappers:
                self._attach_children(child_type, wrappers)
            return
        candidates = self._source_nodes(leading)
        pair_map = self._join(parents, leading, candidates)
        wrappers: list[_Instance] = []
        for parent in parents:
            if parent.anchor is not None:
                anchors = pair_map.get(id(parent.anchor), ())
            else:
                anchors = candidates
            for anchor in anchors:
                instance = self._make_new(child_type, anchor)
                parent.out.append(instance.out)
                wrappers.append(instance)
        if wrappers:
            self._attach_new_children(child_type, leading, wrappers)

    def _attach_new_children(
        self, new_type: ShapeType, leading: ShapeType, wrappers: list[_Instance]
    ) -> None:
        """Attach a NEW type's children; its leading child maps 1:1."""
        for child_type in self.shape.children(new_type):
            if child_type is leading:
                produced = []
                for wrapper in wrappers:
                    instance = self._make(child_type, wrapper.anchor)
                    wrapper.out.append(instance.out)
                    produced.append(instance)
                if produced:
                    self._attach_children(child_type, produced)
            elif child_type.source is not None:
                self._attach_backed(
                    child_type, wrappers, self._source_nodes(child_type)
                )
            else:
                self._attach_new(child_type, wrappers)

    def _attach_placeholder(self, child_type: ShapeType, parents: list[_Instance]) -> None:
        """TYPE-FILLed types render one empty element per parent."""
        produced = []
        for parent in parents:
            instance = _Instance(XmlNode(child_type.out_name, NodeKind.ELEMENT), parent.anchor)
            self.result.nodes_written += 1
            self._tally(child_type)
            parent.out.append(instance.out)
            produced.append(instance)
        if produced:
            self._attach_children(child_type, produced)
