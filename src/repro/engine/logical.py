"""Architecture option 3: logically transform the data in situ.

Section VIII's third architecture — "re-engineer an evaluation engine
... to logically transform the data in situ" — is the paper's stated
near-term future work.  This module prototypes it: a *virtual forest*
that looks like the transformed document to the XQuery evaluator but
materializes nothing up front.  A virtual node computes its children on
first access by running the closest join for one shape edge *restricted
to its own anchor*; queries that touch a fraction of the output only
ever pay for that fraction.

Virtual nodes implement the slice of the :class:`XmlNode` interface the
XQuery evaluator navigates (``name``, ``text``, ``children``,
``is_element``/``is_attribute``, ``iter_subtree``, ``copy_subtree``,
``parent``), so the evaluator works on them unchanged.  Copying out of
a constructor materializes, as it must.
"""

from __future__ import annotations

from typing import Optional

from repro.closeness.index import BaseIndex
from repro.engine.interpreter import Interpreter
from repro.shape.shape import Shape
from repro.shape.types import ShapeType
from repro.xmltree.node import NodeKind, NodeLike, XmlForest, XmlNode


class VirtualNode(NodeLike):
    """A lazily materializing output node."""

    __slots__ = ("_view", "shape_type", "anchor", "parent", "_children", "dewey")

    def __init__(
        self,
        view: "LogicalTransform",
        shape_type: ShapeType,
        anchor: Optional[XmlNode],
        parent: Optional["VirtualNode"],
    ):
        self._view = view
        self.shape_type = shape_type
        self.anchor = anchor
        self.parent = parent
        self._children: Optional[list["VirtualNode"]] = None
        self.dewey = None

    # -- XmlNode interface ------------------------------------------------

    @property
    def name(self) -> str:
        return self.shape_type.out_name

    @property
    def kind(self) -> NodeKind:
        if self.anchor is not None and self.shape_type.source is not None:
            return self.anchor.kind
        return NodeKind.ELEMENT

    @property
    def is_element(self) -> bool:
        return self.kind is NodeKind.ELEMENT

    @property
    def is_attribute(self) -> bool:
        return self.kind is NodeKind.ATTRIBUTE

    @property
    def text(self) -> str:
        if self.anchor is not None and self.shape_type.source is not None:
            return self.anchor.text
        return ""

    @property
    def children(self) -> list["VirtualNode"]:
        if self._children is None:
            self._children = self._view.expand(self)
        return self._children

    def element_children(self) -> list["VirtualNode"]:
        return [child for child in self.children if child.is_element]

    def attributes(self) -> list["VirtualNode"]:
        return [child for child in self.children if child.is_attribute]

    def attribute(self, name: str):
        for child in self.children:
            if child.is_attribute and child.name == name:
                return child
        return None

    def find(self, name: str):
        for child in self.children:
            if child.name == name:
                return child
        return None

    def iter_subtree(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def descendant_count(self) -> int:
        return sum(1 for _ in self.iter_subtree())

    def copy_subtree(self) -> XmlNode:
        """Materialize this subtree as a real node (constructors copy)."""
        real = XmlNode(self.name, self.kind, self.text)
        for child in self.children:
            real.append(child.copy_subtree())
        return real

    def __repr__(self) -> str:
        state = "expanded" if self._children is not None else "virtual"
        return f"<VirtualNode {self.name} ({state})>"


class LogicalTransform:
    """The lazily transformed view of one document under one guard."""

    def __init__(self, source: XmlForest | BaseIndex, guard: str):
        interpreter = Interpreter(source)
        self.index = interpreter.index
        compiled = interpreter.compile(guard)
        self.guard = guard
        self.shape: Shape = compiled.target_shape
        self.loss = compiled.loss
        self.nodes_materialized = 0
        self._roots: Optional[list[VirtualNode]] = None

    # -- the virtual document --------------------------------------------------

    @property
    def roots(self) -> list[VirtualNode]:
        if self._roots is None:
            self._roots = []
            for root_type in self.shape.roots():
                for anchor in self._instances_of(root_type):
                    self._roots.append(VirtualNode(self, root_type, anchor, None))
            self.nodes_materialized += len(self._roots)
        return self._roots

    def virtual_document(self) -> VirtualNode:
        """A synthetic document node over the virtual roots."""
        document = VirtualNode(self, ShapeType.new("#document"), None, None)
        document._children = self.roots
        return document

    def query_context(self, name: str = "input"):
        """A QueryContext whose context item is the virtual document."""
        from repro.xquery.evaluator import QueryContext

        context = QueryContext()
        context.context_nodes = [self.virtual_document()]
        context.documents = {name: self}  # doc() resolves via duck typing
        return context

    # -- expansion ------------------------------------------------------------------

    def expand(self, node: VirtualNode) -> list[VirtualNode]:
        """Compute one virtual node's children (one closest join slice)."""
        children: list[VirtualNode] = []
        for child_type in self.shape.children(node.shape_type):
            for anchor in self._partners(node, child_type):
                children.append(VirtualNode(self, child_type, anchor, node))
        self.nodes_materialized += len(children)
        return children

    def _partners(self, node: VirtualNode, child_type: ShapeType) -> list[XmlNode]:
        if child_type.source is None:
            # NEW wrapper: one instance per partner of its leading child;
            # prototype restriction: a NEW type shares its parent anchor.
            return [node.anchor]
        if node.anchor is None:
            return self._instances_of(child_type)
        return self.index.closest_partners(node.anchor, child_type.source)

    def _instances_of(self, shape_type: ShapeType) -> list[XmlNode]:
        if shape_type.source is None:
            return []
        return self.index.nodes_of(shape_type.source).nodes


def guarded_query_lazy(source: XmlForest, guard: str, query: str):
    """Evaluate a guarded query without materializing the transformation."""
    from repro.xquery.evaluator import evaluate

    view = LogicalTransform(source, guard)
    return evaluate(query, view.query_context()), view
