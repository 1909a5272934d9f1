"""The Render algorithm (Section VII, Figure 7): one plan-time generator, two sinks.

Rendering descends the target shape; for each shape edge ``(t, u)`` it
pairs the parent instances with their *closest* source nodes of ``u``'s
source type and appends a copy of each matched node under each matched
parent.  The pairing is the CLOSE join of the paper, a merge on the
Dewey prefix at the level the type distance fixes, so the read side is
linear; a source node closest to several parents is copied under each,
so the write side can be quadratic.  A **NEW** type gets one instance
per closest instance of its first source-backed child (one empty
element when it has none), a **RESTRICT**-ed type keeps the instances
the closest semi-join against its filter shape lets through, and a
**synthesized** (TYPE-FILLed) type renders one empty element per
parent.

None of that dispatch depends on the data — it depends only on the
*target shape*, which is fixed per ``(guard, shape fingerprint)`` plan.
:class:`CompiledRender` therefore walks the target shape **once at plan
time** and records, per shape vertex, everything that is static: the
anchor data type its instances carry (a backed child anchors on its
source type, a NEW wrapper on its leading backed child, placeholders
inherit the parent's anchor), the join form that follows from it
(broadcast / self-pair / memoized closest-pair map), the fused RESTRICT
filter, and the NEW-wrapper and TYPE-FILL dispatch.  That edge list is
what ``EXPLAIN ANALYZE`` prints, and it is what the one code generator
unrolls into nested loops that visit output instances depth first —
the paper's "stream the output node by node (in document order)" — with
the per-node snippet chosen by **sink**:

* the **tree sink** (:meth:`CompiledRender.run`) allocates ``XmlNode``
  s via ``__new__`` plus slot stores, numbers them inline (a parent's
  Dewey number is final before its children exist, so the sibling
  ordinal is the child-list length at append time) and records
  provenance: a :class:`RenderResult`;
* the **text sink** (:meth:`CompiledRender.write` into a file-like,
  :meth:`CompiledRender.text` into a string) appends XML to a chunk
  buffer that is flushed to ``out`` between root instances: no output
  node is ever allocated, and a node's text is read pre-escaped from
  its sequence's ``escaped`` column, escaped once per load however
  many parents the node is copied under (an attribute value only has
  its ``"`` quoted on the way into a start tag).  A copied leaf child
  is one read and one write: its sequence's ``leaves`` column holds
  each node as a whole element, built once per load and output name
  (``""`` for an attribute, which the start tag already holds).
  Whether a copied node is an attribute or an element is decided per
  source node only for a child type whose sequence holds an attribute
  at all: the text sink is generated per *attribute signature*, the
  set of such child edges in one render.  An element with no such
  child is written ``<name>``, text, children, ``</name>`` once any of
  its partner lists or its text is non-empty, else ``<name/>``; one
  with such a child keeps a start-tag pass over the partner lists
  (attributes into the tag, "an element child follows") and mutes the
  writer inside an attribute's subtree.  Either way the text is
  byte-identical to ``serialize()`` of the tree (compact form).  Its
  **JSON flavour** (:meth:`CompiledRender.json`) is the same code run
  in a second namespace: constants JSON-escaped at plan time and each
  sequence's ``json`` and JSON ``leaves`` columns, so it writes
  ``json.dumps()`` of that text, less the quotes, without scanning the
  text again — the body of a served answer.

In both sinks a source node is its **position** in its type's
:class:`~repro.closeness.index.TypeSequence`: candidates are position
ranges, a partner lookup is a list index, and the text sink reads a
node's text and attribute flag from the sequence's columns — it touches
no ``XmlNode`` and no ``Dewey``.  Only the tree sink asks a sequence for
its node objects, because provenance hands them to the caller.

``Interpreter.compile`` builds the one :class:`CompiledRender` of a
plan, and every render — in memory or from a store — runs it.  A
sink's function is generated, ``exec``'d and kept the first time that
sink is asked for (the text sink's per signature: a plan serving
documents of one shape but other attribute flags keeps one function
per signature it has rendered); a stored document's artifact lives on
the :class:`~repro.cache.CompiledPlan`, so eviction drops it with the
plan.  The generated code holds only the loops.  Fetching
the candidate sequences and partner maps before them, and the counters
(``nodes_read``, ``joins``, ``rows_by_type``) and traced ``render.join``
accounting after them, are plain table-driven passes over the edge
list, shared by both sinks — an untraced render pays one truth test for
the trace bookkeeping, not one per edge or node.

Safety: the functions bind only plan-stable values — ``DataType`` is
value-equal across index epochs, type sequences are fetched through
``index.nodes_of`` at render time (so lazy loading and block-I/O
counting keep working; positions are the same in every load of a
type), and per-type counts are covered by the shape fingerprint that
keys the cache.  Whether a child type holds an attribute is not (an
attribute and an element of one name share a type), so it is read per
render (``TypeSequence.holds_attributes``, kept per load) and picks the
function specialized for it.  Both sinks are byte-identical to the
interpretive oracle ``tests/engine/oracle.py::reference_render``, the
tree sink down to counters, provenance and trace (the parity and
Hypothesis suites in ``tests/engine`` pin this down).  A codegen
failure is a bug and propagates like any engine error.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, TextIO

from repro.closeness.index import TypeSequence
from repro.obs import tracer as obs
from repro.shape.shape import Shape
from repro.shape.types import DataType, ShapeType
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import NodeKind, XmlForest, XmlNode
from repro.xmltree.serializer import escape_quotes, json_quotes, json_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.closeness.index import BaseIndex

#: Shape levels unrolled inline before the generator starts a helper
#: function: Python refuses more than 20 nested blocks or 100 indents.
_INLINE_LEVELS = 12
#: What an edge without candidates answers for every anchor.
_NO_PARTNERS = {}.get
#: The sequence of an edge no render reached: no nodes.
_NO_SEQUENCE = TypeSequence(None, None, [], [], b"", [])
#: The text sink hands its chunks to ``out`` once this many are buffered.
_FLUSH_CHUNKS = 1024


@dataclass
class RenderResult:
    """A tree-sink render: the output forest plus its bookkeeping."""

    forest: XmlForest
    #: id(output node) -> source node (absent for NEW/synthesized nodes).
    provenance: dict[int, XmlNode] = field(default_factory=dict)
    nodes_written: int = 0
    nodes_read: int = 0
    joins: int = 0
    #: id(shape type) -> number of output instances ("actual rows").
    rows_by_type: dict[int, int] = field(default_factory=dict)

    def source_of(self, node: XmlNode) -> Optional[XmlNode]:
        return self.provenance.get(id(node))

    def rows_for(self, shape_type: ShapeType) -> int:
        """Actual output instances of one target shape type."""
        return self.rows_by_type.get(id(shape_type), 0)


@dataclass
class StreamStats:
    """What a text-sink render produced."""

    nodes_written: int = 0
    characters: int = 0
    joins: int = 0
    nodes_read: int = 0


@dataclass(eq=False)
class _Edge:
    """One target-shape vertex with its render dispatch resolved.

    ``kind`` names how its instances come to be: ``root`` / ``root-wrap``
    / ``broadcast`` (every candidate of ``source``), ``root-new`` (one),
    ``join`` (closest partners of the parent's ``anchor``-typed node),
    ``self`` and ``leading`` (the parent's own anchor node), ``new`` and
    ``placeholder`` (one empty element per parent, anchor inherited).
    ``backed`` instances copy their source node; the others are empty
    elements.  ``holder`` carries the RESTRICT filter and the trace
    label (a NEW wrapper joins through its leading backed child).
    """

    slot: int
    vertex: ShapeType
    kind: str
    parent: Optional["_Edge"]
    anchor: Optional[DataType]
    source: Optional[DataType]
    holder: Optional[ShapeType]
    backed: bool
    children: list["_Edge"] = field(default_factory=list)

    @property
    def fetches(self) -> bool:
        return self.source is not None and self.kind != "leading"

    @property
    def flag(self) -> int:
        """This edge's bit of a render's attribute signature: set when
        the sequence of a backed child holds an attribute (a root is an
        element whatever it copies)."""
        return 1 << self.slot if self.backed and self.parent is not None else 0


class _Planner:
    """Walks the target shape once; ``edges`` is the result, in pre-order."""

    def __init__(self, shape: Shape, index: "BaseIndex"):
        self.shape = shape
        self.index = index
        self.edges: list[_Edge] = []
        self.edge_plans: list[dict] = []
        for root in shape.roots():
            self._plan_root(root)

    def _add(
        self,
        vertex: ShapeType,
        kind: str,
        parent: Optional[_Edge],
        anchor: Optional[DataType] = None,
        source: Optional[DataType] = None,
        holder: Optional[ShapeType] = None,
        backed: bool = False,
    ) -> _Edge:
        edge = _Edge(len(self.edges), vertex, kind, parent, anchor, source, holder, backed)
        self.edges.append(edge)
        if parent is not None:
            parent.children.append(edge)
        level = None
        anchor_rows = child_rows = 0
        if source is not None:
            anchor_rows = self.index.count_of(anchor) if anchor is not None else 0
            child_rows = self.index.count_of(source)
            if kind == "join":
                level = self.index.closest_lca_level(anchor, source)
        self.edge_plans.append(
            {
                "child": vertex.out_name,
                "kind": kind,
                "source": source.dotted if source is not None else None,
                "anchor": anchor.dotted if anchor is not None else None,
                "lca_level": level,
                "anchor_rows": anchor_rows,
                "child_rows": child_rows,
            }
        )
        return edge

    def _leading_backed_child(self, vertex: ShapeType) -> Optional[ShapeType]:
        for child in self.shape.children(vertex):
            if child.source is not None:
                return child
            deeper = self._leading_backed_child(child)
            if deeper is not None:
                return deeper
        return None

    def _plan_root(self, root: ShapeType) -> None:
        if root.source is not None:
            edge = self._add(root, "root", None, None, root.source, root, True)
            self._plan_children(edge, root.source)
            return
        leading = self._leading_backed_child(root)
        if leading is None:
            self._plan_children(self._add(root, "root-new", None), None)
            return
        # Root NEW wrapping its leading backed child: one wrapper per
        # leading-child source node (the leading child itself is then
        # attached through the generic dispatch, self-joining 1:1).
        edge = self._add(root, "root-wrap", None, None, leading.source, leading)
        self._plan_children(edge, leading.source)

    def _plan_children(
        self,
        parent: _Edge,
        anchor: Optional[DataType],
        new_leading: Optional[ShapeType] = None,
    ) -> None:
        """Resolve every shape edge out of ``parent``.

        ``anchor`` is the data type ``parent``'s instances anchor on.
        ``new_leading`` switches to the NEW-wrapper dispatch (the
        leading child maps 1:1 and the placeholder short-circuit does
        not apply).
        """
        for child in self.shape.children(parent.vertex):
            if child is new_leading:
                # No fetch, no join: the wrapper was created *from*
                # these nodes.
                edge = self._add(
                    child, "leading", parent, child.source, child.source, child, True
                )
                self._plan_children(edge, child.source)
            elif child.source is not None and not (
                new_leading is None
                and child.synthesized
                and self.index.count_of(child.source) == 0
            ):
                self._plan_joined(child, parent, anchor, child.source, child, True)
            elif new_leading is None and child.synthesized:
                # TYPE-FILLed: one empty element per parent.
                self._plan_children(self._add(child, "placeholder", parent, anchor), anchor)
            else:
                leading = self._leading_backed_child(child)
                if leading is None:
                    self._plan_children(self._add(child, "new", parent, anchor), anchor)
                else:
                    self._plan_joined(
                        child, parent, anchor, leading.source, leading, False, leading
                    )

    def _plan_joined(
        self, child, parent, anchor, source, holder, backed, new_leading=None
    ) -> None:
        """Candidates of ``source`` joined against ``parent``'s instances.

        Three forms, told apart here once rather than per render from
        the runtime anchor types: no anchor —
        every parent gets every candidate and no join is counted; the
        anchor type *is* the source type — each parent wraps its own
        anchor, bypassing any RESTRICT intersection; otherwise the
        memoized closest-pair map, intersected with the RESTRICT
        survivors when the edge carries a filter.
        """
        if anchor is None:
            kind = "broadcast"
        elif anchor == source:
            kind = "self"
        else:
            kind = "join"
        edge = self._add(child, kind, parent, anchor, source, holder, backed)
        self._plan_children(edge, source, new_leading)


class CompiledRender:
    """The specialized renderer of one ``(guard, shape)`` plan.

    ``run(index)`` produces the output forest as a
    :class:`RenderResult`; ``write(index, out)`` writes
    ``serialize()`` of that forest into ``out`` without building it,
    ``text(index)`` returns it as one string and ``json(index)`` as the
    body of a JSON string.
    ``edge_plans`` is the per-edge join plan for ``EXPLAIN ANALYZE``,
    ``sources`` the generated Python per source (``tree``, ``text``;
    the JSON flavour runs ``text``), the last one generated, for
    debugging and the test suite.
    """

    def __init__(self, shape: Shape, index: "BaseIndex"):
        planner = _Planner(shape, index)
        #: Pre-order.  The edges keep the shape's vertices alive:
        #: ``rows_by_type`` is keyed on their ``id()``.
        self._edges = planner.edges
        self.edge_plans = planner.edge_plans
        self.fused_filters = sum(
            1 for edge in self._edges
            if edge.fetches and edge.holder.restrict_filter is not None
        )
        self.sources: dict[str, str] = {}
        #: ``(sink, attribute signature)`` -> generated function.
        self._functions: dict[tuple[str, int], Callable] = {}
        self._codegen_lock = threading.Lock()

    def describe(self) -> str:
        joins = sum(1 for e in self.edge_plans if e["kind"] in ("join", "self"))
        return (
            f"{len(self.edge_plans)} edges specialized "
            f"({joins} joins, {self.fused_filters} fused filters)"
        )

    # -- one render: fetch, generated loops, accounting --------------------------

    def run(self, index: "BaseIndex") -> RenderResult:
        """Render into the tree sink."""
        sequences, found, probes, _signature = self._prepare(index)
        result = RenderResult(XmlForest())
        rows = self._function("tree")(
            sequences, found, probes, result.forest.roots, result.provenance
        )
        tally = result.rows_by_type
        for edge, count in zip(self._edges, rows):
            if count:
                key = id(edge.vertex)
                tally[key] = tally.get(key, 0) + count
        result.nodes_written, result.nodes_read, result.joins = self._account(
            rows, sequences, found, probes
        )
        return result

    def write(self, index: "BaseIndex", out: TextIO) -> StreamStats:
        """Render into the text sink: compact XML written to ``out``."""
        return self._emit(index, out.write, "text")

    def text(self, index: "BaseIndex") -> tuple[str, StreamStats]:
        """Render into the text sink: the compact XML as one string."""
        return self._collect(index, "text")

    def json(self, index: "BaseIndex") -> tuple[str, StreamStats]:
        """Render into the text sink's JSON flavour: ``text(index)``'s XML
        as the body of a JSON string, ``json.dumps(xml)[1:-1]``.

        ``characters`` counts the body, not the XML.
        """
        return self._collect(index, "json")

    def _collect(self, index: "BaseIndex", sink: str) -> tuple[str, StreamStats]:
        chunks: list[str] = []
        stats = self._emit(index, chunks.append, sink)
        return "".join(chunks), stats

    def _emit(self, index: "BaseIndex", out: Callable[[str], object], sink: str) -> StreamStats:
        sequences, found, probes, signature = self._prepare(index)
        rows, characters = self._function(sink, signature)(sequences, found, probes, out)
        written, read, joins = self._account(rows, sequences, found, probes)
        return StreamStats(written, characters, joins, read)

    def _function(self, sink: str, signature: int = 0) -> Callable:
        """The function of ``sink`` for ``signature``, generated on first use.

        ``signature`` (text sinks only) has bit ``slot`` set when that
        edge's fetched sequence holds an attribute; the code of a render
        with another signature is generated when one first comes.
        ``text`` and ``json`` share one source, compiled once and
        ``exec``'d in a namespace per sink, both at once: CPython's
        ``compile()`` is nearly all of codegen's cost, the second
        ``exec`` ~12 µs.
        """
        with self._codegen_lock:
            function = self._functions.get((sink, signature))
            if function is None:
                source = "tree" if sink == "tree" else "text"
                with obs.span("engine.compile_render", sink=source):
                    generator = _Codegen(self._edges, source == "text", signature)
                    text = self.sources[source] = generator.generate()
                    code = compile(text, f"<xmorph-render-{source}>", "exec")
                    for name, namespace in generator.namespaces().items():
                        exec(code, namespace)  # noqa: S102 - our own plan-time source
                        self._functions[name, signature] = namespace["_render"]
                function = self._functions[sink, signature]
        return function

    def _prepare(self, index: "BaseIndex"):
        """Per edge slot: type sequence, candidate positions, partner
        lookup; and the render's attribute signature.

        An edge under one whose candidates came back empty can have no
        instances, so its sequence is not fetched (or counted) at all.
        Nothing here walks a sequence: candidates are a ``range`` or the
        index's memoized RESTRICT survivors, a lookup is the memoized
        pair map's ``__getitem__`` (narrowed only when the joined type
        is RESTRICTed).  The signature sets the bit of each backed child
        edge whose sequence holds an attribute (a value the sequence
        keeps per load).
        """
        size = len(self._edges)
        sequences: list = [_NO_SEQUENCE] * size
        found: list = [()] * size
        probes: list = [_NO_PARTNERS] * size
        live = [False] * size
        signature = 0
        for edge in self._edges:
            slot = edge.slot
            if edge.parent is not None and not live[edge.parent.slot]:
                continue
            if not edge.fetches:
                live[slot] = True
                if edge.kind == "leading":
                    # Its wrapper was made from these very nodes.
                    sequence = sequences[slot] = sequences[edge.parent.slot]
                    if sequence.holds_attributes:
                        signature |= edge.flag
                continue
            sequence = sequences[slot] = index.nodes_of(edge.source)
            if sequence.holds_attributes:
                signature |= edge.flag
            restriction = edge.holder.restrict_filter
            if restriction is not None:
                positions = index.restrict_pass(edge.source, restriction)
            else:
                positions = range(len(sequence))
            found[slot] = positions
            if not positions:
                continue
            live[slot] = True
            if edge.kind == "join":
                pairs = index.closest_pair_map(edge.anchor, edge.source)
                if restriction is not None:
                    allowed = set(positions)
                    pairs = [
                        partners
                        and [position for position in partners if position in allowed]
                        for partners in pairs
                    ]
                probes[slot] = pairs.__getitem__
        return sequences, found, probes, signature

    def _account(self, rows, sequences, found, probes) -> tuple[int, int, int]:
        """``(nodes_written, nodes_read, joins)`` of one render, counted.

        An edge was evaluated iff its parent has instances; that is all
        the counters depend on, so they are computed here from the
        per-edge instance counts instead of inside the loops.  Under a
        tracer one ``render.join`` span per evaluated join, the
        ``join.comparisons`` counter and the ``join.pairs`` histogram
        are replayed in shape pre-order.
        """
        traced = obs.enabled()
        carried: dict[int, Optional[set[int]]] = {}
        read = joins = 0
        for edge in self._edges:
            parent = edge.parent
            if parent is not None and not rows[parent.slot]:
                continue
            slot = edge.slot
            if edge.fetches:
                read += len(sequences[slot])
            joined = edge.kind in ("self", "join") and bool(found[slot])
            joins += joined
            if traced:
                above = carried[parent.slot] if parent is not None else None
                carried[slot] = _trace_join(edge, joined, above, found[slot], probes[slot])
        written = sum(rows)
        obs.count("render.nodes_emitted", written)
        obs.count("render.nodes_read", read)
        obs.count("render.joins", joins)
        return written, read, joins


def _trace_join(edge: _Edge, joined: bool, above, positions, probe) -> Optional[set[int]]:
    """Replay one edge's join accounting; returns the anchors it hands down.

    ``above`` is the set of positions of the distinct anchor nodes the
    parent's instances carry (``None``: unanchored).  The merge pass
    touches each input sequence once (Section VII), hence
    ``join.comparisons``.
    """
    if edge.kind in ("root", "root-wrap", "broadcast"):
        return set(positions)
    if edge.kind not in ("self", "join"):
        return above
    if not joined:
        return set()
    if edge.kind == "self":
        below, pairs = above, len(above)
    else:
        below, pairs = set(), 0
        for anchor in above:
            partners = probe(anchor)
            if partners:
                pairs += len(partners)
                below.update(partners)
    with obs.span("render.join", child=edge.holder.out_name) as join_span:
        pass
    obs.count("join.comparisons", len(above) + len(positions))
    obs.observe("join.pairs", pairs)
    join_span.annotate(anchors=len(above), candidates=len(positions), pairs=pairs)
    return below


class _Codegen:
    """Unrolls the edge list into the nested loops of one sink.

    Level ``d`` of the nesting holds one instance: ``_n{d}`` is the
    position of the source node it anchors on, and in the tree sink
    ``_t{d}`` / ``_k{d}`` / ``_p{d}`` its output node, child list and
    Dewey parts (level 0 is the forest: no node, the root list, the
    empty prefix).  A backed edge reads its source nodes through its
    sequence's columns — ``_x{slot}`` escaped values (the column
    ``_flavour`` names: ``escaped`` or ``json``) and ``_a{slot}``
    attribute flags in the text sink, ``_N{slot}`` node objects in the
    tree sink; ``_a{slot}`` is bound only for a child type the
    ``signature`` flags (its sequence holds an attribute), and a leaf
    child reads ``_L{slot}``, the ``__getitem__`` of its ``leaves``
    column in that flavour, instead of ``_x{slot}``.  Every string the
    text sink writes is a bound constant, a column entry or one of
    ``>`` and ``/>``, which read the same in XML and in a JSON string
    body, so the one text source serves both of :meth:`namespaces`'
    flavours.
    ``r{slot}`` counts an edge's instances; the function returns them
    all.
    """

    def __init__(self, edges: list[_Edge], text: bool, signature: int = 0):
        self.edges = edges
        self.roots = [edge for edge in edges if edge.parent is None]
        self.text = text
        self.signature = signature
        self.env: dict[str, object] = {"_none": (None,), "_empty": ()}
        if text:
            # ``_quote`` and ``_discard`` join once a flagged type needs them.
            self.env.update(_flavour="escaped")
        else:
            self.env.update(
                _X=XmlNode,
                _nw=XmlNode.__new__,
                _DW=Dewey,
                _dnw=Dewey.__new__,
                _EL=NodeKind.ELEMENT,
            )
        self._const_names: dict[str, str] = {}
        self.lines: list[str] = []
        self.helpers: list[str] = []
        #: Level at which the function being emitted started, and the
        #: counters it assigns (a helper declares them ``nonlocal``).
        self.floor = 0
        self.assigned: set[int] = set()

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def const(self, value: str) -> str:
        """A local name bound to the string ``value`` (tag text, names)."""
        name = self._const_names.get(value)
        if name is None:
            name = self._const_names[value] = f"S{len(self._const_names)}"
            self.env[name] = value
        return name

    def namespaces(self) -> dict[str, dict]:
        """The namespace to ``exec`` :meth:`generate`'s source in, per sink.

        The text source gets a second, ``json``: the same names bound to
        the JSON string body of each constant, the sequences' ``json``
        and JSON ``leaves`` columns and :func:`json_quotes`.
        """
        if not self.text:
            return {"tree": self.env}
        flavour = dict(self.env, _flavour="json")
        if "_quote" in flavour:
            flavour["_quote"] = json_quotes
        for value, name in self._const_names.items():
            flavour[name] = json_text(value)
        return {"text": self.env, "json": flavour}

    def generate(self) -> str:
        counters = [f"r{edge.slot}" for edge in self.edges]
        result = f"[{', '.join(counters)}]"
        if self.text:
            self.emit(1, "_b = []; _w = _b.append; _nc = 0")
            for root in self.roots:
                self._text_root(root)
            self.emit(1, "_s = ''.join(_b); _out(_s)")
            result += ", _nc + len(_s)"
        else:
            self.emit(1, "_t0 = None; _p0 = ()")
            self._tree_children(self.roots, 0, 1)
        prelude = [f"    {' = '.join(counters)} = 0"] if counters else []
        for edge in self.edges:
            slot = edge.slot
            if edge.kind == "join":
                prelude.append(f"    _g{slot} = _G[{slot}]")
            elif edge.fetches:
                prelude.append(f"    _c{slot} = _C[{slot}]")
            if edge.backed and self.text:
                sequence = f"_S[{slot}]"
                bound = []
                if edge.children or edge.parent is None or self.flagged(edge):
                    bound.append(f"_x{slot} = getattr({sequence}, _flavour)")
                if self.flagged(edge):
                    bound.append(f"_a{slot} = {sequence}.attributes")
                if not edge.children and edge.parent is not None:
                    name = repr(edge.vertex.out_name)
                    bound.append(f"_L{slot} = {sequence}.leaves(_flavour, {name}).__getitem__")
                prelude.append(f"    {'; '.join(bound)}")
            elif edge.backed:
                prelude.append(f"    _N{slot} = _S[{slot}].nodes")
        # Every constant is bound as a default argument: LOAD_FAST
        # instead of LOAD_GLOBAL in the hot loops.
        sink = "_out" if self.text else "_k0, prov"
        params = ", ".join(f"{name}={name}" for name in self.env)
        header = f"def _render(_S, _C, _G, {sink}, {params}):"
        body = [header, *prelude, *self.helpers, *self.lines, f"    return {result}"]
        return "\n".join(body) + "\n"

    def _sequence(self, edge: _Edge, level: int) -> str:
        """The expression yielding ``edge``'s anchors under ``_n{level}``."""
        if edge.kind in ("root", "root-wrap", "broadcast"):
            return f"_c{edge.slot}"
        if edge.kind == "root-new":
            return "_none"
        if edge.kind == "join":
            return f"_g{edge.slot}(_n{level}) or _empty"
        if edge.kind == "self":
            return f"_c{edge.slot} and (_n{level},)"
        return f"(_n{level},)"

    def _instance(self, edge: _Edge, level: int, indent: int) -> None:
        """One instance of ``edge`` at ``level``, anchored on ``_n{level}``.

        Inline, until the nesting is :data:`_INLINE_LEVELS` deep; from
        there on as a call to a helper function holding the subtree.
        """
        body = self._text_body if self.text else self._tree_body
        if level - self.floor < _INLINE_LEVELS or not edge.children:
            body(edge, level, indent)
            return
        up = level - 1
        params = f"_n{level}, _w" if self.text else f"_n{level}, _t{up}, _k{up}, _p{up}"
        self.emit(indent, f"_h{edge.slot}({params})")
        outer = self.lines, self.floor, self.assigned
        self.lines, self.floor, self.assigned = [], level, set()
        self.emit(1, f"def _h{edge.slot}({params}):")
        self.emit(2, "")  # the nonlocal line, once the body says which
        body(edge, level, 2)
        names = ", ".join(f"r{slot}" for slot in sorted(self.assigned))
        self.lines[1] = f"        nonlocal {names}"
        self.helpers.extend(self.lines)
        self.lines, self.floor, self.assigned = outer

    # -- tree sink ----------------------------------------------------------------

    def _tree_children(self, children: list[_Edge], level: int, indent: int) -> None:
        for child in children:
            self.assigned.add(child.slot)
            self.emit(indent, f"_m = {self._sequence(child, level)}")
            self.emit(indent, "if _m:")
            self.emit(indent + 1, f"r{child.slot} += len(_m)")
            self.emit(indent + 1, f"for _n{level + 1} in _m:")
            self._instance(child, level + 1, indent + 2)

    def _tree_body(self, edge: _Edge, d: int, indent: int) -> None:
        name = self.const(edge.vertex.out_name)
        up = d - 1
        # Leaves keep no handle on their child list or Dewey parts.
        keep_children, keep_parts = (f"_k{d} = ", f"_p{d} = ") if edge.children else ("", "")
        copied = (
            f"_q = _N{edge.slot}[_n{d}]; _t{d}.kind = _q.kind; _t{d}.text = _q.text; "
            f"prov[id(_t{d})] = _q"
            if edge.backed
            else f"_t{d}.kind = _EL; _t{d}.text = ''"
        )
        self.emit(
            indent,
            f"_t{d} = _nw(_X); _t{d}.name = {name}; {copied}; "
            f"{keep_children}_t{d}.children = []; _t{d}.parent = _t{up}",
        )
        self.emit(
            indent,
            f"_k{up}.append(_t{d}); _dd = _dnw(_DW); "
            f"{keep_parts}_dd._parts = _p{up} + (len(_k{up}),); _t{d}.dewey = _dd",
        )
        self._tree_children(edge.children, d, indent)

    # -- text sink ----------------------------------------------------------------

    def _text_root(self, root: _Edge) -> None:
        """Root instances: always elements, newline-separated, flushed."""
        self.emit(1, f"_m = {self._sequence(root, 0)}")
        self.emit(1, f"r{root.slot} = len(_m)")
        self.emit(1, "for _n1 in _m:")
        newline = self.const("\n")
        self.emit(2, f"if _b or _nc: _w({newline})")
        self._instance(root, 1, 2)
        self.emit(2, f"if len(_b) >= {_FLUSH_CHUNKS}:")
        self.emit(3, "_s = ''.join(_b); _out(_s); _nc += len(_s); del _b[:]")

    def flagged(self, edge: _Edge) -> bool:
        """Whether ``edge`` copies nodes that may be attributes: the
        signature's bit of a backed child."""
        return bool(self.signature & edge.flag)

    def _text_body(self, edge: _Edge, d: int, indent: int) -> None:
        """``_n{d}`` written as an element: start tag, attributes, value,
        element children, end tag — the order ``serialize()`` uses."""
        name = edge.vertex.out_name
        if not edge.children:
            if edge.backed:
                # Only a root gets here (a backed leaf child is one
                # write of its leaf column), and a root is an element
                # even when it copies an attribute.
                self.emit(indent, f"_s = _x{edge.slot}[_n{d}]")
                self.emit(
                    indent,
                    f"if _s: _w({self.const(f'<{name}>')}); _w(_s); "
                    f"_w({self.const(f'</{name}>')})",
                )
                self.emit(indent, f"else: _w({self.const(f'<{name}/>')})")
            else:
                self.emit(indent, f"_w({self.const(f'<{name}/>')})")
            return
        if any(self.flagged(child) for child in edge.children):
            self._text_start_tag(edge, d, indent)
            return
        # No child can be an attribute: the element is empty iff every
        # partner list and its text are.
        if edge.backed:
            self.emit(indent, f"_s = _x{edge.slot}[_n{d}]")
        for child in edge.children:
            slot = child.slot
            self.assigned.add(slot)
            self.emit(indent, f"_m{slot} = {self._sequence(child, d)}; r{slot} += len(_m{slot})")
        tests = [f"_m{child.slot}" for child in edge.children] + ["_s"] * edge.backed
        self.emit(indent, f"if {' or '.join(tests)}:")
        text = "; _w(_s)" if edge.backed else ""
        self.emit(indent + 1, f"_w({self.const(f'<{name}>')}){text}")
        self._text_children(edge, d, indent + 1)
        self.emit(indent + 1, f"_w({self.const(f'</{name}>')})")
        self.emit(indent, f"else: _w({self.const(f'<{name}/>')})")

    def _text_start_tag(self, edge: _Edge, d: int, indent: int) -> None:
        """``_text_body`` of an element with a flagged child: a first
        pass over the partner lists puts the attributes into the start
        tag and finds whether any element child will follow."""
        name = edge.vertex.out_name
        self.emit(indent, f"_w({self.const(f'<{name}')})")
        self.emit(indent, "_e = False")
        for child in edge.children:
            slot = child.slot
            self.assigned.add(slot)
            self.emit(indent, f"_m{slot} = {self._sequence(child, d)}")
            self.emit(indent, f"if _m{slot}:")
            self.emit(indent + 1, f"r{slot} += len(_m{slot})")
            if self.flagged(child):
                self.env["_quote"] = escape_quotes
                attribute = self.const(f' {child.vertex.out_name}="')
                close = self.const('"')
                self.emit(indent + 1, f"for _x in _m{slot}:")
                self.emit(
                    indent + 2,
                    f"if _a{slot}[_x]: _w({attribute}); "
                    f"_w(_quote(_x{slot}[_x])); _w({close})",
                )
                self.emit(indent + 2, "else: _e = True")
            else:
                self.emit(indent + 1, "_e = True")
        # ``_z{d}`` is how the element ends.  The second pass runs even
        # for a self-closing one: attribute children still have subtrees
        # to count.
        self.emit(indent, f"_s = _x{edge.slot}[_n{d}]" if edge.backed else "_s = ''")
        self.emit(indent, "if _e or _s:")
        self.emit(indent + 1, "_w('>')")
        self.emit(indent + 1, "if _s: _w(_s)")
        self.emit(indent + 1, f"_z{d} = {self.const(f'</{name}>')}")
        self.emit(indent, "else:")
        self.emit(indent + 1, f"_z{d} = '/>'")
        self._text_children(edge, d, indent)
        self.emit(indent, f"_w(_z{d})")

    def _text_children(self, edge: _Edge, d: int, indent: int) -> None:
        """The element children of ``_n{d}``, from the partner lists."""
        below = d + 1
        for child in edge.children:
            loop = f"for _n{below} in _m{child.slot}:"
            if child.backed and not child.children:
                # One read of the leaf column (``""`` for an attribute,
                # already in the start tag) and one write per partner.
                self.emit(indent, f"for _x in _m{child.slot}: _w(_L{child.slot}(_x))")
            elif self.flagged(child):
                # An attribute's own subtree is never serialized, but
                # its instances count: walk it with the writer muted.
                self.env["_discard"] = _discard
                self.emit(indent, f"_v{d} = _w")
                self.emit(indent, loop)
                self.emit(
                    indent + 1, f"_w = _discard if _a{child.slot}[_n{below}] else _v{d}"
                )
                self._instance(child, below, indent + 1)
                self.emit(indent, f"_w = _v{d}")
            else:
                self.emit(indent, loop)
                self._instance(child, below, indent + 1)


def _discard(_chunk: str) -> None:
    """The text sink's writer inside an attribute's (unserialized) subtree."""
