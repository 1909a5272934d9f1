"""Plan-time compilation of the Render algorithm (ROADMAP item 3).

The batch renderer in :mod:`repro.engine.render` is a faithful but
interpretive implementation of Section VII: every node copy goes through
``_make`` (an ``XmlNode`` constructor, a dataclass allocation, two dict
updates and a per-instance tally), every shape edge re-dispatches on the
child's kind, and every join re-derives its anchor type at render time.
None of that dispatch depends on the data — it depends only on the
*target shape*, which is fixed per ``(guard, shape fingerprint)`` plan.

:func:`compile_render` therefore walks the target shape **once at
plan-compile time** and generates a specialized Python function for it:

* the shape recursion is unrolled into straight-line per-edge blocks
  (no kind dispatch, no recursion, no ``_Instance`` wrappers — output
  nodes and their join anchors live in parallel lists);
* every instance list's **anchor data type is resolved statically**
  (a backed child anchors on its source type, a NEW wrapper on its
  leading backed child, placeholders inherit the parent's anchor), so
  the self-pair / cross-join / broadcast join forms are chosen at
  compile time instead of per render;
* closest-pair **join levels and cardinalities are precomputed** from
  the adorned shape's per-type counts (the same counts that are part of
  the shape fingerprint, so they are plan-stable) and recorded on the
  artifact for ``EXPLAIN ANALYZE``;
* RESTRICT filters are **fused into the emit loop** as an id-set
  intersection built once per edge;
* output nodes are created via ``XmlNode.__new__`` plus direct slot
  stores, skipping the constructor, and leaf types skip their output
  lists entirely (their instances are only ever appended to parents).

The generated function is ``exec``'d once, stored on the
:class:`~repro.cache.CompiledPlan`, and reused by every plan-cache hit:
a warm render runs the specialized code with **zero interpretation**.

Safety: the function binds only plan-stable values — ``DataType`` is
value-equal across index epochs, node sequences are fetched through
``index.nodes_of`` at render time (so lazy loading, block-I/O charging
and the id()-keyed join memos keep working), and per-type counts are
covered by the shape fingerprint that keys the cache.  Output is
byte-identical to the interpreter, including ``nodes_read`` /
``nodes_written`` / ``joins`` counters, ``rows_by_type``, provenance,
and the traced ``render.join`` spans (the parity suites and the
Hypothesis suite in ``tests/engine`` pin this down).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs import tracer as obs
from repro.engine.render import RenderResult
from repro.shape.shape import Shape
from repro.shape.types import DataType, ShapeType
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import NodeKind, XmlForest, XmlNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.closeness.index import BaseIndex


class CompiledRender:
    """A specialized render function for one ``(guard, shape)`` plan.

    ``fn(index)`` produces a :class:`RenderResult` byte-identical to
    ``render(shape, index)``.  ``source_code`` is the generated Python
    (kept for debugging and the test suite), ``edge_plans`` the
    per-edge join plan recorded for ``EXPLAIN ANALYZE``.
    """

    __slots__ = ("fn", "source_code", "shape", "edge_plans", "fused_filters")

    def __init__(
        self,
        fn,
        source_code: str,
        shape: Shape,
        edge_plans: list[dict],
        fused_filters: int,
    ):
        self.fn = fn
        self.source_code = source_code
        #: Kept alive: the generated code keys ``rows_by_type`` on the
        #: ``id()`` of these shape vertices.
        self.shape = shape
        self.edge_plans = edge_plans
        self.fused_filters = fused_filters

    def run(self, index: "BaseIndex") -> RenderResult:
        return self.fn(index)

    def describe(self) -> str:
        joins = sum(1 for e in self.edge_plans if e["kind"] in ("join", "self"))
        return (
            f"{len(self.edge_plans)} edges specialized "
            f"({joins} joins, {self.fused_filters} fused filters)"
        )


def compile_render(shape: Shape, index: "BaseIndex") -> CompiledRender:
    """Generate and ``exec`` a specialized renderer for ``shape``."""
    generator = _Codegen(shape, index)
    source_code = generator.generate()
    namespace = dict(generator.env)
    code = compile(source_code, "<xmorph-compiled-render>", "exec")
    exec(code, namespace)  # noqa: S102 - plan-time codegen, our own source
    return CompiledRender(
        fn=namespace["_render"],
        source_code=source_code,
        shape=shape,
        edge_plans=generator.edge_plans,
        fused_filters=generator.fused_filters,
    )


def try_compile_render(shape: Shape, index: "BaseIndex") -> Optional[CompiledRender]:
    """A :class:`CompiledRender`, or ``None`` when specialization fails.

    Falling back to the interpreter is always safe (identical output),
    so callers on the serving path prefer a silent downgrade over a
    failed request; the ``render.compile_fallback`` counter makes the
    downgrade visible in metrics.
    """
    try:
        return compile_render(shape, index)
    except Exception:
        obs.count("render.compile_fallback")
        return None


class _Codegen:
    """Walks the target shape once and emits the specialized source."""

    def __init__(self, shape: Shape, index: "BaseIndex"):
        self.shape = shape
        self.index = index
        self.lines: list[str] = []
        self.env: dict[str, object] = {
            "_RenderResult": RenderResult,
            "_XmlForest": XmlForest,
            "_X": XmlNode,
            "_nw": XmlNode.__new__,
            "_DW": Dewey,
            "_dnw": Dewey.__new__,
            "_EL": NodeKind.ELEMENT,
            "_span": obs.span,
            "_count": obs.count,
            "_observe": obs.observe,
            "_enabled": obs.enabled,
        }
        self._list_ids = 0
        self._const_ids = 0
        self.edge_plans: list[dict] = []
        self.fused_filters = 0

    # -- small emission helpers -------------------------------------------

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def fresh_list(self) -> int:
        self._list_ids += 1
        return self._list_ids

    def const(self, prefix: str, value: object) -> str:
        self._const_ids += 1
        name = f"{prefix}{self._const_ids}"
        self.env[name] = value
        return name

    def _counts(self, anchor: Optional[DataType], source: DataType) -> tuple[int, int]:
        anchors = self.index.count_of(anchor) if anchor is not None else 0
        return anchors, self.index.count_of(source)

    def _note_edge(
        self,
        child: ShapeType,
        kind: str,
        anchor: Optional[DataType],
        source: Optional[DataType],
    ) -> None:
        level = None
        anchor_rows = child_rows = 0
        if source is not None:
            anchor_rows, child_rows = self._counts(anchor, source)
            if anchor is not None and kind == "join":
                level = self.index.closest_lca_level(anchor, source)
        self.edge_plans.append(
            {
                "child": child.out_name,
                "kind": kind,
                "source": source.dotted if source is not None else None,
                "anchor": anchor.dotted if anchor is not None else None,
                "lca_level": level,
                "anchor_rows": anchor_rows,
                "child_rows": child_rows,
            }
        )

    # -- node construction snippets ---------------------------------------

    def _make_backed(self, indent: int, name_const: str, parent_expr: str) -> None:
        """Copy source node ``_n`` under ``parent_expr`` as ``_t``."""
        self.emit(
            indent,
            f"_t = _nw(_X); _t.kind = _n.kind; _t.name = {name_const}; "
            f"_t.text = _n.text; _t.children = []; _t.parent = {parent_expr}; "
            f"prov[id(_t)] = _n",
        )

    def _make_empty(self, indent: int, name_const: str, parent_expr: str) -> None:
        """A fresh empty element (NEW wrapper or placeholder) as ``_t``."""
        self.emit(
            indent,
            f"_t = _nw(_X); _t.kind = _EL; _t.name = {name_const}; "
            f"_t.text = ''; _t.children = []; _t.parent = {parent_expr}",
        )

    def _hoist_parent(self, indent: int) -> None:
        """Per-parent locals for numbered appends under ``_po``."""
        self.emit(indent, "_pc = _po.children; _pp = _po.dewey._parts")

    def _append_child(self, indent: int, extra: str = "") -> None:
        """Append ``_t`` under ``_po`` and assign its Dewey inline.

        Emission is strictly top-down — a parent's identifier is final
        before any of its children exist, and children lists only ever
        grow in document order — so the sibling ordinal is simply the
        list length at append time and the whole ``renumber()`` pass is
        compiled away.  Requires :meth:`_hoist_parent` in scope.
        """
        self.emit(
            indent,
            "_pc.append(_t); _dd = _dnw(_DW); _dd._parts = _pp + (len(_pc),); "
            f"_t.dewey = _dd{extra}",
        )

    def _append_root(self, indent: int, extra: str = "") -> None:
        """Append ``_t`` as the next forest root, numbered inline."""
        self.emit(
            indent,
            "_fr.append(_t); _dd = _dnw(_DW); _dd._parts = (len(_fr),); "
            f"_t.dewey = _dd{extra}",
        )

    def _tally(self, indent: int, shape_type: ShapeType, count_expr: str) -> None:
        key = self.const("R", id(shape_type))
        self.emit(indent, f"nw += {count_expr}")
        self.emit(indent, f"rows[{key}] = rows.get({key}, 0) + {count_expr}")

    def _fetch_candidates(
        self, indent: int, shape_type: ShapeType, source: DataType
    ) -> str:
        """Fetch (and RESTRICT-filter) a source sequence into ``_c``."""
        type_const = self.const("D", source)
        self.emit(indent, f"_c = _no({type_const})")
        self.emit(indent, "nr += len(_c)")
        if shape_type.restrict_filter is not None:
            filter_const = self.const("F", shape_type.restrict_filter)
            self.emit(indent, f"_c = _rp(_c, {type_const}, {filter_const})")
            self.fused_filters += 1
        return type_const

    # -- entry point --------------------------------------------------------

    def generate(self) -> str:
        self.emit(0, "")  # def header patched in below, once consts exist
        self.emit(1, "result = _RenderResult(_XmlForest())")
        self.emit(1, "prov = result.provenance")
        self.emit(1, "rows = result.rows_by_type")
        self.emit(1, "_fr = result.forest.roots")
        self.emit(1, "_no = index.nodes_of")
        self.emit(1, "_rp = index.restrict_pass")
        self.emit(1, "_pm = index.closest_pair_map")
        self.emit(1, "_tr = _enabled()")
        self.emit(1, "nr = 0")
        self.emit(1, "nw = 0")
        self.emit(1, "nj = 0")
        for root in self.shape.roots():
            self._emit_root(root)
        self.emit(1, "result.nodes_written = nw")
        self.emit(1, "result.nodes_read = nr")
        self.emit(1, "result.joins = nj")
        self.emit(1, "result.compiled = True")
        self.emit(1, "_count('render.nodes_emitted', nw)")
        self.emit(1, "_count('render.nodes_read', nr)")
        self.emit(1, "_count('render.joins', nj)")
        self.emit(1, "return result")
        # Bind every environment constant as a default argument: the
        # per-node name/type constants (and the allocator pair) become
        # LOAD_FAST instead of LOAD_GLOBAL in the hot loops.
        params = ", ".join(f"{name}={name}" for name in self.env)
        self.lines[0] = f"def _render(index, {params}):"
        return "\n".join(self.lines) + "\n"

    # -- roots --------------------------------------------------------------

    def _emit_root(self, root: ShapeType) -> None:
        k = self.fresh_list()
        name_const = self.const("N", root.out_name)
        if root.source is not None:
            self._note_edge(root, "root", None, root.source)
            self._fetch_candidates(1, root, root.source)
            self.emit(1, f"o{k} = []")
            self.emit(1, f"a{k} = _c")
            self.emit(1, "for _n in _c:")
            self._make_backed(2, name_const, "None")
            self._append_root(2, extra=f"; o{k}.append(_t)")
            self.emit(1, f"if o{k}:")
            self._tally(2, root, f"len(o{k})")
            self._emit_children(root, k, root.source, 2)
            return
        leading = self._leading_backed_child(root)
        if leading is None:
            self._note_edge(root, "root-new", None, None)
            self._make_empty(1, name_const, "None")
            self._append_root(1)
            self.emit(1, f"o{k} = [_t]")
            self.emit(1, f"a{k} = [None]")
            self._tally(1, root, "1")
            self._emit_children(root, k, None, 1)
            return
        # Root NEW wrapping its leading backed child: one wrapper per
        # leading-child source node (the leading child itself is later
        # attached through the generic dispatch, self-joining 1:1).
        self._note_edge(root, "root-wrap", None, leading.source)
        self._fetch_candidates(1, leading, leading.source)
        self.emit(1, f"o{k} = []")
        self.emit(1, f"a{k} = _c")
        self.emit(1, "for _n in _c:")
        self._make_empty(2, name_const, "None")
        self._append_root(2, extra=f"; o{k}.append(_t)")
        self.emit(1, f"if o{k}:")
        self._tally(2, root, f"len(o{k})")
        self._emit_children(root, k, leading.source, 2)

    def _leading_backed_child(self, shape_type: ShapeType) -> Optional[ShapeType]:
        for child in self.shape.children(shape_type):
            if child.source is not None:
                return child
            deeper = self._leading_backed_child(child)
            if deeper is not None:
                return deeper
        return None

    # -- the recursive descent, unrolled ------------------------------------

    def _emit_children(
        self,
        parent: ShapeType,
        k: int,
        anchor: Optional[DataType],
        indent: int,
        new_leading: Optional[ShapeType] = None,
    ) -> None:
        """Emit one block per shape edge out of ``parent``.

        ``new_leading`` switches to the NEW-wrapper dispatch of
        ``_attach_new_children`` (the leading child maps 1:1 and the
        placeholder short-circuit does not apply) — the interpreter's
        two dispatch tables, reproduced statically.
        """
        for child in self.shape.children(parent):
            if new_leading is not None:
                if child is new_leading:
                    self._emit_leading(child, k, indent)
                elif child.source is not None:
                    self._emit_backed(child, k, anchor, indent)
                else:
                    self._emit_new(child, k, anchor, indent)
                continue
            if child.source is not None:
                if child.synthesized and self.index.count_of(child.source) == 0:
                    self._emit_placeholder(child, k, anchor, indent)
                else:
                    self._emit_backed(child, k, anchor, indent)
            elif child.synthesized:
                self._emit_placeholder(child, k, anchor, indent)
            else:
                self._emit_new(child, k, anchor, indent)

    def _emit_backed(
        self, child: ShapeType, k: int, anchor: Optional[DataType], indent: int
    ) -> None:
        assert child.source is not None
        name_const = self.const("N", child.out_name)
        self._emit_joined(
            child,
            k,
            anchor,
            indent,
            source=child.source,
            filter_holder=child,
            make=lambda ind, parent_expr, from_anchor: self._make_backed(
                ind, name_const, parent_expr
            ),
            backed=True,
        )

    def _emit_new(
        self, child: ShapeType, k: int, anchor: Optional[DataType], indent: int
    ) -> None:
        name_const = self.const("N", child.out_name)
        leading = self._leading_backed_child(child)
        if leading is None:
            # One wrapper per parent, inheriting the parent's anchor.
            m = self.fresh_list()
            self._note_edge(child, "new", anchor, None)
            leaf = not self.shape.children(child)
            if leaf:
                self.emit(indent, f"for _po in o{k}:")
                self._hoist_parent(indent + 1)
                self._make_empty(indent + 1, name_const, "_po")
                self._append_child(indent + 1)
                self._tally(indent, child, f"len(o{k})")
                return
            self.emit(indent, f"o{m} = []")
            self.emit(indent, f"a{m} = a{k}")
            self.emit(indent, f"for _po in o{k}:")
            self._hoist_parent(indent + 1)
            self._make_empty(indent + 1, name_const, "_po")
            self._append_child(indent + 1, extra=f"; o{m}.append(_t)")
            self._tally(indent, child, f"len(o{m})")
            self._emit_children(child, m, anchor, indent)
            return
        self._emit_joined(
            child,
            k,
            anchor,
            indent,
            source=leading.source,
            filter_holder=leading,
            make=lambda ind, parent_expr, from_anchor: self._make_empty(
                ind, name_const, parent_expr
            ),
            backed=False,
            new_leading=leading,
        )

    def _emit_leading(self, child: ShapeType, k: int, indent: int) -> None:
        """A NEW wrapper's leading child: 1:1 from the wrapper anchors.

        No fetch, no join — the wrapper was created *from* these nodes
        (``_attach_new_children``'s first branch).
        """
        assert child.source is not None
        name_const = self.const("N", child.out_name)
        m = self.fresh_list()
        self._note_edge(child, "leading", child.source, child.source)
        leaf = not self.shape.children(child)
        if leaf:
            self.emit(indent, f"for _po, _n in zip(o{k}, a{k}):")
            self._hoist_parent(indent + 1)
            self._make_backed(indent + 1, name_const, "_po")
            self._append_child(indent + 1)
            self._tally(indent, child, f"len(o{k})")
            return
        self.emit(indent, f"o{m} = []")
        self.emit(indent, f"a{m} = a{k}")
        self.emit(indent, f"for _po, _n in zip(o{k}, a{k}):")
        self._hoist_parent(indent + 1)
        self._make_backed(indent + 1, name_const, "_po")
        self._append_child(indent + 1, extra=f"; o{m}.append(_t)")
        self._tally(indent, child, f"len(o{m})")
        self._emit_children(child, m, child.source, indent)

    def _emit_placeholder(
        self, child: ShapeType, k: int, anchor: Optional[DataType], indent: int
    ) -> None:
        """TYPE-FILLed: one empty element per parent, anchor inherited."""
        name_const = self.const("N", child.out_name)
        m = self.fresh_list()
        self._note_edge(child, "placeholder", anchor, None)
        leaf = not self.shape.children(child)
        if leaf:
            self.emit(indent, f"for _po in o{k}:")
            self._hoist_parent(indent + 1)
            self._make_empty(indent + 1, name_const, "_po")
            self._append_child(indent + 1)
            self._tally(indent, child, f"len(o{k})")
            return
        self.emit(indent, f"o{m} = []")
        self.emit(indent, f"a{m} = a{k}")
        self.emit(indent, f"for _po in o{k}:")
        self._hoist_parent(indent + 1)
        self._make_empty(indent + 1, name_const, "_po")
        self._append_child(indent + 1, extra=f"; o{m}.append(_t)")
        self._tally(indent, child, f"len(o{m})")
        self._emit_children(child, m, anchor, indent)

    # -- the three closest-join forms, chosen statically ---------------------

    def _emit_joined(
        self,
        child: ShapeType,
        k: int,
        anchor: Optional[DataType],
        indent: int,
        source: DataType,
        filter_holder: ShapeType,
        make,
        backed: bool,
        new_leading: Optional[ShapeType] = None,
    ) -> None:
        """Candidates of ``source`` joined against parent list ``k``.

        Three statically-distinguished forms (the interpreter re-derives
        this per render from the runtime anchor types):

        * ``anchor is None`` — every parent gets every candidate, no
          join is counted (``_join`` returns early on no anchors);
        * ``anchor == source`` — the self-pair: each parent wraps its
          own anchor, bypassing any RESTRICT intersection;
        * otherwise — the memoized closest-pair map, intersected with
          the RESTRICT survivor set when the edge carries a filter.
        """
        # Span label: the interpreter attributes a NEW wrapper's join to
        # the *leading backed child* it wraps, not the wrapper itself.
        name_const = self.const("N", filter_holder.out_name)
        restricted = filter_holder.restrict_filter is not None
        leaf = not self.shape.children(child)
        m = self.fresh_list()
        child_anchor = source  # produced instances anchor on the matched node

        if anchor is None:
            self._note_edge(child, "broadcast", None, source)
            self._fetch_candidates(indent, filter_holder, source)
            if leaf:
                self.emit(indent, "if _c:")
                self.emit(indent + 1, f"for _po in o{k}:")
                self._hoist_parent(indent + 2)
                self.emit(indent + 2, "for _n in _c:")
                make(indent + 3, "_po", False)
                self._append_child(indent + 3)
                self._tally(indent + 1, child, f"len(o{k}) * len(_c)")
                return
            self.emit(indent, f"o{m} = []")
            self.emit(indent, f"a{m} = []")
            self.emit(indent, "if _c:")
            self.emit(indent + 1, f"_oa = o{m}.append; _aa = a{m}.append")
            self.emit(indent + 1, f"for _po in o{k}:")
            self._hoist_parent(indent + 2)
            self.emit(indent + 2, "for _n in _c:")
            make(indent + 3, "_po", False)
            self._append_child(indent + 3, extra="; _oa(_t); _aa(_n)")
            self.emit(indent, f"if o{m}:")
            self._tally(indent + 1, child, f"len(o{m})")
            self._emit_children(
                child, m, child_anchor, indent + 1, new_leading=new_leading
            )
            return

        if anchor == source:
            # Wrapping a node of the same type: 1:1, anchors are their
            # own closest partners, RESTRICT does not intersect.
            self._note_edge(child, "self", anchor, source)
            self._fetch_candidates(indent, filter_holder, source)
            self.emit(indent, "if _c:")
            self.emit(indent + 1, "nj += 1")
            # All join bookkeeping is trace-only: a disabled tracer costs
            # this edge a single truth test.
            self.emit(indent + 1, "if _tr:")
            self.emit(indent + 2, f"_u = len({{id(_x) for _x in a{k}}})")
            self.emit(indent + 2, f"with _span('render.join', child={name_const}) as _js:")
            self.emit(indent + 3, "pass")
            self.emit(indent + 2, "_count('join.comparisons', _u + len(_c))")
            self.emit(indent + 2, "_observe('join.pairs', _u)")
            self.emit(
                indent + 2, "_js.annotate(anchors=_u, candidates=len(_c), pairs=_u)"
            )
            if leaf:
                self.emit(indent + 1, f"for _po, _n in zip(o{k}, a{k}):")
                self._hoist_parent(indent + 2)
                make(indent + 2, "_po", True)
                self._append_child(indent + 2)
                self._tally(indent + 1, child, f"len(o{k})")
                return
            self.emit(indent + 1, f"o{m} = []")
            self.emit(indent + 1, f"a{m} = a{k}")
            self.emit(indent + 1, f"for _po, _n in zip(o{k}, a{k}):")
            self._hoist_parent(indent + 2)
            make(indent + 2, "_po", True)
            self._append_child(indent + 2, extra=f"; o{m}.append(_t)")
            self._tally(indent + 1, child, f"len(o{m})")
            self._emit_children(
                child, m, child_anchor, indent + 1, new_leading=new_leading
            )
            return

        # The general closest join against the memoized full pair map.
        self._note_edge(child, "join", anchor, source)
        anchor_const = self.const("D", anchor)
        source_const = self._fetch_candidates(indent, filter_holder, source)
        if not leaf:
            self.emit(indent, f"o{m} = []")
            self.emit(indent, f"a{m} = []")
        self.emit(indent, "if _c:")
        self.emit(indent + 1, "nj += 1")
        if restricted:
            # A RESTRICT edge intersects each anchor's partner list with
            # the survivor set once per *unique* anchor (repeated anchors
            # share the filtered copy), so the pre-pass map stays.
            self.emit(indent + 1, f"_uni = {{id(_x) for _x in a{k}}}")
            self.emit(indent + 1, "_pmap = {}")
            self.emit(
                indent + 1, f"with _span('render.join', child={name_const}) as _js:"
            )
            self.emit(indent + 2, f"_fg = _pm({anchor_const}, {source_const}).get")
            self.emit(indent + 2, "_alw = {id(_x) for _x in _c}")
            self.emit(indent + 2, "for _aid in _uni:")
            self.emit(indent + 3, "_m = _fg(_aid)")
            self.emit(indent + 3, "if not _m:")
            self.emit(indent + 4, "continue")
            self.emit(indent + 3, "_m = [_x for _x in _m if id(_x) in _alw]")
            self.emit(indent + 3, "if not _m:")
            self.emit(indent + 4, "continue")
            self.emit(indent + 3, "_pmap[_aid] = _m")
            self.emit(indent + 1, "if _tr:")
            self.emit(indent + 2, "_pr = 0")
            self.emit(indent + 2, "for _m in _pmap.values():")
            self.emit(indent + 3, "_pr += len(_m)")
            self.emit(indent + 2, "_count('join.comparisons', len(_uni) + len(_c))")
            self.emit(indent + 2, "_observe('join.pairs', _pr)")
            self.emit(
                indent + 2,
                "_js.annotate(anchors=len(_uni), candidates=len(_c), pairs=_pr)",
            )
            self.emit(indent + 1, "_pg = _pmap.get")
        else:
            # No filter: probe the memoized map directly in the emit loop.
            # The unique-anchor walk (comparisons / pairs accounting) is
            # trace-only, so an untraced render pays one dict probe per
            # parent and nothing else.
            self.emit(indent + 1, f"_pg = _pm({anchor_const}, {source_const}).get")
            self.emit(indent + 1, "if _tr:")
            self.emit(indent + 2, f"_uni = {{id(_x) for _x in a{k}}}")
            self.emit(
                indent + 2, f"with _span('render.join', child={name_const}) as _js:"
            )
            self.emit(indent + 3, "pass")
            self.emit(indent + 2, "_pr = 0")
            self.emit(indent + 2, "for _aid in _uni:")
            self.emit(indent + 3, "_m = _pg(_aid)")
            self.emit(indent + 3, "if _m:")
            self.emit(indent + 4, "_pr += len(_m)")
            self.emit(indent + 2, "_count('join.comparisons', len(_uni) + len(_c))")
            self.emit(indent + 2, "_observe('join.pairs', _pr)")
            self.emit(
                indent + 2,
                "_js.annotate(anchors=len(_uni), candidates=len(_c), pairs=_pr)",
            )
        if leaf:
            self.emit(indent + 1, "_cnt = 0")
            self.emit(indent + 1, f"for _po, _pa in zip(o{k}, a{k}):")
            self.emit(indent + 2, "_m = _pg(id(_pa))")
            self.emit(indent + 2, "if _m:")
            self._hoist_parent(indent + 3)
            self.emit(indent + 3, "for _n in _m:")
            make(indent + 4, "_po", False)
            self._append_child(indent + 4)
            self.emit(indent + 3, "_cnt += len(_m)")
            self.emit(indent + 1, "if _cnt:")
            self._tally(indent + 2, child, "_cnt")
            return
        self.emit(indent + 1, f"_oa = o{m}.append; _aa = a{m}.append")
        self.emit(indent + 1, f"for _po, _pa in zip(o{k}, a{k}):")
        self.emit(indent + 2, "_m = _pg(id(_pa))")
        self.emit(indent + 2, "if _m:")
        self._hoist_parent(indent + 3)
        self.emit(indent + 3, "for _n in _m:")
        make(indent + 4, "_po", False)
        self._append_child(indent + 4, extra="; _oa(_t); _aa(_n)")
        self.emit(indent, f"if o{m}:")
        self._tally(indent + 1, child, f"len(o{m})")
        self._emit_children(child, m, child_anchor, indent + 1, new_leading=new_leading)
