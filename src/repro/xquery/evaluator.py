"""Evaluator for XQuery-lite.

Values are Python lists of items; an item is an :class:`XmlNode`, a
``str``, a ``float`` or a ``bool``.  Atomization and effective boolean
value follow XPath: the string value of a node is its own text plus the
text of its descendants in document order; a sequence is true when its
first item is a node, or when its single atomic item is truthy by XPath
rules.  General comparisons are existential over both sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.errors import QueryError
from repro.xquery import ast
from repro.xquery.parser import parse_query
from repro.xmltree.node import NodeKind, XmlForest, XmlNode

Item = Union[XmlNode, str, float, bool]
Sequence = list


def virtual_document(forest: XmlForest) -> XmlNode:
    """A synthetic document node above a forest's roots.

    Rooted paths and ``doc()`` results start here, so ``/author``
    matches a root element named ``author`` (the roots' real parent
    pointers are left untouched).
    """
    document = XmlNode("#document")
    document.children = list(forest.roots)
    return document


@dataclass
class QueryContext:
    """Evaluation context: documents, variables, the context item."""

    documents: dict[str, XmlForest] = field(default_factory=dict)
    variables: dict[str, Sequence] = field(default_factory=dict)
    context_nodes: Sequence = field(default_factory=list)

    @classmethod
    def for_forest(cls, forest: XmlForest, name: str = "input") -> "QueryContext":
        return cls(documents={name: forest}, context_nodes=[virtual_document(forest)])

    def child(self, variables: dict[str, Sequence]) -> "QueryContext":
        merged = dict(self.variables)
        merged.update(variables)
        return QueryContext(self.documents, merged, self.context_nodes)


def evaluate(query: str | ast.Expr, context: QueryContext) -> Sequence:
    """Evaluate a query (text or parsed) and return the item sequence."""
    expr = parse_query(query) if isinstance(query, str) else query
    return _eval(expr, context)


# ---------------------------------------------------------------------------
# Value helpers
# ---------------------------------------------------------------------------


def string_value(item: Item) -> str:
    """XPath string value (atomization of one item)."""
    if isinstance(item, XmlNode):
        pieces: list[str] = []
        for node in item.iter_subtree():
            if node.text:
                pieces.append(node.text)
        return "".join(pieces).strip()
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, float):
        return str(int(item)) if item.is_integer() else str(item)
    return item


def number_value(item: Item) -> Optional[float]:
    try:
        return float(string_value(item))
    except (ValueError, TypeError):
        return None


def boolean_value(sequence: Sequence) -> bool:
    """XPath effective boolean value."""
    if not sequence:
        return False
    first = sequence[0]
    if isinstance(first, XmlNode):
        return True
    if len(sequence) > 1:
        raise QueryError("effective boolean value of a multi-item atomic sequence")
    if isinstance(first, bool):
        return first
    if isinstance(first, float):
        return first != 0
    return first != ""


# ---------------------------------------------------------------------------
# Core evaluation
# ---------------------------------------------------------------------------


def _eval(expr: ast.Expr, ctx: QueryContext) -> Sequence:
    if isinstance(expr, ast.Literal):
        return [expr.value]
    if isinstance(expr, ast.VarRef):
        try:
            return list(ctx.variables[expr.name])
        except KeyError:
            raise QueryError(f"undefined variable ${expr.name}") from None
    if isinstance(expr, ast.ContextItem):
        return list(ctx.context_nodes)
    if isinstance(expr, ast.Sequence):
        result: Sequence = []
        for item in expr.items:
            result.extend(_eval(item, ctx))
        return result
    if isinstance(expr, ast.Path):
        return _eval_path(expr, ctx)
    if isinstance(expr, ast.Binary):
        return _eval_binary(expr, ctx)
    if isinstance(expr, ast.IfExpr):
        if boolean_value(_eval(expr.condition, ctx)):
            return _eval(expr.then, ctx)
        return _eval(expr.otherwise, ctx)
    if isinstance(expr, ast.Flwor):
        return _eval_flwor(expr, ctx)
    if isinstance(expr, ast.Quantified):
        items = _eval(expr.source, ctx)
        results = (
            boolean_value(_eval(expr.condition, ctx.child({expr.variable: [item]})))
            for item in items
        )
        if expr.mode == "some":
            return [any(results)]
        return [all(results)]
    if isinstance(expr, ast.FunctionCall):
        return _eval_function(expr, ctx)
    if isinstance(expr, ast.Constructor):
        return [_eval_constructor(expr, ctx)]
    raise QueryError(f"cannot evaluate {expr!r}")


def _eval_path(path: ast.Path, ctx: QueryContext) -> Sequence:
    if path.start is None:
        current: Sequence = list(ctx.context_nodes)
    else:
        current = _eval(path.start, ctx)
    for step in path.steps:
        current = _eval_step(step, current, ctx)
    return current


def _eval_step(step: ast.Step, inputs: Sequence, ctx: QueryContext) -> Sequence:
    nodes = [item for item in inputs if isinstance(item, XmlNode)]
    output: Sequence = []
    if step.axis == "self":
        output = list(inputs)
    elif step.axis == "child":
        if step.test == "text()":
            for node in nodes:
                if node.text.strip():
                    output.append(node.text.strip())
        else:
            for node in nodes:
                for child in node.children:
                    if child.is_element and _name_matches(child, step.test):
                        output.append(child)
    elif step.axis == "descendant-or-self":
        if step.test == "text()":
            for node in nodes:
                text = string_value(node)
                if text:
                    output.append(text)
        else:
            for node in nodes:
                for descendant in node.iter_subtree():
                    if descendant.is_element and _name_matches(descendant, step.test):
                        output.append(descendant)
    elif step.axis == "parent":
        seen: set[int] = set()
        for node in nodes:
            parent = node.parent
            if parent is not None and id(parent) not in seen:
                seen.add(id(parent))
                output.append(parent)
    elif step.axis == "attribute":
        for node in nodes:
            for child in node.children:
                if child.is_attribute and _name_matches(child, step.test):
                    output.append(child)
    else:  # pragma: no cover - parser only emits the four axes
        raise QueryError(f"unsupported axis {step.axis}")
    for predicate in step.predicates:
        output = _filter(predicate, output, ctx)
    return output


def _name_matches(node: XmlNode, test: str) -> bool:
    return test == "*" or node.name == test


def _filter(predicate: ast.Expr, items: Sequence, ctx: QueryContext) -> Sequence:
    kept: Sequence = []
    for position, item in enumerate(items, start=1):
        inner = QueryContext(
            ctx.documents,
            ctx.variables,
            [item] if isinstance(item, XmlNode) else [],
        )
        value = _eval(predicate, inner)
        # Numeric predicate = positional selection.
        if len(value) == 1 and isinstance(value[0], float):
            if value[0] == position:
                kept.append(item)
        elif boolean_value(value):
            kept.append(item)
    return kept


def _eval_binary(expr: ast.Binary, ctx: QueryContext) -> Sequence:
    if expr.op == "or":
        return [
            boolean_value(_eval(expr.left, ctx)) or boolean_value(_eval(expr.right, ctx))
        ]
    if expr.op == "and":
        return [
            boolean_value(_eval(expr.left, ctx)) and boolean_value(_eval(expr.right, ctx))
        ]
    left = _eval(expr.left, ctx)
    right = _eval(expr.right, ctx)
    if expr.op in ("+", "-", "*"):
        left_number = number_value(left[0]) if left else None
        right_number = number_value(right[0]) if right else None
        if left_number is None or right_number is None:
            raise QueryError(f"arithmetic on non-numeric operands for {expr.op}")
        if expr.op == "+":
            return [left_number + right_number]
        if expr.op == "-":
            return [left_number - right_number]
        return [left_number * right_number]
    # General comparison: existential over both sequences.
    return [_general_compare(expr.op, left, right)]


def _general_compare(op: str, left: Sequence, right: Sequence) -> bool:
    for first in left:
        for second in right:
            if _compare_items(op, first, second):
                return True
    return False


def _compare_items(op: str, first: Item, second: Item) -> bool:
    first_number = number_value(first)
    second_number = number_value(second)
    if first_number is not None and second_number is not None:
        a, b = first_number, second_number
    else:
        a, b = string_value(first), string_value(second)
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def _eval_flwor(expr: ast.Flwor, ctx: QueryContext) -> Sequence:
    bindings: list[QueryContext] = []

    def run(clauses: tuple, env: QueryContext) -> None:
        if not clauses:
            if expr.where is None or boolean_value(_eval(expr.where, env)):
                bindings.append(env)
            return
        head, *rest = clauses
        if isinstance(head, ast.LetClause):
            run(tuple(rest), env.child({head.variable: _eval(head.value, env)}))
        else:
            for item in _eval(head.source, env):
                run(tuple(rest), env.child({head.variable: [item]}))

    run(expr.clauses, ctx)

    if expr.order:
        def sort_key(env: QueryContext):
            keys = []
            for spec in expr.order:
                value = _eval(spec.key, env)
                atom = string_value(value[0]) if value else ""
                number = number_value(value[0]) if value else None
                # Numbers sort numerically when every key is numeric;
                # encode as a (is_string, value) pair for stability.
                keys.append((0, number) if number is not None else (1, atom))
            return tuple(keys)

        decorated = [(sort_key(env), position, env) for position, env in enumerate(bindings)]
        for index in range(len(expr.order) - 1, -1, -1):
            reverse = expr.order[index].descending
            decorated.sort(key=lambda item: _orderable(item[0][index]), reverse=reverse)
        bindings = [env for _keys, _position, env in decorated]

    results: Sequence = []
    for env in bindings:
        results.extend(_eval(expr.body, env))
    return results


def _orderable(key: tuple):
    """Make mixed (numeric, string) keys comparable: numbers first."""
    kind, value = key
    if kind == 0:
        return (0, value, "")
    return (1, 0.0, value)


def _eval_constructor(expr: ast.Constructor, ctx: QueryContext) -> XmlNode:
    node = XmlNode(expr.name, NodeKind.ELEMENT)
    for attr in expr.attributes:
        pieces: list[str] = []
        for part in attr.parts:
            if isinstance(part, str):
                pieces.append(part)
            else:
                pieces.append(" ".join(string_value(i) for i in _eval(part, ctx)))
        node.append(XmlNode(attr.name, NodeKind.ATTRIBUTE, "".join(pieces)))
    text_pieces: list[str] = []
    for part in expr.content:
        if isinstance(part, str):
            stripped = part.strip()
            if stripped:
                text_pieces.append(stripped)
            continue
        for item in _eval(part, ctx):
            if isinstance(item, XmlNode):
                node.append(item.copy_subtree())
            else:
                text_pieces.append(string_value(item))
    node.text = " ".join(text_pieces)
    return node


# ---------------------------------------------------------------------------
# Function library
# ---------------------------------------------------------------------------


def _fn_doc(args: list[Sequence], ctx: QueryContext) -> Sequence:
    name = string_value(args[0][0]) if args and args[0] else ""
    forest = ctx.documents.get(name)
    if forest is None and len(ctx.documents) == 1:
        # Convenience: a single registered document answers any doc() call.
        forest = next(iter(ctx.documents.values()))
    if forest is None:
        raise QueryError(f"unknown document {name!r}")
    return [virtual_document(forest)]


def _fn_count(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    return [float(len(args[0]))]


def _fn_distinct_values(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    seen: set[str] = set()
    output: Sequence = []
    for item in args[0]:
        value = string_value(item)
        if value not in seen:
            seen.add(value)
            output.append(value)
    return output


def _fn_string(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    if not args or not args[0]:
        return [""]
    return [string_value(args[0][0])]


def _fn_name(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    if not args or not args[0] or not isinstance(args[0][0], XmlNode):
        return [""]
    return [args[0][0].name]


def _fn_data(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    return [string_value(item) for item in args[0]]


def _fn_not(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    return [not boolean_value(args[0])]


def _fn_concat(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    return ["".join(string_value(arg[0]) if arg else "" for arg in args)]


def _fn_contains(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    hay = string_value(args[0][0]) if args[0] else ""
    needle = string_value(args[1][0]) if args[1] else ""
    return [needle in hay]


def _fn_number(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    value = number_value(args[0][0]) if args[0] else None
    if value is None:
        raise QueryError("number() of a non-numeric value")
    return [value]


def _fn_empty(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    return [not args[0]]


def _fn_exists(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    return [bool(args[0])]


def _numbers(sequence: Sequence) -> list[float]:
    values = []
    for item in sequence:
        number = number_value(item)
        if number is None:
            raise QueryError(f"non-numeric item in aggregate: {string_value(item)!r}")
        values.append(number)
    return values


def _fn_sum(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    return [float(sum(_numbers(args[0])))]


def _fn_avg(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    values = _numbers(args[0])
    if not values:
        return []
    return [sum(values) / len(values)]


def _fn_min(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    values = _numbers(args[0])
    return [min(values)] if values else []


def _fn_max(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    values = _numbers(args[0])
    return [max(values)] if values else []


def _fn_string_length(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    text = string_value(args[0][0]) if args and args[0] else ""
    return [float(len(text))]


def _fn_substring(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    text = string_value(args[0][0]) if args[0] else ""
    start = int(number_value(args[1][0]) or 1)
    if len(args) > 2:
        length = int(number_value(args[2][0]) or 0)
        return [text[start - 1 : start - 1 + length]]
    return [text[start - 1 :]]


def _fn_starts_with(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    hay = string_value(args[0][0]) if args[0] else ""
    prefix = string_value(args[1][0]) if args[1] else ""
    return [hay.startswith(prefix)]


def _fn_ends_with(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    hay = string_value(args[0][0]) if args[0] else ""
    suffix = string_value(args[1][0]) if args[1] else ""
    return [hay.endswith(suffix)]


def _fn_normalize_space(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    text = string_value(args[0][0]) if args and args[0] else ""
    return [" ".join(text.split())]


def _fn_round(args: list[Sequence], _ctx: QueryContext) -> Sequence:
    value = number_value(args[0][0]) if args[0] else None
    if value is None:
        raise QueryError("round() of a non-numeric value")
    return [float(round(value))]


_FUNCTIONS: dict[str, Callable[[list[Sequence], QueryContext], Sequence]] = {
    "doc": _fn_doc,
    "count": _fn_count,
    "distinct-values": _fn_distinct_values,
    "string": _fn_string,
    "name": _fn_name,
    "data": _fn_data,
    "not": _fn_not,
    "concat": _fn_concat,
    "contains": _fn_contains,
    "number": _fn_number,
    "empty": _fn_empty,
    "exists": _fn_exists,
    "sum": _fn_sum,
    "avg": _fn_avg,
    "min": _fn_min,
    "max": _fn_max,
    "string-length": _fn_string_length,
    "substring": _fn_substring,
    "starts-with": _fn_starts_with,
    "ends-with": _fn_ends_with,
    "normalize-space": _fn_normalize_space,
    "round": _fn_round,
}


def _eval_function(expr: ast.FunctionCall, ctx: QueryContext) -> Sequence:
    function = _FUNCTIONS.get(expr.name)
    if function is None:
        raise QueryError(f"unknown function {expr.name}()")
    args = [_eval(arg, ctx) for arg in expr.args]
    return function(args, ctx)
