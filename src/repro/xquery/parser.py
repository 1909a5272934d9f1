"""Recursive-descent parser for XQuery-lite.

Precedence (loosest to tightest): ``,`` sequence — FLWOR/if — ``or`` —
``and`` — comparison — additive — multiplicative — path — postfix
predicates — primary.  Direct element constructors switch the parser
into raw-XML scanning; each ``{...}`` hole recursively re-enters
expression parsing at the brace's offset.

A query nests at most :data:`MAX_NESTING` levels below its top
expression — every parenthesis, predicate, argument, clause, ``{...}``
hole and nested constructor opens one — so the parser and the
evaluator that walks its tree stay within Python's recursion limit.
Deeper query text is a located :class:`~repro.errors.QuerySyntaxError`.
"""

from __future__ import annotations

from repro.errors import QuerySyntaxError
from repro.xquery import ast
from repro.xquery.lexer import KEYWORDS, QTok, Token, name_char, name_start, scan_token, skip_trivia

#: The deepest a query nests.  One level of parentheses costs the
#: recursive descent ten Python frames and a ``{...}`` hole thirteen, so
#: the deepest query parses and evaluates in about 700 frames.
MAX_NESTING = 50


def parse_query(source: str) -> ast.Expr:
    try:
        parser = _Parser(source)
        expr = parser.parse_sequence()
        token = parser.peek()
        if token.type is not QTok.END:
            raise QuerySyntaxError(f"unexpected {token} after expression", token.position)
        return expr
    except QuerySyntaxError as error:
        # Internal raises carry only a character offset; upgrade to the
        # 1-based line:column form here, where the source is in scope.
        error.locate(source)
        raise


class _Parser:
    def __init__(self, source: str, pos: int = 0, depth: int = 0):
        self.source = source
        self.pos = pos
        self.depth = depth  # expressions open around the current one

    # -- token machinery --------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        pos = self.pos
        token = scan_token(self.source, pos)
        for _ in range(ahead):
            pos = token.end
            token = scan_token(self.source, pos)
        return token

    def advance(self) -> Token:
        token = scan_token(self.source, self.pos)
        self.pos = token.end
        return token

    def expect(self, token_type: QTok) -> Token:
        token = self.peek()
        if token.type is not token_type:
            raise QuerySyntaxError(
                f"expected {token_type.name}, found {token}", token.position
            )
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        return self.peek().keyword(word)

    def expect_keyword(self, word: str) -> None:
        token = self.peek()
        if not token.keyword(word):
            raise QuerySyntaxError(f"expected '{word}', found {token}", token.position)
        self.advance()

    def open_level(self) -> None:
        """Enter one more nesting level, or refuse past :data:`MAX_NESTING`."""
        if self.depth > MAX_NESTING:
            raise QuerySyntaxError(f"query nests deeper than {MAX_NESTING} levels", self.pos)
        self.depth += 1

    # -- grammar ------------------------------------------------------------

    def parse_sequence(self) -> ast.Expr:
        items = [self.parse_expr()]
        while self.peek().type is QTok.COMMA:
            self.advance()
            items.append(self.parse_expr())
        if len(items) == 1:
            return items[0]
        return ast.Sequence(tuple(items))

    def parse_expr(self) -> ast.Expr:
        self.open_level()
        if self.at_keyword("for") or self.at_keyword("let"):
            expr = self.parse_flwor()
        elif self.at_keyword("if"):
            expr = self.parse_if()
        elif (self.at_keyword("some") or self.at_keyword("every")) and self.peek(1).type is QTok.VARIABLE:
            expr = self.parse_quantified()
        else:
            expr = self.parse_or()
        self.depth -= 1
        return expr

    def parse_quantified(self) -> ast.Expr:
        mode = self.advance().text
        variable = self.expect(QTok.VARIABLE).text
        self.expect_keyword("in")
        source = self.parse_or()
        self.expect_keyword("satisfies")
        condition = self.parse_expr()
        return ast.Quantified(mode, variable, source, condition)

    def parse_flwor(self) -> ast.Expr:
        clauses: list[ast.ForClause | ast.LetClause] = []
        while True:
            if self.at_keyword("for"):
                self.advance()
                while True:
                    variable = self.expect(QTok.VARIABLE).text
                    self.expect_keyword("in")
                    clauses.append(ast.ForClause(variable, self.parse_expr()))
                    if self.peek().type is QTok.COMMA and self.peek(1).type is QTok.VARIABLE:
                        self.advance()
                        continue
                    break
            elif self.at_keyword("let"):
                self.advance()
                while True:
                    variable = self.expect(QTok.VARIABLE).text
                    self.expect(QTok.ASSIGN)
                    clauses.append(ast.LetClause(variable, self.parse_expr()))
                    if self.peek().type is QTok.COMMA and self.peek(1).type is QTok.VARIABLE:
                        self.advance()
                        continue
                    break
            else:
                break
        where = None
        if self.at_keyword("where"):
            self.advance()
            where = self.parse_expr()
        order: list[ast.OrderSpec] = []
        if self.at_keyword("order"):
            self.advance()
            self.expect_keyword("by")
            while True:
                key = self.parse_or()
                descending = False
                if self.at_keyword("descending"):
                    self.advance()
                    descending = True
                elif self.at_keyword("ascending"):
                    self.advance()
                order.append(ast.OrderSpec(key, descending))
                if self.peek().type is QTok.COMMA:
                    self.advance()
                    continue
                break
        self.expect_keyword("return")
        body = self.parse_expr()
        return ast.Flwor(tuple(clauses), where, body, tuple(order))

    def parse_if(self) -> ast.Expr:
        self.expect_keyword("if")
        self.expect(QTok.LPAREN)
        condition = self.parse_sequence()
        self.expect(QTok.RPAREN)
        self.expect_keyword("then")
        then = self.parse_expr()
        self.expect_keyword("else")
        otherwise = self.parse_expr()
        return ast.IfExpr(condition, then, otherwise)

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.at_keyword("or"):
            self.advance()
            left = ast.Binary("or", left, self.parse_and())
        return left

    def parse_and(self) -> ast.Expr:
        left = self.parse_comparison()
        while self.at_keyword("and"):
            self.advance()
            left = ast.Binary("and", left, self.parse_comparison())
        return left

    _COMPARISONS = {
        QTok.EQ: "=", QTok.NE: "!=", QTok.LT: "<",
        QTok.LE: "<=", QTok.GT: ">", QTok.GE: ">=",
    }

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_additive()
        token = self.peek()
        if token.type in self._COMPARISONS:
            self.advance()
            return ast.Binary(self._COMPARISONS[token.type], left, self.parse_additive())
        return left

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while self.peek().type in (QTok.PLUS, QTok.MINUS):
            op = self.advance().text
            left = ast.Binary(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_path()
        while self.peek().type is QTok.STAR:
            self.advance()
            left = ast.Binary("*", left, self.parse_path())
        return left

    # -- paths ------------------------------------------------------------------

    def parse_path(self) -> ast.Expr:
        token = self.peek()
        if token.type in (QTok.SLASH, QTok.DSLASH):
            # Rooted path: starts at the context document.
            steps = self.parse_steps(rooted=True)
            return ast.Path(None, tuple(steps))
        start = self.parse_postfix()
        if self.peek().type in (QTok.SLASH, QTok.DSLASH):
            steps = self.parse_steps(rooted=False)
            return ast.Path(start, tuple(steps))
        return start

    def parse_steps(self, rooted: bool) -> list[ast.Step]:
        steps: list[ast.Step] = []
        first = True
        while self.peek().type in (QTok.SLASH, QTok.DSLASH):
            axis = "child"
            if self.advance().type is QTok.DSLASH:
                axis = "descendant-or-self"
            steps.append(self.parse_step(axis))
            first = False
        if first and rooted:
            raise QuerySyntaxError("empty path", self.peek().position)
        return steps

    def parse_step(self, axis: str) -> ast.Step:
        token = self.peek()
        if token.type is QTok.DOTDOT:
            self.advance()
            return ast.Step("parent", "*", self.parse_predicates())
        if token.type is QTok.AT:
            self.advance()
            name = self.expect(QTok.NAME).text
            return ast.Step("attribute", name, self.parse_predicates())
        if token.type is QTok.STAR:
            self.advance()
            return ast.Step(axis, "*", self.parse_predicates())
        if token.type is QTok.NAME:
            self.advance()
            if token.text == "text" and self.peek().type is QTok.LPAREN:
                self.advance()
                self.expect(QTok.RPAREN)
                return ast.Step(axis, "text()", self.parse_predicates())
            return ast.Step(axis, token.text, self.parse_predicates())
        raise QuerySyntaxError(f"expected a step, found {token}", token.position)

    def parse_predicates(self) -> tuple[ast.Expr, ...]:
        predicates: list[ast.Expr] = []
        while self.peek().type is QTok.LBRACKET:
            self.advance()
            predicates.append(self.parse_sequence())
            self.expect(QTok.RBRACKET)
        return tuple(predicates)

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        # Allow predicates directly on a primary: $seq[2] style filters.
        predicates = self.parse_predicates()
        if predicates:
            expr = ast.Path(expr, (ast.Step("self", "*", predicates),))
        return expr

    # -- primaries -----------------------------------------------------------------

    def parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.type is QTok.STRING:
            self.advance()
            return ast.Literal(token.text)
        if token.type is QTok.NUMBER:
            self.advance()
            return ast.Literal(float(token.text))
        if token.type is QTok.VARIABLE:
            self.advance()
            return ast.VarRef(token.text)
        if token.type is QTok.LPAREN:
            self.advance()
            if self.peek().type is QTok.RPAREN:  # empty sequence ()
                self.advance()
                return ast.Sequence(())
            inner = self.parse_sequence()
            self.expect(QTok.RPAREN)
            return inner
        if token.type is QTok.CONSTRUCTOR:
            return self.parse_constructor()
        if token.type is QTok.NAME and token.text not in KEYWORDS:
            if self.peek(1).type is QTok.LPAREN:
                return self.parse_function_call()
            # A bare name is a relative child step from the context item.
            self.advance()
            return ast.Path(
                ast.ContextItem(), (ast.Step("child", token.text, self.parse_predicates()),)
            )
        raise QuerySyntaxError(f"expected an expression, found {token}", token.position)

    def parse_function_call(self) -> ast.Expr:
        name = self.expect(QTok.NAME).text
        self.expect(QTok.LPAREN)
        args: list[ast.Expr] = []
        if self.peek().type is not QTok.RPAREN:
            args.append(self.parse_expr())
            while self.peek().type is QTok.COMMA:
                self.advance()
                args.append(self.parse_expr())
        self.expect(QTok.RPAREN)
        return ast.FunctionCall(name, tuple(args))

    # -- direct element constructors (raw-XML mode) --------------------------------

    def parse_constructor(self) -> ast.Expr:
        self.expect(QTok.CONSTRUCTOR)  # consumed '<'
        name = self._scan_xml_name()
        attributes = self._scan_attributes()
        if self._consume_raw("/>"):
            return ast.Constructor(name, attributes, ())
        self._expect_raw(">")
        content = self._scan_content(name)
        return ast.Constructor(name, attributes, content)

    def _scan_xml_name(self) -> str:
        pos = self.pos
        if pos >= len(self.source) or not name_start(self.source[pos]):
            raise QuerySyntaxError("expected an element name", position=pos)
        end = pos
        while end < len(self.source) and name_char(self.source[end]):
            end += 1
        self.pos = end
        return self.source[pos:end]

    def _scan_attributes(self) -> tuple[ast.AttrTemplate, ...]:
        attributes: list[ast.AttrTemplate] = []
        while True:
            self._skip_ws()
            char = self._current()
            if char in (">", "/") or char == "":
                return tuple(attributes)
            name = self._scan_xml_name()
            self._skip_ws()
            self._expect_raw("=")
            self._skip_ws()
            quote = self._current()
            if quote not in ("'", '"'):
                raise QuerySyntaxError("attribute value must be quoted", self.pos)
            self.pos += 1
            parts: list[str | ast.Expr] = []
            buffer: list[str] = []
            while True:
                char = self._current()
                if char == "":
                    raise QuerySyntaxError("unterminated attribute value", self.pos)
                if char == quote:
                    self.pos += 1
                    break
                if char == "{":
                    if buffer:
                        parts.append("".join(buffer))
                        buffer = []
                    parts.append(self._scan_hole())
                else:
                    buffer.append(char)
                    self.pos += 1
            if buffer:
                parts.append("".join(buffer))
            attributes.append(ast.AttrTemplate(name, tuple(parts)))

    def _scan_content(self, name: str) -> tuple[str | ast.Expr, ...]:
        parts: list[str | ast.Expr] = []
        buffer: list[str] = []

        def flush() -> None:
            if buffer:
                parts.append("".join(buffer))
                buffer.clear()

        while True:
            char = self._current()
            if char == "":
                raise QuerySyntaxError(f"unterminated constructor <{name}>", self.pos)
            if char == "{":
                flush()
                parts.append(self._scan_hole())
                continue
            if self.source.startswith("</", self.pos):
                self.pos += 2
                closing = self._scan_xml_name()
                if closing != name:
                    raise QuerySyntaxError(
                        f"mismatched </{closing}> for <{name}>", self.pos
                    )
                self._skip_ws()
                self._expect_raw(">")
                flush()
                return tuple(parts)
            if char == "<":
                flush()
                # Nested constructor: re-enter expression machinery.
                token = scan_token(self.source, self.pos)
                if token.type is not QTok.CONSTRUCTOR:
                    raise QuerySyntaxError("stray '<' in constructor content", self.pos)
                self.pos = token.end
                parts.append(self._finish_nested_constructor())
                continue
            buffer.append(char)
            self.pos += 1

    def _finish_nested_constructor(self) -> ast.Expr:
        self.open_level()
        name = self._scan_xml_name()
        attributes = self._scan_attributes()
        content: tuple[str | ast.Expr, ...] = ()
        if not self._consume_raw("/>"):
            self._expect_raw(">")
            content = self._scan_content(name)
        self.depth -= 1
        return ast.Constructor(name, attributes, content)

    def _scan_hole(self) -> ast.Expr:
        """Parse an embedded ``{expr}`` starting at the '{'."""
        self._expect_raw("{")
        inner = _Parser(self.source, self.pos, self.depth)
        expr = inner.parse_sequence()
        self.pos = skip_trivia(self.source, inner.pos)
        self._expect_raw("}")
        return expr

    # -- raw-mode helpers --------------------------------------------------------------

    def _current(self) -> str:
        return self.source[self.pos] if self.pos < len(self.source) else ""

    def _skip_ws(self) -> None:
        while self._current() in " \t\r\n" and self._current():
            self.pos += 1

    def _consume_raw(self, text: str) -> bool:
        if self.source.startswith(text, self.pos):
            self.pos += len(text)
            return True
        return False

    def _expect_raw(self, text: str) -> None:
        if not self._consume_raw(text):
            raise QuerySyntaxError(f"expected {text!r}", self.pos)
