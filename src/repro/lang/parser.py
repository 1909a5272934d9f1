"""Recursive-descent parser for XMorph 2.0 guards.

The key syntactic fact (Section VI): juxtaposition *is* the shape
constructor — ``p0 p1 ... pn`` connects the roots of ``p0`` to the
closest roots of each ``pi``, and the bracket form ``p0 [ p1 ... pn ]``
is the same construct with explicit grouping.  The parser therefore
attaches bracketed items as the children of their head term, and a
top-level juxtaposition becomes a multi-term :class:`Pattern` with the
identical meaning.

Every AST node is annotated with its source :class:`~repro.lang.span.Span`
(running from its first to its last token), which the diagnostics engine
(:mod:`repro.analysis`) uses to point findings at the exact guard text
responsible.  Spans are carried in ``compare=False`` fields, so ASTs
still compare equal regardless of where they were parsed from.

Guards nest at most :data:`MAX_NESTING` levels — brackets, parentheses
and prefix operators all count — so that the parser and every stage
that walks its tree stay within Python's recursion limit, and hold at
most :data:`MAX_TERMS` labels, because the loss analysis compares every
pair of a guard's types.  Deeper or longer guard text is a located
:class:`~repro.errors.GuardSyntaxError`.
"""

from __future__ import annotations

import dataclasses

from repro.errors import GuardSyntaxError
from repro.lang.ast import (
    Cast,
    CastMode,
    Clone,
    Compose,
    Drop,
    Guard,
    Label,
    Morph,
    Mutate,
    New,
    Pattern,
    Restrict,
    Term,
    Translate,
    TypeFill,
)
from repro.lang.lexer import Token, TokenType, tokenize
from repro.lang.span import Span, merge_spans

_CAST_MODES = {
    TokenType.CAST: CastMode.ANY,
    TokenType.CAST_NARROWING: CastMode.NARROWING,
    TokenType.CAST_WIDENING: CastMode.WIDENING,
}

#: The deepest a guard nests: terms inside brackets, parentheses and
#: prefix operators (``DROP``, ``CAST``, ...) each open one level.
MAX_NESTING = 100

#: The most labels a guard holds; n labels can type n² pairs.
MAX_TERMS = 1000

_TERM_START = {
    TokenType.LABEL,
    TokenType.BANG,
    TokenType.LPAREN,
    TokenType.NEW,
    TokenType.DROP,
    TokenType.CLONE,
    TokenType.RESTRICT,
    TokenType.CHILDREN,
    TokenType.DESCENDANTS,
}


def parse_guard(source: str) -> Guard:
    """Parse guard text into an AST; raises :class:`GuardSyntaxError`."""
    tokens = tokenize(source)
    labels = [token for token in tokens if token.type is TokenType.LABEL]
    if len(labels) > MAX_TERMS:
        token = labels[MAX_TERMS]
        raise GuardSyntaxError(
            f"guard has more than {MAX_TERMS} labels at {token}", span=token.span
        )
    parser = _Parser(tokens)
    guard = parser.parse_compose()
    parser.expect(TokenType.END)
    return guard


def _spanned(node, span: Span | None):
    if span is None:
        return node
    return dataclasses.replace(node, span=span)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.last: Token | None = None  # last consumed token
        self.depth = 0  # guards and terms open around the current one

    # -- guard level -------------------------------------------------------

    def parse_compose(self) -> Guard:
        parts = [self.parse_unit()]
        while self.peek().type is TokenType.PIPE:
            self.advance()
            parts.append(self.parse_unit())
        if len(parts) == 1:
            return parts[0]
        return Compose(
            tuple(parts), span=merge_spans(*(part.span for part in parts))
        )

    def parse_unit(self) -> Guard:
        self.open_level()
        unit = self._unit()
        self.depth -= 1
        return unit

    def _unit(self) -> Guard:
        token = self.peek()
        if token.type in _CAST_MODES:
            self.advance()
            inner = self.parse_unit()
            return Cast(
                _CAST_MODES[token.type], inner, span=token.span.merge(inner.span)
            )
        if token.type is TokenType.TYPE_FILL:
            self.advance()
            inner = self.parse_unit()
            return TypeFill(inner, span=token.span.merge(inner.span))
        if token.type is TokenType.LPAREN:
            self.advance()
            inner = self.parse_compose()
            self.expect(TokenType.RPAREN)
            return inner
        if token.type is TokenType.MORPH:
            self.advance()
            pattern = self.parse_pattern()
            return Morph(pattern, span=token.span.merge(pattern.span))
        if token.type is TokenType.MUTATE:
            self.advance()
            pattern = self.parse_pattern()
            return Mutate(pattern, span=token.span.merge(pattern.span))
        if token.type is TokenType.TRANSLATE:
            self.advance()
            mapping, pair_spans = self.parse_translate_pairs()
            return Translate(
                mapping,
                span=token.span.merge(self.last_span()),
                pair_spans=pair_spans,
            )
        if token.type is TokenType.COMPOSE:
            self.advance()
            parts = [self.parse_unit()]
            while self.peek().type is TokenType.COMMA:
                self.advance()
                parts.append(self.parse_unit())
            if len(parts) < 2:
                raise GuardSyntaxError(
                    "COMPOSE needs at least two comma-separated guards",
                    span=token.span,
                )
            return Compose(tuple(parts), span=token.span.merge(self.last_span()))
        raise GuardSyntaxError(f"expected a guard, found {token}", span=token.span)

    def parse_translate_pairs(
        self,
    ) -> tuple[tuple[tuple[str, str], ...], tuple[Span, ...]]:
        pairs = [self.parse_translate_pair()]
        # A following comma continues the dictionary only when the next
        # tokens look like another `label -> label` pair; otherwise the
        # comma belongs to an enclosing COMPOSE.
        while (
            self.peek().type is TokenType.COMMA
            and self.peek(1).type is TokenType.LABEL
            and self.peek(2).type is TokenType.ARROW
        ):
            self.advance()
            pairs.append(self.parse_translate_pair())
        return tuple(pair for pair, _ in pairs), tuple(span for _, span in pairs)

    def parse_translate_pair(self) -> tuple[tuple[str, str], Span]:
        old = self.expect(TokenType.LABEL)
        self.expect(TokenType.ARROW)
        new = self.expect(TokenType.LABEL)
        return (old.text, new.text), old.span.merge(new.span)

    # -- pattern level -------------------------------------------------------

    def parse_pattern(self) -> Pattern:
        terms = [self.parse_term()]
        while self.peek().type in _TERM_START:
            terms.append(self.parse_term())
        return Pattern(tuple(terms), span=merge_spans(*(t.span for t in terms)))

    def parse_term(self) -> Term:
        self.open_level()
        term = self._term()
        self.depth -= 1
        return term

    def _term(self) -> Term:
        token = self.peek()
        if token.type is TokenType.CHILDREN:
            self.advance()
            inner = self.parse_term()
            return dataclasses.replace(
                inner, star_children=True, span=token.span.merge(inner.span)
            )
        if token.type is TokenType.DESCENDANTS:
            self.advance()
            inner = self.parse_term()
            return dataclasses.replace(
                inner, star_descendants=True, span=token.span.merge(inner.span)
            )
        if token.type is TokenType.DROP:
            self.advance()
            inner = self.parse_term()
            span = token.span.merge(inner.span)
            return Term(Drop(inner, span=span), span=span)
        if token.type is TokenType.CLONE:
            self.advance()
            inner = self.parse_term()
            span = token.span.merge(inner.span)
            return Term(Clone(inner, span=span), span=span)
        if token.type is TokenType.RESTRICT:
            self.advance()
            inner = self.parse_term()
            span = token.span.merge(inner.span)
            return Term(Restrict(inner, span=span), span=span)
        if token.type is TokenType.NEW:
            self.advance()
            name = self.expect(TokenType.LABEL)
            span = token.span.merge(name.span)
            return self.attach_bracket(Term(New(name.text, span=span), span=span))
        if token.type is TokenType.LPAREN:
            # Parentheses are grouping only: `(DROP x) [ y ]` attaches
            # the bracket to the parenthesized term itself.  (Closest
            # joins are per-child, so merging bracket groups preserves
            # semantics.)
            self.advance()
            inner = self.parse_term()
            close = self.expect(TokenType.RPAREN)
            inner = _spanned(inner, token.span.merge(close.span))
            return self.attach_bracket(inner)
        if token.type is TokenType.BANG:
            self.advance()
            name = self.expect(TokenType.LABEL)
            span = token.span.merge(name.span)
            return self.attach_bracket(
                Term(Label(name.text, bang=True, span=span), span=span)
            )
        if token.type is TokenType.LABEL:
            self.advance()
            return self.attach_bracket(
                Term(Label(token.text, span=token.span), span=token.span)
            )
        raise GuardSyntaxError(f"expected a term, found {token}", span=token.span)

    def attach_bracket(self, term: Term) -> Term:
        if self.peek().type is not TokenType.LBRACKET:
            return term
        self.advance()
        children: list[Term] = []
        star_children = term.star_children
        star_descendants = term.star_descendants
        while self.peek().type is not TokenType.RBRACKET:
            token = self.peek()
            if token.type is TokenType.STAR:
                self.advance()
                star_children = True
            elif token.type is TokenType.DOUBLE_STAR:
                self.advance()
                star_descendants = True
            elif token.type in _TERM_START:
                children.append(self.parse_term())
            else:
                raise GuardSyntaxError(
                    f"unexpected {token} inside [ ]", span=token.span
                )
        close = self.expect(TokenType.RBRACKET)
        return dataclasses.replace(
            term,
            children=term.children + tuple(children),
            star_children=star_children,
            star_descendants=star_descendants,
            span=(term.span or close.span).merge(close.span),
        )

    # -- machinery --------------------------------------------------------------

    def open_level(self) -> None:
        """Enter one more nesting level, or refuse past :data:`MAX_NESTING`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            token = self.peek()
            raise GuardSyntaxError(
                f"guard nests deeper than {MAX_NESTING} levels at {token}",
                span=token.span,
            )

    def peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.END:
            self.pos += 1
        self.last = token
        return token

    def last_span(self) -> Span | None:
        return self.last.span if self.last is not None else None

    def expect(self, token_type: TokenType) -> Token:
        token = self.peek()
        if token.type is not token_type:
            raise GuardSyntaxError(
                f"expected {token_type.name}, found {token}", span=token.span
            )
        return self.advance()
