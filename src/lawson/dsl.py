"""Parser for the textual variety language.

The grammar, whitespace-insensitive and with all numbers plain decimal
naturals capped at 1000000:

    expr    := "pt"
             | "P(" nat ")" | "affine(" nat ")" | "torus(" nat ")"
             | "quadric(" nat ")" | "singquadric(" nat "," nat ")"
             | "cellular(" natlist ")"
             | "toric(" natlist ["," flag] ")"
             | "susp(" expr ")" | "prod(" expr "," expr ")"
             | "bundle(" expr "," natlist ")"
             | "decomp(" comp {"," comp} ")"
             | "sp(" expr "," nat ")" | "hilb(" nat "," nat ")"
    comp    := expr ":" nat
    natlist := "[" nat {"," nat} "]"
    flag    := "smooth" | "simplicial" | "general"

Constructors nest at most MAX_DEPTH (200) deep: a constructor with
subexpressions that would open level MAX_DEPTH + 1 is rejected.  Each
keyword and its argument shapes are declared once, on its node class in
:mod:`lawson.varieties`; the parser walks those declarations.

Parsing is syntax only: semantic rules (dimension positivity, cone-count
consistency, and so on) belong to :func:`lawson.varieties.validate`.
Every failure raises :class:`ParseError` carrying the offending source span
and, where useful, the tokens that would have been accepted; no input, valid
or garbage, raises anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

from .varieties import MAX_DEPTH, NODE_TYPES, FixedComponent, Smoothness, VarietyExpr

MAX_LITERAL = 1_000_000

_KEYWORD_STARTS = tuple(NODE_TYPES)


@dataclass(frozen=True)
class SourceSpan:
    """Half-open byte offsets [start, end) into the source text."""

    start: int
    end: int


class ParseError(ValueError):
    """Syntax error with the source span and the acceptable alternatives."""

    def __init__(self, message: str, span: SourceSpan, expected: tuple[str, ...] = ()):
        self.message = message
        self.span = span
        self.expected = tuple(expected)
        detail = f"{message} at {span.start}..{span.end}"
        if self.expected:
            detail += " (expected " + " | ".join(self.expected) + ")"
        super().__init__(detail)


@dataclass(frozen=True)
class _Token:
    kind: str  # "name", "number", "(", ")", "[", "]", ",", ":", "end"
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "()[],:":
            tokens.append(_Token(ch, ch, i, i + 1))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < length and text[j].isdecimal():
                j += 1
            tokens.append(_Token("number", text[i:j], i, j))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < length and text[j].isalpha():
                j += 1
            tokens.append(_Token("name", text[i:j], i, j))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", SourceSpan(i, i + 1))
    tokens.append(_Token("end", "", length, length))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # constructors with subexpressions currently open

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "end":
            self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind!r}", token.span, (repr(kind),)
            )
        return self.advance()

    def nat(self) -> int:
        token = self.peek()
        if token.kind != "number":
            raise ParseError("expected a number", token.span, ("number",))
        # Judged on the text, so that no literal reaches int()'s digit limit.
        digits = "".join(str(int(ch)) for ch in token.text).lstrip("0") or "0"
        if len(digits) > len(str(MAX_LITERAL)) or int(digits) > MAX_LITERAL:
            raise ParseError(
                f"literal {digits} exceeds the sanity bound {MAX_LITERAL}", token.span
            )
        self.advance()
        return int(digits)

    def natlist(self) -> tuple[int, ...]:
        self.expect("[")
        values = [self.nat()]
        while self.peek().kind == ",":
            self.advance()
            values.append(self.nat())
        self.expect("]")
        return tuple(values)

    cells = natlist

    def flag(self) -> Smoothness:
        token = self.peek()
        if token.kind == "name":
            for smoothness in Smoothness:
                if token.text == smoothness.value:
                    self.advance()
                    return smoothness
        raise ParseError(
            "expected a smoothness flag",
            token.span,
            tuple(s.value for s in Smoothness),
        )

    def comps(self) -> tuple[FixedComponent, ...]:
        components = [self.component()]
        while self.peek().kind == ",":
            self.advance()
            components.append(self.component())
        return tuple(components)

    def component(self) -> FixedComponent:
        inner = self.expr()
        self.expect(":")
        return FixedComponent(inner, self.nat())

    def expr(self) -> VarietyExpr:
        token = self.peek()
        if token.kind != "name":
            raise ParseError(
                "expected a variety expression", token.span, _KEYWORD_STARTS
            )
        node = NODE_TYPES.get(token.text)
        if node is None:
            raise ParseError(
                f"unknown variety constructor {token.text!r}", token.span, _KEYWORD_STARTS
            )
        self.advance()
        if not node.syntax:
            return node()
        nests = "expr" in node.syntax or "comps" in node.syntax
        if nests and self.depth == MAX_DEPTH:
            raise ParseError(
                f"constructors nest deeper than the bound {MAX_DEPTH}", token.span
            )
        self.depth += nests
        self.expect("(")
        args = []
        for i, shape in enumerate(node.syntax):
            if shape == "flag" and self.peek().kind != ",":
                break  # the optional flag keeps its default
            if i:
                self.expect(",")
            args.append(getattr(self, shape)())
        self.expect(")")
        self.depth -= nests
        return node(*args)


def parse(text: str | bytes) -> VarietyExpr:
    """Parse source text into a variety expression.

    Raises ParseError on any malformed input and nothing else; trailing
    input after a complete expression is rejected.  Byte input is decoded
    as UTF-8 with replacement so arbitrary data cannot crash the parser.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    parser = _Parser(_lex(text))
    expression = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(
            "unexpected trailing input", trailing.span, ("end of input",)
        )
    return expression
