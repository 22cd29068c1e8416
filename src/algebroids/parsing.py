"""Recursive-descent parser for the scalar expression grammar.

    expr     := ["+"|"-"] term (("+"|"-") term)*
    term     := factor (("*"|"/") factor)*
    factor   := base ("^" uint)?
    base     := rational | coordname | "(" expr ")"
    rational := int ("/" uint)?
    coordname:= declared coordinate identifier

Whitespace is insignificant.  The optional leading sign covers rational
literals whose sign is attached to the integer part.  "/" between two
numeric literals and "/" as field division denote the same exact quotient,
so both are handled by scalar division.  Parentheses nest at most
``MAX_DEPTH`` deep, so a deeply nested input is a ParseError rather than a
RecursionError.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DivisionByZeroError, ParseError
from .scalars import Scalar

_OPS = set("+-*/^()")
MAX_DEPTH = 100


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, offset)
        self._scan()
        self.index = 0

    def _scan(self) -> None:
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in _OPS:
                self.tokens.append(("op", ch, i))
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("int", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", len(text)))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok


class _Parser:
    def __init__(self, text: str, names: Sequence[str]):
        self.toks = _Tokenizer(text)
        self.names = list(names)
        self.nvars = len(self.names)
        self.depth = 0

    def parse(self) -> Scalar:
        value = self._expr()
        kind, text, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return value

    def _expr(self) -> Scalar:
        kind, text, _ = self.toks.peek()
        negate = False
        if kind == "op" and text in "+-":
            self.toks.advance()
            negate = text == "-"
        value = self._term()
        if negate:
            value = -value
        while True:
            kind, text, _ = self.toks.peek()
            if kind == "op" and text in "+-":
                self.toks.advance()
                rhs = self._term()
                value = value - rhs if text == "-" else value + rhs
            else:
                return value

    def _term(self) -> Scalar:
        value = self._factor()
        while True:
            kind, text, pos = self.toks.peek()
            if kind == "op" and text in "*/":
                self.toks.advance()
                rhs = self._factor()
                if text == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero():
                        raise ParseError("division by the zero polynomial", pos)
                    value = value / rhs
            else:
                return value

    def _factor(self) -> Scalar:
        value = self._base()
        kind, text, _ = self.toks.peek()
        if kind == "op" and text == "^":
            self.toks.advance()
            kind, text, pos = self.toks.peek()
            if kind != "int":
                raise ParseError("expected integer exponent after '^'", pos)
            self.toks.advance()
            value = value ** int(text)
        return value

    def _base(self) -> Scalar:
        kind, text, pos = self.toks.advance()
        if kind == "int":
            return Scalar.constant(self.nvars, int(text))
        if kind == "name":
            try:
                index = self.names.index(text)
            except ValueError:
                raise ParseError(f"unknown coordinate name {text!r}", pos) from None
            return Scalar.variable(self.nvars, index)
        if kind == "op" and text == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nest deeper than {MAX_DEPTH}", pos)
            self.depth += 1
            value = self._expr()
            self.depth -= 1
            kind, text, pos = self.toks.advance()
            if not (kind == "op" and text == ")"):
                raise ParseError("expected ')'", pos)
            return value
        raise ParseError(
            "expected a rational, coordinate name or '('" if kind != "end"
            else "unexpected end of input",
            pos,
        )


def parse_scalar(text: str, names: Sequence[str]) -> Scalar:
    """Parse expression text over the declared coordinate names."""
    try:
        return _Parser(text, names).parse()
    except DivisionByZeroError as exc:
        raise ParseError(str(exc), len(text)) from exc
