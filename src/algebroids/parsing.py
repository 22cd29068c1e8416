"""Recursive-descent parser for the scalar expression grammar.

    expr     := ["+"|"-"] term (("+"|"-") term)*
    term     := factor (("*"|"/") factor)*
    factor   := base ("^" uint)?
    base     := rational | coordname | "(" expr ")"
    rational := int ("/" uint)?
    coordname:= declared coordinate identifier

An int is a run of the decimal digits ``int`` reads (``str.isdecimal``)
within the int-string limit; a name (``is_name``) is a letter or "_" then
letters, digits and "_".  Whitespace is insignificant.  The optional
leading sign covers rational literals whose sign is attached to the
integer part.  "/" between two numeric literals and "/" as field division
denote the same exact quotient, so both are handled by scalar division.
Parentheses nest at most ``MAX_DEPTH`` deep, so a deeply nested input is
a ParseError rather than a RecursionError.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DivisionByZeroError, ParseError
from .scalars import Scalar

_OPS = set("+-*/^()")
MAX_DEPTH = 100


def _run_end(text: str, i: int, accepts) -> int:
    """The end of the run of characters from i that accepts takes."""
    while i < len(text) and accepts(text[i]):
        i += 1
    return i


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, value, offset) tokens of text, closed by an "end" token."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            kind, j = "op", i + 1
        elif ch.isdecimal():
            kind, j = "int", _run_end(text, i, str.isdecimal)
        elif ch.isalpha() or ch == "_":
            kind, j = "name", _run_end(text, i, lambda c: c.isalnum() or c == "_")
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        tokens.append((kind, text[i:j], i))
        i = j
    tokens.append(("end", "", len(text)))
    return tokens


def _literal(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # longer than the int-string limit
        raise ParseError(f"integer literal of {len(text)} digits is too long", pos) from None


def is_name(text: str) -> bool:
    """Whether text is one name token of the grammar."""
    try:
        return _tokenize(text)[0] == ("name", text, 0)
    except ParseError:
        return False


class _Parser:
    def __init__(self, text: str, names: Sequence[str]):
        self.tokens = _tokenize(text)
        self.index = 0
        self.names = list(names)
        self.nvars = len(self.names)
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok

    def parse(self) -> Scalar:
        value = self._expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return value

    def _expr(self) -> Scalar:
        kind, text, _ = self.peek()
        negate = False
        if kind == "op" and text in "+-":
            self.advance()
            negate = text == "-"
        value = self._term()
        if negate:
            value = -value
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self._term()
                value = value - rhs if text == "-" else value + rhs
            else:
                return value

    def _term(self) -> Scalar:
        value = self._factor()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
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
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, pos = self.peek()
            if kind != "int":
                raise ParseError("expected integer exponent after '^'", pos)
            self.advance()
            value = value ** _literal(text, pos)
        return value

    def _base(self) -> Scalar:
        kind, text, pos = self.advance()
        if kind == "int":
            return Scalar.constant(self.nvars, _literal(text, pos))
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
            kind, text, pos = self.advance()
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
