"""Recursive-descent parser and evaluator for limit-state expressions.

Grammar (standard precedence, power binding tightest and right
associative, then unary minus, then * and /, then + and -):

    expr  := term (('+' | '-') term)*
    term  := unary (('*' | '/') unary)*
    unary := '-' unary | power
    power := atom ('^' unary)?
    atom  := NUMBER | IDENT | '(' expr ')'

Identifiers are [A-Za-z_][A-Za-z0-9_]*. Offsets in errors are 0-based
byte positions into the source text.

`LimitState.evaluate` takes floats and returns a float, raising
EvaluationError at an undefined point. Given numpy arrays (of one
broadcastable shape) it evaluates every point in one pass and returns an
array that holds nan exactly where the scalar call would raise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    EvaluationError,
    LimitStateSyntaxError,
    UnboundVariable,
    UnknownCharacter,
)

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            # only trailing whitespace or an illegal character remains
            rest = text[pos:]
            stripped = rest.lstrip()
            if not stripped:
                break
            offset = pos + (len(rest) - len(stripped))
            raise UnknownCharacter(f"unexpected character {stripped[0]!r}", offset)
        kind = match.lastgroup
        value = match.group(kind)
        tokens.append((kind, value, match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


@dataclass(frozen=True)
class LimitState:
    """Parsed limit-state function g over named variables."""

    source: str
    root: tuple
    variables: frozenset[str]

    def evaluate(self, env: Mapping[str, float | np.ndarray]) -> float | np.ndarray:
        missing = sorted(self.variables - set(env))
        if missing:
            raise UnboundVariable(f"unbound variable(s): {', '.join(missing)}", names=missing)
        if not any(isinstance(v, np.ndarray) for v in env.values()):
            value = _eval_node(self.root, env, None)
            if not math.isfinite(value):
                raise EvaluationError(f"non-finite value from '{self.source}'")
            return value
        arrays = {k: np.asarray(v, dtype=float) for k, v in env.items()}
        undefined = np.zeros(np.broadcast_shapes(*(v.shape for v in arrays.values())), bool)
        with np.errstate(all="ignore"):
            value = _eval_node(self.root, arrays, undefined)
            undefined |= ~np.isfinite(value)
        return np.where(undefined, np.nan, value)


def _eval_node(node: tuple, env: Mapping, undefined: np.ndarray | None):
    """Value of the subtree at env. With undefined None, env holds scalars
    and a domain error raises EvaluationError; otherwise env holds arrays
    and the points in error are ORed into undefined."""
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return env[node[1]] if undefined is not None else float(env[node[1]])
    if op == "neg":
        return -_eval_node(node[1], env, undefined)
    a = _eval_node(node[1], env, undefined)
    b = _eval_node(node[2], env, undefined)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if undefined is not None:
            undefined |= b == 0.0
            return np.divide(a, b)
        if b == 0.0:
            raise EvaluationError("division by zero")
        return a / b
    if op == "^":
        if undefined is not None:
            fractional = (b != np.floor(b)) | np.isinf(b)
            value = np.power(a, b)
            undefined |= (a < 0.0) & fractional
            undefined |= (a == 0.0) & (b < 0.0)
            undefined |= np.isinf(value) & np.isfinite(a) & np.isfinite(b)
            return value
        if a < 0.0 and not b.is_integer():
            raise EvaluationError("fractional power of a negative number")
        if a == 0.0 and b < 0.0:
            raise EvaluationError("zero raised to a negative power")
        try:
            return float(a**b)
        except OverflowError:
            raise EvaluationError("overflow in power") from None
    raise AssertionError(f"unknown node {op}")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables: set[str] = set()

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op: str) -> None:
        kind, value, offset = self.peek()
        if kind == "op" and value == op:
            self.advance()
            return
        raise LimitStateSyntaxError(f"expected '{op}'", offset)

    def parse(self) -> tuple:
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise LimitStateSyntaxError(f"unexpected '{value}'", offset)
        return node

    def expr(self) -> tuple:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = (value, node, self.term())
            else:
                return node

    def term(self) -> tuple:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = (value, node, self.unary())
            else:
                return node

    def unary(self) -> tuple:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return ("neg", self.unary())
        return self.power()

    def power(self) -> tuple:
        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            # right associative; unary minus allowed in the exponent
            return ("^", node, self.unary())
        return node

    def atom(self) -> tuple:
        kind, value, offset = self.advance()
        if kind == "number":
            return ("num", float(value))
        if kind == "ident":
            self.variables.add(value)
            return ("var", value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        what = f"'{value}'" if value else "end of input"
        raise LimitStateSyntaxError(f"expected number, name, or '(', got {what}", offset)


def parse_limit_state(text: str) -> LimitState:
    """Parse an expression into a LimitState; raises LimitStateSyntaxError
    (with 0-based byte offset) or UnknownCharacter on bad input."""
    if not text.strip():
        raise LimitStateSyntaxError("empty expression", 0)
    parser = _Parser(text)
    root = parser.parse()
    return LimitState(source=text, root=root, variables=frozenset(parser.variables))
