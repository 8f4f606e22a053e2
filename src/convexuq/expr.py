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

Parsing compiles the tree once into two Python functions, which
`LimitState.evaluate` calls: a scalar one (floats in, a float out, or
EvaluationError at an undefined point) and an array one (every point of
one broadcast shape in one pass, nan exactly where the scalar one raises).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import EvaluationError, LimitStateSyntaxError, UnboundVariable, UnknownCharacter

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<end>\Z)"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while not tokens or tokens[-1][0] != "end":
        match = _TOKEN_RE.match(text, pos)
        if match is None:  # an illegal character, after any whitespace
            offset = len(text) - len(text[pos:].lstrip())
            raise UnknownCharacter(f"unexpected character {text[offset]!r}", offset)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


@dataclass(frozen=True)
class LimitState:
    """Parsed limit-state function g over named variables. Construction
    compiles root once into a scalar and an array evaluator."""

    source: str
    root: tuple
    variables: frozenset[str]
    _scalar: Callable = field(init=False, repr=False, compare=False)
    _array: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_scalar", _compile(self.root, array=False))
        object.__setattr__(self, "_array", _compile(self.root, array=True))

    def __reduce__(self):
        return LimitState, (self.source, self.root, self.variables)

    def evaluate(self, env: Mapping[str, float | np.ndarray]) -> float | np.ndarray:
        """g at env, which binds every variable: a float from floats, or
        EvaluationError where g is undefined; given any ndarray, an array
        over the broadcast shape, nan where the scalar call would raise."""
        if not env.keys() >= self.variables:
            missing = sorted(self.variables - set(env))
            raise UnboundVariable(f"unbound variable(s): {', '.join(missing)}", names=missing)
        for v in env.values():
            if isinstance(v, np.ndarray):
                break
        else:
            try:
                value = self._scalar(env)
            except ZeroDivisionError:
                raise EvaluationError("division by zero") from None
            if not math.isfinite(value):
                raise EvaluationError(f"non-finite value from '{self.source}'")
            return value
        arrays = {k: np.asarray(v, dtype=float) for k, v in env.items()}
        undefined = np.zeros(np.broadcast_shapes(*(v.shape for v in arrays.values())), bool)
        with np.errstate(all="ignore"):
            value = self._array(arrays, undefined)
            undefined |= ~np.isfinite(value)
        return np.where(undefined, np.nan, value)

    def _value(self, env: Mapping[str, float]) -> float:
        """evaluate's scalar path without its checks, nan where g is
        undefined: for a caller that has checked that env binds every
        variable to a float, as the reliability solver does once per solve."""
        try:
            value = self._scalar(env)
        except (ZeroDivisionError, EvaluationError):
            return math.nan
        return value if math.isfinite(value) else math.nan


def _power(a: float, b: float) -> float:
    if a < 0.0 and not b.is_integer():
        raise EvaluationError("fractional power of a negative number")
    if a == 0.0 and b < 0.0:
        raise EvaluationError("zero raised to a negative power")
    try:
        return a**b
    except OverflowError:
        raise EvaluationError("overflow in power") from None


# The array operations OR their undefined points into `undefined`. A float b
# is a constant: as a non-zero divisor or natural exponent, it needs no mask.
def _array_divide(a, b, undefined: np.ndarray):
    if not (isinstance(b, float) and b != 0.0):
        undefined |= b == 0.0
    return np.divide(a, b)


def _array_power(a, b, undefined: np.ndarray):
    value = np.power(a, b)
    overflow = np.isinf(value) & np.isfinite(a)
    if not (isinstance(b, float) and b >= 0.0 and b.is_integer()):
        overflow &= np.isfinite(b)
        undefined |= (a < 0.0) & ((b != np.floor(b)) | np.isinf(b))
        undefined |= (a == 0.0) & (b < 0.0)
    undefined |= overflow
    return value


def _lower(node: tuple, constants: list, array: bool) -> tuple[str, int]:
    """(Python source, binding level) of the subtree's value: operands run
    in the tree's post-order and die once consumed. Scalar source divides
    natively (zero raises ZeroDivisionError). Input text enters only as
    repr() keys of e; literals are entries of k."""
    op = node[0]
    if op == "num":
        constants.append(node[1])
        return f"k[{len(constants) - 1}]", 4
    if op == "var":
        return (f"e[{node[1]!r}]" if array else f"float(e[{node[1]!r}])"), 4
    a, left = _lower(node[1], constants, array)
    if op == "neg":  # Python's unary minus binds tighter than * and /
        return "-" + (a if left >= 3 else f"({a})"), 3
    b, right = _lower(node[2], constants, array)
    if op == "^":
        return (f"W({a}, {b}, u)" if array else f"P({a}, {b})"), 4
    if op == "/" and array:
        return f"D({a}, {b}, u)", 4
    level = 1 if op in "+-" else 2  # left associative: parenthesize a right operand
    return f"{a if left >= level else f'({a})'} {op} {b if right > level else f'({b})'}", level


def _compile(root: tuple, array: bool) -> Callable:
    constants: list[float] = []
    body, _ = _lower(root, constants, array)
    source = f"def g(e{', u' if array else ''}):\n    return {body}\n"
    namespace = {"k": tuple(constants), "P": _power, "D": _array_divide, "W": _array_power}
    exec(compile(source, "<limit state>", "exec"), namespace)
    return namespace["g"]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables: set[str] = set()

    def accept(self, ops: str) -> str | None:
        """Consume and return the next token if it is one of the operators ops."""
        kind, value, _ = self.tokens[self.pos]
        if kind != "op" or value not in ops:
            return None
        self.pos += 1
        return value

    def chain(self, ops: str, operand) -> tuple:
        """A left-associative run of operands joined by the operators ops:
        expr with "+-" and term, term with "*/" and unary."""
        node = operand()
        while op := self.accept(ops):
            node = (op, node, operand())
        return node

    def term(self) -> tuple:
        return self.chain("*/", self.unary)

    def unary(self) -> tuple:
        if self.accept("-"):
            return ("neg", self.unary())
        node = self.atom()
        if self.accept("^"):
            # right associative; unary minus allowed in the exponent
            return ("^", node, self.unary())
        return node

    def atom(self) -> tuple:
        kind, value, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "number":
            return ("num", float(value))
        if kind == "ident":
            self.variables.add(value)
            return ("var", value)
        if kind == "op" and value == "(":
            node = self.chain("+-", self.term)
            if not self.accept(")"):
                raise LimitStateSyntaxError("expected ')'", self.tokens[self.pos][2])
            return node
        what = f"'{value}'" if value else "end of input"
        raise LimitStateSyntaxError(f"expected number, name, or '(', got {what}", offset)


def parse_limit_state(text: str) -> LimitState:
    """Parse an expression into a LimitState; raises LimitStateSyntaxError
    (with 0-based byte offset) or UnknownCharacter on bad input."""
    if not text.strip():
        raise LimitStateSyntaxError("empty expression", 0)
    parser = _Parser(text)
    root = parser.chain("+-", parser.term)
    kind, value, offset = parser.tokens[parser.pos]
    if kind != "end":
        raise LimitStateSyntaxError(f"unexpected '{value}'", offset)
    return LimitState(source=text, root=root, variables=frozenset(parser.variables))
